"""Known answers computed by the benchmark itself.

None of these call the package function whose result they check: Lie
Jacobiators come from sums of structure constants in `Fraction`s, Poisson
Jacobiators from `Expr.diff` on coordinates, and wedge / interior references
from explicit sums over index splits. Shared conventions (the a < b storage,
the shuffle wedge without factorials) follow the package's documentation.
"""

from __future__ import annotations

from itertools import combinations

from algebroids.expr import Expr

ZERO = Expr.const(0)


def _bracket(constants, a, b):
    if a == b:
        return {}
    if a < b:
        return constants.get((a, b), {})
    return {c: -v for c, v in constants.get((b, a), {}).items()}


def lie_jacobiator(rank, constants):
    """{(a, b, c): {e: Fraction}} for a < b < c, the nonzero components of
    [[e_a, e_b], e_c] + [[e_b, e_c], e_a] + [[e_c, e_a], e_b]."""
    out = {}
    for a, b, c in combinations(range(1, rank + 1), 3):
        total = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for d, cxy in _bracket(constants, x, y).items():
                for e, cdz in _bracket(constants, d, z).items():
                    total[e] = total.get(e, 0) + cxy * cdz
        total = {e: v for e, v in total.items() if v}
        if total:
            out[(a, b, c)] = total
    return out


def entry(entries, i, j):
    """Antisymmetric extension of an i < j bivector table."""
    if i == j:
        return ZERO
    if i < j:
        return entries.get((i, j), ZERO)
    return -entries.get((j, i), ZERO)


def poisson_bracket(chart, entries, f, g):
    """{f, g} = sum_{i,j} L^{ij} d_i f d_j g, written out with Expr.diff."""
    df = [f.diff(name) for name in chart]
    dg = [g.diff(name) for name in chart]
    total = ZERO
    for i in range(len(chart)):
        for j in range(len(chart)):
            if df[i] and dg[j]:
                value = entry(entries, i + 1, j + 1)
                if value:
                    total = total + value * df[i] * dg[j]
    return total


def poisson_jacobiator(chart, entries):
    """{(i, j, k): Expr} for i < j < k, the nonzero values of
    {x_i, {x_j, x_k}} + {x_j, {x_k, x_i}} + {x_k, {x_i, x_j}}."""
    xs = [Expr.var(name) for name in chart]
    out = {}
    for i, j, k in combinations(range(len(chart)), 3):
        total = ZERO
        for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
            inner = entry(entries, v + 1, w + 1)
            total = total + poisson_bracket(chart, entries, xs[u], inner)
        if total:
            out[(i + 1, j + 1, k + 1)] = total
    return out


def gradient_form(chart, f):
    """Components {(i,): d_i f} of df over the tangent algebroid."""
    return {(i + 1,): f.diff(name) for i, name in enumerate(chart) if f.diff(name)}


def hamiltonian_field(chart, entries, f):
    """Components of -sharp(df): the j-th is -sum_i d_i f L^{ij}. This is
    the Lichnerowicz differential of the function f."""
    out = {}
    for j in range(1, len(chart) + 1):
        total = ZERO
        for i, name in enumerate(chart, start=1):
            total = total - f.diff(name) * entry(entries, i, j)
        if total:
            out[(j,)] = total
    return out


def cotangent_tables(chart, entries):
    """Anchor rows and structure functions of the cotangent algebroid of a
    Poisson bivector: row i is L^{i.}, C^k_{ij} = d_k L^{ij}."""
    n = len(chart)
    anchor = [[entry(entries, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    structure = {}
    for (i, j), value in entries.items():
        table = {k: value.diff(name) for k, name in enumerate(chart, start=1) if value.diff(name)}
        if table:
            structure[(i, j)] = table
    return anchor, structure


def dual_entries(n, anchor, structure):
    """Bivector of the linear Poisson structure on the dual bundle of an
    algebroid over n base coordinates, from its anchor rows and structure
    table: {xi_a, x^i} = rho^i_a, stored at (i, n+a) as -rho^i_a, and
    {xi_a, xi_b} = sum_c C^c_ab xi_c at (n+a, n+b)."""
    out = {}
    for a, row in enumerate(anchor, start=1):
        for i, value in enumerate(row, start=1):
            if value:
                out[(i, n + a)] = -value
    for (a, b), table in structure.items():
        total = ZERO
        for c, value in table.items():
            total = total + Expr.var(f"xi{c}") * value
        if total:
            out[(n + a, n + b)] = total
    return out


def _split_sign(left, right):
    """Sign of the permutation that sorts the concatenation left + right."""
    seq = left + right
    inversions = sum(1 for s, t in combinations(range(len(seq)), 2) if seq[s] > seq[t])
    return -1 if inversions & 1 else 1


def wedge_reference(rank, p, alpha, q, beta):
    """Homogeneous wedge of degree-p and degree-q tables: the coefficient on
    K is the signed sum of alpha_I beta_J over the splits K = I + J."""
    out = {}
    for K in combinations(range(1, rank + 1), p + q):
        total = ZERO
        for I in combinations(K, p):
            J = tuple(t for t in K if t not in I)
            a = alpha.get(I)
            b = beta.get(J)
            if a and b:
                term = a * b
                total = total + (term if _split_sign(I, J) > 0 else -term)
        if total:
            out[K] = total
    return out


def interior_reference(rank, section, p, form):
    """i(V) of a degree-p form table for a section {a: Expr}: the coefficient
    on J is sum_a V^a form(e_a, e_J)."""
    out = {}
    for J in combinations(range(1, rank + 1), p - 1):
        total = ZERO
        for a, va in section.items():
            if a in J:
                continue
            index = tuple(sorted((a,) + J))
            value = form.get(index)
            if value:
                term = va * value
                total = total + (term if index.index(a) % 2 == 0 else -term)
        if total:
            out[J] = total
    return out

