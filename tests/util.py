"""Shared fixture builders and random-element generators for the tests.

Random data always comes from a caller-supplied random.Random so every test
is reproducible; coefficients stay at polynomial degree <= 2 to keep the
exact arithmetic fast.
"""

from fractions import Fraction
from itertools import combinations

from algebroids import (
    FORM,
    MULTIVECTOR,
    DualPoissonStructure,
    GradedElement,
    OperatorValue,
    bracket_sections,
    construct_lie_algebra,
    construct_tangent,
    cotangent_algebroid,
    exterior_derivative,
    interior_product,
    new_algebroid,
    new_poisson,
    pairing,
    schouten_bracket,
    verify_axioms,
)
from algebroids.algebroid import _section_coeffs
from algebroids.calculus import _accumulate, _require_over, _require_variance
from algebroids.expr import ONE, ZERO, Expr

X1, X2, X3 = Expr.var("x1"), Expr.var("x2"), Expr.var("x3")


def so3():
    return construct_lie_algebra(3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}})


def heisenberg():
    return construct_lie_algebra(3, {(1, 2): {3: 1}})


def broken_jacobi():
    """Fails the Jacobi identity with residual exactly e_2 on (1,2,3)."""
    return construct_lie_algebra(3, {(1, 2): {1: 1}, (1, 3): {2: 1}})


def poisson_r2():
    return new_poisson(("x1", "x2"), {(1, 2): 1})


def poisson_r3_linear():
    return new_poisson(("x1", "x2", "x3"), {(1, 2): X3})


def poisson_so3():
    return new_poisson(("x1", "x2", "x3"), {(1, 2): X3, (1, 3): -X2, (2, 3): X1})


def poisson_broken():
    return new_poisson(("x1", "x2", "x3"), {(1, 2): 1, (1, 3): X1})


def poisson_fixtures():
    return [
        ("r2-symplectic", poisson_r2()),
        ("r3-x3-linear", poisson_r3_linear()),
        ("r3-so3-linear", poisson_so3()),
    ]


def verified_fixtures():
    """Named verified algebroids used by the quantified properties."""
    items = [
        ("tangent-1", construct_tangent(1)),
        ("tangent-2", construct_tangent(2)),
        ("tangent-3", construct_tangent(3)),
        ("so3", so3()),
        ("heisenberg", heisenberg()),
    ]
    for name, ps in poisson_fixtures():
        items.append((f"cotangent-{name}", cotangent_algebroid(ps)))
    for _, algebroid in items:
        verify_axioms(algebroid)
    return items


def d_operator(algebroid):
    return OperatorValue(lambda eta: exterior_derivative(algebroid, eta), 1)


def random_poly(rng, chart, max_degree=2, terms=2):
    total = Expr.const(0)
    for _ in range(terms):
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        term = Expr.const(coeff)
        if chart:
            for _ in range(rng.randint(0, max_degree)):
                term = term * Expr.var(rng.choice(chart))
        total = total + term
    return total


def random_homogeneous(rng, algebroid, variance, degree, density=0.7):
    table = {}
    for index in combinations(range(1, algebroid.rank + 1), degree):
        if rng.random() < density:
            table[index] = random_poly(rng, algebroid.chart)
    return GradedElement(algebroid, variance, {degree: table} if table else {})


def random_form(rng, algebroid, degree):
    return random_homogeneous(rng, algebroid, FORM, degree)


def random_multivector(rng, algebroid, degree):
    return random_homogeneous(rng, algebroid, MULTIVECTOR, degree)


def random_section(rng, algebroid):
    return random_homogeneous(rng, algebroid, MULTIVECTOR, 1, density=1.0)


def random_mixed(rng, algebroid, variance, max_degree=None):
    if max_degree is None:
        max_degree = algebroid.rank
    total = GradedElement(algebroid, variance, {})
    for degree in range(0, max_degree + 1):
        if rng.random() < 0.6:
            total = total + random_homogeneous(rng, algebroid, variance, degree)
    return total


def _eval_index(table, seq):
    """Value of a degree-p table on an arbitrary index sequence: zero on
    repeats, otherwise the sorted coefficient times the sorting sign."""
    seq = tuple(seq)
    if len(set(seq)) != len(seq):
        return ZERO
    inversions = 0
    for s in range(len(seq)):
        for t in range(s + 1, len(seq)):
            if seq[s] > seq[t]:
                inversions += 1
    value = table.get(tuple(sorted(seq)), ZERO)
    if inversions & 1:
        return -value
    return value


def dense_d(algebroid, eta):
    """Exterior derivative from the structure data: anchor terms with
    alternating signs plus signed bracket contractions.

    The degree-(p+1) coefficient on J is
      sum_t (-1)^t rho(e_{j_t}) eta(J minus j_t)
      + sum_{s<t} (-1)^{s+t} eta({e_{j_s}, e_{j_t}}, J minus both).

    The dense reference for the library's sparse exterior_derivative: it
    visits every index tuple of each degree.
    """
    _require_variance(eta, FORM, "exterior_derivative")
    _require_over(algebroid, eta, "exterior_derivative")
    k = algebroid.rank
    out = {}
    for p, table in eta.components.items():
        if p == 0:
            f = table[()]
            for a in range(1, k + 1):
                _accumulate(out, 1, (a,), algebroid.apply_anchor(a, f))
            continue
        for J in combinations(range(1, k + 1), p + 1):
            total = ZERO
            for t in range(p + 1):
                omitted = J[:t] + J[t + 1 :]
                value = table.get(omitted, ZERO)
                if value:
                    term = algebroid.apply_anchor(J[t], value)
                    total = total + (-term if t & 1 else term)
            for s in range(p + 1):
                for t in range(s + 1, p + 1):
                    bracket = algebroid.bracket_table(J[s], J[t])
                    if not bracket:
                        continue
                    rest = tuple(J[u] for u in range(p + 1) if u != s and u != t)
                    inner = ZERO
                    for c, cab in bracket.items():
                        ev = _eval_index(table, (c,) + rest)
                        if ev:
                            inner = inner + cab * ev
                    total = total + (-inner if (s + t) & 1 else inner)
            _accumulate(out, p + 1, J, total)
    return GradedElement(algebroid, FORM, out)


def _section_bracket_tables(algebroid, V):
    """Coefficients of {V, e_b} for each basis index b, as sparse tables."""
    tables = []
    for b in range(1, algebroid.rank + 1):
        eb = GradedElement(algebroid, MULTIVECTOR, {1: {(b,): ONE}})
        result = bracket_sections(algebroid, V, eb)
        tables.append({index[0]: value for index, value in result.components.get(1, {}).items()})
    return tables


def dense_lie_form(algebroid, V, eta):
    """Lie derivative of a form along a section: differentiate each
    coefficient through the anchor, minus the terms replacing one slot of the
    index tuple by the bracket {V, e_slot}.

    The dense reference for the library's lie_derivative_form: it visits
    every index tuple of each degree.
    """
    _require_variance(eta, FORM, "lie_derivative_form")
    _require_variance(V, MULTIVECTOR, "lie_derivative_form")
    _require_over(algebroid, eta, "lie_derivative_form")
    _require_over(algebroid, V, "lie_derivative_form")
    vcoeffs = _section_coeffs(V)
    brackets = _section_bracket_tables(algebroid, V)
    out = {}
    for p, table in eta.components.items():
        if p == 0:
            _accumulate(out, 0, (), algebroid.apply_anchor_section(vcoeffs, table[()]))
            continue
        for I in combinations(range(1, algebroid.rank + 1), p):
            value = table.get(I, ZERO)
            total = algebroid.apply_anchor_section(vcoeffs, value) if value else ZERO
            for slot in range(p):
                for c, w in brackets[I[slot] - 1].items():
                    ev = _eval_index(table, I[:slot] + (c,) + I[slot + 1 :])
                    if ev:
                        total = total - w * ev
            _accumulate(out, p, I, total)
    return GradedElement(algebroid, FORM, out)


def dense_lie_multivector(algebroid, V, P):
    """Lie derivative of a multivector, determined against all dual basis
    forms by the pairing rule rho(V)<eta,P> = <L(V)eta,P> + <eta,L(V)P>.

    The dense reference for the library's lie_derivative_multivector: it
    probes every basis form through dense_lie_form.
    """
    _require_variance(P, MULTIVECTOR, "lie_derivative_multivector")
    _require_variance(V, MULTIVECTOR, "lie_derivative_multivector")
    _require_over(algebroid, P, "lie_derivative_multivector")
    _require_over(algebroid, V, "lie_derivative_multivector")
    vcoeffs = _section_coeffs(V)
    out = {}
    for p, table in P.components.items():
        if p == 0:
            _accumulate(out, 0, (), algebroid.apply_anchor_section(vcoeffs, table[()]))
            continue
        for I in combinations(range(1, algebroid.rank + 1), p):
            eI = GradedElement(algebroid, FORM, {p: {I: ONE}})
            correction = pairing(dense_lie_form(algebroid, V, eI), P)
            value = table.get(I, ZERO)
            total = algebroid.apply_anchor_section(vcoeffs, value) if value else ZERO
            _accumulate(out, p, I, total - correction)
    return GradedElement(algebroid, MULTIVECTOR, out)


def dense_axioms(algebroid):
    """Nonzero anchor and Jacobi residuals from the brackets of basis
    sections: the anchor condition componentwise on every pair, and the
    Jacobiator of every triple through six bracket_sections calls.

    The dense reference for the library's verify_axioms, which reads the same
    residuals off d d on generators.
    """
    k = algebroid.rank
    chart = algebroid.chart
    n = len(chart)
    anchor, jacobi = {}, {}

    for a, b in combinations(range(1, k + 1), 2):
        residual = []
        table = algebroid.bracket_table(a, b)
        for i in range(1, n + 1):
            lhs = ZERO
            for c, cab in table.items():
                lhs = lhs + cab * algebroid.anchor_entry(c, i)
            rhs = ZERO
            for j, name in enumerate(chart, start=1):
                rhs = rhs + algebroid.anchor_entry(a, j) * algebroid.anchor_entry(b, i).diff(name)
                rhs = rhs - algebroid.anchor_entry(b, j) * algebroid.anchor_entry(a, i).diff(name)
            residual.append(lhs - rhs)
        if any(residual):
            anchor[(a, b)] = tuple(residual)

    basis = [GradedElement(algebroid, MULTIVECTOR, {1: {(a,): ONE}}) for a in range(1, k + 1)]
    for a, b, c in combinations(range(1, k + 1), 3):
        ea, eb, ec = basis[a - 1], basis[b - 1], basis[c - 1]
        total = bracket_sections(algebroid, bracket_sections(algebroid, ea, eb), ec)
        total = total + bracket_sections(algebroid, bracket_sections(algebroid, eb, ec), ea)
        total = total + bracket_sections(algebroid, bracket_sections(algebroid, ec, ea), eb)
        if not total.is_zero():
            jacobi[(a, b, c)] = total
    return anchor, jacobi


def derived_bracket_structure(chart, rank, delta):
    """Structure functions of a degree-1 derivation of forms as the derived
    bracket: C^c_ab is the scalar [[i(e_a), delta], i(e_b)] e^c, for a < b.

    The reference for delta_reconstruct, which reads C^c_ab = -(delta e^c)_ab
    directly; returns the sparse {(a, b): {c: Expr}} table.
    """
    scaffold = new_algebroid(chart, rank)
    duals = [GradedElement(scaffold, FORM, {1: {(a,): ONE}}) for a in range(1, rank + 1)]
    vectors = [GradedElement(scaffold, MULTIVECTOR, {1: {(a,): ONE}}) for a in range(1, rank + 1)]
    structure = {}
    for a in range(1, rank + 1):
        ea = vectors[a - 1]

        def commuted(eta):
            return interior_product(ea, delta(eta)) + delta(interior_product(ea, eta))

        for b in range(a + 1, rank + 1):
            eb = vectors[b - 1]
            entries = {}
            for c in range(1, rank + 1):
                value_form = commuted(interior_product(eb, duals[c - 1])) - interior_product(
                    eb, commuted(duals[c - 1])
                )
                value = value_form.scalar_part()
                if value:
                    entries[c] = value
            if entries:
                structure[(a, b)] = entries
    return structure


def so_n_constants(n):
    """Structure constants of so(n) on the basis E_ij = e_i e_j^T - e_j e_i^T
    (i < j), from [E_ij, E_kl] = d_jk E_il - d_jl E_ik - d_ik E_jl + d_il E_jk."""
    pairs = list(combinations(range(1, n + 1), 2))
    index = {pair: a for a, pair in enumerate(pairs, start=1)}
    constants = {}
    for (a, (i, j)), (b, (k, l)) in combinations(enumerate(pairs, start=1), 2):
        table = {}
        terms = ((j, k, i, l, 1), (j, l, i, k, -1), (i, k, j, l, -1), (i, l, j, k, 1))
        for s, t, u, v, sign in terms:
            if s == t and u != v:
                c, sign = (index[(u, v)], sign) if u < v else (index[(v, u)], -sign)
                table[c] = table.get(c, 0) + sign
        constants[(a, b)] = {c: v for c, v in table.items() if v}
    return constants


def liouville_homogeneity(ps):
    """[Z, Lambda] + Lambda through the general Schouten bracket with the
    Liouville field Z = sum_a xi_a d/dxi_a: the reference for the library's
    homogeneity_check, which counts weights instead."""
    if not isinstance(ps, DualPoissonStructure):
        raise ValueError("homogeneity_check: expected a dual-bundle Poisson structure")
    tangent = ps.bivector.algebroid
    n = len(ps.dual_chart.base)
    liouville = GradedElement(
        tangent,
        MULTIVECTOR,
        {1: {(n + a,): Expr.var(name) for a, name in enumerate(ps.dual_chart.fiber, start=1)}},
    )
    return schouten_bracket(tangent, liouville, ps.bivector) + ps.bivector
