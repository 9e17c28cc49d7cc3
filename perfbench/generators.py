"""Seeded inputs for the benchmark workloads.

Generators return plain data: structure constants as {(a, b): {c: Fraction}} with a < b, anchor
rows and bivector entries as `Expr` tables, and model files as text. The
package only ever receives these generated objects or files.

Seeds vary values, never shapes. Generators that need random structure take
two generators: `shape` (seeded by the instance label alone) picks monomials
and sparsity patterns, and `rng` (seeded by the run's seed) picks the
coefficients, permutations and scalings. Every seed then runs the same mix of
work, and the run-to-run spread of the timings stays small.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

from algebroids.expr import Expr

ZERO = Expr.const(0)


# ---------------------------------------------------------------------------
# Lie algebras from matrices


def _matrix_basis(kind, n):
    """Defining positions of a matrix basis: so(n) uses E_ij - E_ji (i < j),
    gl(n) uses every E_ij, and the strictly upper triangular (nilpotent)
    algebra uses E_ij with i < j."""
    if kind == "gl":
        return [(i, j) for i in range(n) for j in range(n)]
    if kind in ("so", "upper"):
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    raise ValueError(f"unknown matrix algebra {kind!r}")


def matrix_lie_algebra(kind, n):
    """(rank, constants) of so(n), gl(n) or the strictly upper triangular n x n
    matrices, from commutators of the basis matrices. The Jacobi identity
    holds by theorem (associativity of matrix products)."""
    positions = _matrix_basis(kind, n)

    def matrix(pos):
        m = [[0] * n for _ in range(n)]
        i, j = pos
        m[i][j] += 1
        if kind == "so":
            m[j][i] -= 1
        return m

    def product(x, y):
        return [[sum(x[i][t] * y[t][j] for t in range(n)) for j in range(n)] for i in range(n)]

    mats = [matrix(p) for p in positions]
    constants = {}
    for a, b in combinations(range(len(positions)), 2):
        xy = product(mats[a], mats[b])
        yx = product(mats[b], mats[a])
        # Every basis element has a single 1 at its defining position, and
        # the commutator lies in the span, so its coordinates are read there.
        entries = {
            c + 1: Fraction(xy[i][j] - yx[i][j])
            for c, (i, j) in enumerate(positions)
            if xy[i][j] != yx[i][j]
        }
        if entries:
            constants[(a + 1, b + 1)] = entries
    return len(positions), constants


def heisenberg(m):
    """The Heisenberg algebra of rank 2m+1: [x_i, y_i] = z."""
    rank = 2 * m + 1
    return rank, {(i, m + i): {rank: Fraction(1)} for i in range(1, m + 1)}


def two_step_nilpotent(shape, rng, generators, centre):
    """A seeded 2-step nilpotent algebra: brackets of generators land in the
    centre, so every double bracket vanishes and Jacobi holds by
    construction. Each generator pair gets one or two central components."""
    rank = generators + centre
    constants = {}
    for a, b in combinations(range(1, generators + 1), 2):
        picks = shape.sample(range(generators + 1, rank + 1), shape.choice((1, 2)))
        constants[(a, b)] = {c: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for c in picks}
    return rank, constants


def relabelled(rng, rank, constants):
    """An isomorphic copy: permute the basis and rescale it by seeded nonzero
    rationals, e'_a = s_a e_{p(a)}. Sparsity is kept; values change."""
    perm = list(range(1, rank + 1))
    rng.shuffle(perm)
    new_of = {old: new for new, old in enumerate(perm, start=1)}
    scale = {a: Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2))) * rng.choice((1, -1)) for a in range(1, rank + 1)}
    out = {}
    for (a, b), entries in constants.items():
        na, nb = new_of[a], new_of[b]
        sign = 1
        if na > nb:
            na, nb, sign = nb, na, -1
        table = out.setdefault((na, nb), {})
        for c, value in entries.items():
            nc = new_of[c]
            # [s_a e_a, s_b e_b] = s_a s_b C^c_ab e_c = (s_a s_b / s_c) C^c_ab (s_c e_c)
            table[nc] = table.get(nc, 0) + sign * value * scale[na] * scale[nb] / scale[nc]
    return {key: {c: v for c, v in table.items() if v} for key, table in out.items()}


def perturbed_constants(shape, rng, rank, constants):
    """Add one constant (value from `rng`) to one bracket (position from
    `shape`). Whether Jacobi still holds is not assumed: the benchmark
    computes the Jacobiator itself."""
    out = {key: dict(table) for key, table in constants.items()}
    a, b = sorted(shape.sample(range(1, rank + 1), 2))
    c = shape.randint(1, rank)
    table = out.setdefault((a, b), {})
    table[c] = table.get(c, 0) + rng.choice((-2, -1, 1, 2))
    if not table[c]:
        del table[c]
    return {key: table for key, table in out.items() if table}


def gl_action(n):
    """The action algebroid of gl(n) acting linearly on R^n: rank n^2, chart
    x1..xn, anchor rho(E_ij) = -x_j d/dx_i so that the anchor is a bracket
    morphism for the commutator constants."""
    rank, constants = matrix_lie_algebra("gl", n)
    chart = tuple(f"x{i + 1}" for i in range(n))
    anchor = []
    for i, j in _matrix_basis("gl", n):
        row = [ZERO] * n
        row[i] = -Expr.var(chart[j])
        anchor.append(row)
    return chart, rank, anchor, constants


# ---------------------------------------------------------------------------
# Polynomials and Poisson structures


def random_poly(shape, rng, chart, nterms, maxdeg, low=1):
    """A polynomial with exactly `nterms` distinct monomials of degree
    low..maxdeg (from `shape`) and small nonzero integer coefficients (from
    `rng`)."""
    monomials = set()
    while len(monomials) < nterms:
        mono = {}
        for _ in range(shape.randint(low, maxdeg)):
            name = shape.choice(chart)
            mono[name] = mono.get(name, 0) + 1
        monomials.add(tuple(sorted(mono.items())))
    return Expr({mono: rng.choice((-3, -2, -1, 1, 2, 3)) for mono in sorted(monomials)})


def _sign(seq):
    inversions = sum(1 for s, t in combinations(range(len(seq)), 2) if seq[s] > seq[t])
    return -1 if inversions & 1 else 1


def jacobian_poisson(shape, rng, n, nterms, maxdeg):
    """{f, g} = det d(f, g, C_1, ..., C_{n-2}) on R^n with seeded polynomial
    Casimirs C_m. Poisson by theorem (Nambu-Jacobian brackets).

    Returns (chart, entries) with entries[(i, j)] = {x_i, x_j} for i < j."""
    chart = tuple(f"x{i + 1}" for i in range(n))
    casimirs = [random_poly(shape, rng, chart, nterms, maxdeg) for _ in range(n - 2)]
    grads = [[c.diff(name) for name in chart] for c in casimirs]
    entries = {}
    for i, j in combinations(range(n), 2):
        rest = [k for k in range(n) if k not in (i, j)]
        total = ZERO
        for cols in permutations(rest):
            term = Expr.const(_sign((i, j) + cols))
            for m, k in enumerate(cols):
                term = term * grads[m][k]
            total = total + term
        if total:
            entries[(i + 1, j + 1)] = total
    return chart, entries


def perturbed_bivector(shape, rng, chart, entries):
    """Add one quadratic term to one entry. The verdict is computed by the
    benchmark's own Jacobiator, not assumed."""
    out = dict(entries)
    key = shape.choice(sorted(out))
    out[key] = out[key] + random_poly(shape, rng, chart, 1, 2, low=2)
    return out


def dense_table(shape, rng, rank, degree, chart):
    """Coefficients on every increasing index tuple of one degree: a nonzero
    constant plus one linear term in a coordinate picked by `shape`."""
    table = {}
    for index in combinations(range(1, rank + 1), degree):
        value = Expr.const(rng.choice((-2, -1, 1, 2, 3)))
        if chart:
            value = value + Expr.var(shape.choice(chart)) * rng.choice((-1, 1, 2))
        table[index] = value
    return table


# ---------------------------------------------------------------------------
# Model-file text


def expr_text(value):
    """Model-file text of an Expr, written from its terms."""
    pieces = []
    for mono, coeff in sorted(value.items()):
        factors = [f"{name}^{exp}" if exp > 1 else name for name, exp in mono]
        mag = abs(coeff)
        number = f"{mag.numerator}/{mag.denominator}" if mag.denominator != 1 else str(mag.numerator)
        body = "*".join(([number] if mag != 1 or not factors else []) + factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    if not pieces:
        return "0"
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def _base_line(chart):
    return "base = [ " + ", ".join(f'"{name}"' for name in chart) + " ]" if chart else "base = [ ]"


def lie_algebra_model(rank, constants):
    """An [algebroid] model of a Lie algebra over a point."""
    lines = ["[algebroid]", _base_line(()), f"rank = {rank}"]
    for (a, b) in sorted(constants):
        for c in sorted(constants[(a, b)]):
            lines.append(f'C[{c}][{a}][{b}] = "{expr_text(Expr.const(constants[(a, b)][c]))}"')
    return "\n".join(lines) + "\n"


def poisson_model(chart, entries, forms=(), multivectors=()):
    """A [poisson] model with optional named form / multivector blocks, each
    given as (name, {index tuple: Expr})."""
    lines = ["[poisson]", _base_line(chart)]
    for (i, j) in sorted(entries):
        lines.append(f'L[{i}][{j}] = "{expr_text(entries[(i, j)])}"')
    for kind, blocks in (("form", forms), ("multivector", multivectors)):
        for name, table in blocks:
            lines.append("")
            lines.append(f"[{kind} {name}]")
            for index in sorted(table):
                key = ",".join(str(t) for t in index) if index else "scalar"
                lines.append(f'{key} = "{expr_text(table[index])}"')
    return "\n".join(lines) + "\n"


def malformed_models(rng):
    """Models the CLI must reject with exit 2 and a one-line message. The
    seed picks the coordinate name and the bad token."""
    name = rng.choice(("x", "y", "u"))
    bad = rng.choice(("$", "#", "?"))
    return [
        ("unknown-variable", f'[poisson]\nbase = [ "{name}1", "{name}2" ]\nL[1][2] = "{name}3"\n'),
        ("bad-character", f'[algebroid]\nbase = [ ]\nrank = 2\nC[1][1][2] = "1 {bad} 2"\n'),
        ("decreasing-pair", f'[algebroid]\nbase = [ "{name}1" ]\nrank = 2\nC[1][2][1] = "{name}1"\n'),
        ("unterminated-header", "[algebroid\nbase = [ ]\nrank = 1\n"),
    ]


def fiber_clash_model(rng):
    """A well-formed algebroid whose base coordinate is named like a fiber
    coordinate of its dual (`xi1`). `dual` must reject it with exit 2."""
    rank = rng.choice((1, 2))
    lines = ["[algebroid]", 'base = [ "xi1" ]', f"rank = {rank}"]
    for a in range(1, rank + 1):
        lines.append(f'anchor[{a}][1] = "{rng.choice((1, 2, 3))}"')
    return "\n".join(lines) + "\n"
