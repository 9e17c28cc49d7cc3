"""Lie algebroid data model: anchor and structure-function tables over a chart.

An algebroid of rank k over an n-coordinate chart is stored as two tables of
polynomials: anchor components rho[a][i] (the coefficient of d/dx_i in the
image of the basis section e_a) and structure functions C^c_{ab} for a < b
(the e_c-coefficient of the bracket {e_a, e_b}). The a < b storage is the
single source of truth; the antisymmetric extension is derived on access.

The axioms hold exactly when the exterior derivative squares to zero, and
d d vanishes on all forms once it vanishes on the generators x^i and e^c, so
verify_axioms reads both residuals off d d of the n + k generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .expr import ONE, ZERO, Expr, as_expr, validate_chart


class Algebroid:
    """Polynomial Lie algebroid structure data. Tables are immutable."""

    __slots__ = ("chart", "rank", "anchor", "structure", "verified", "_d_generators")

    def __init__(self, chart, rank, anchor, structure):
        self.chart = chart
        self.rank = rank
        self.anchor = anchor  # tuple of k rows, each a tuple of n Expr
        # read-only {(a, b): {c: Expr}} with a < b, values nonzero
        self.structure = MappingProxyType({ab: MappingProxyType(dict(t)) for ab, t in structure.items()})
        self.verified = False
        self._d_generators = None  # exterior_derivative's tables, built on first use

    def __eq__(self, other):
        if not isinstance(other, Algebroid):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.rank == other.rank
            and self.anchor == other.anchor
            and self.structure == other.structure
        )

    def __repr__(self):
        return f"Algebroid(chart={self.chart!r}, rank={self.rank})"

    def same_shape(self, other):
        return self.chart == other.chart and self.rank == other.rank

    def anchor_entry(self, a, i):
        """Component i of the anchor image of basis section a (1-based)."""
        return self.anchor[a - 1][i - 1]

    def bracket_table(self, a, b):
        """{e_a, e_b} as a sparse {c: Expr} table, any a, b."""
        if a == b:
            return {}
        if a < b:
            return self.structure.get((a, b), {})
        return {c: -v for c, v in self.structure.get((b, a), {}).items()}

    def apply_anchor(self, a, f):
        """The derivation rho(e_a) applied to a scalar."""
        total = ZERO
        for i, name in enumerate(self.chart):
            entry = self.anchor[a - 1][i]
            if entry:
                total = total + entry * f.diff(name)
        return total

    def apply_anchor_section(self, coeffs, f):
        """rho(V) f for a section given as a sparse {a: Expr} table."""
        total = ZERO
        for a, fa in coeffs.items():
            if fa:
                total = total + fa * self.apply_anchor(a, f)
        return total


def new_algebroid(chart, rank, anchor=None, structure=None):
    """Build an algebroid from raw tables. Shapes are checked; axioms are not.

    Verification is deliberately separate (verify_axioms): intentionally
    broken structure data is a first-class input for negative tests.
    """
    chart = validate_chart(chart)
    n = len(chart)
    if not isinstance(rank, int) or rank < 0:
        raise ValueError(f"rank must be a nonnegative integer, got {rank!r}")

    if anchor is None:
        rows = tuple(tuple(ZERO for _ in range(n)) for _ in range(rank))
    else:
        anchor = list(anchor)
        if len(anchor) != rank:
            raise ValueError(f"anchor has {len(anchor)} rows, expected {rank}")
        rows = []
        for a, row in enumerate(anchor, start=1):
            row = list(row)
            if len(row) != n:
                raise ValueError(f"anchor row {a} has {len(row)} entries, expected {n}")
            rows.append(tuple(as_expr(v, chart, f"anchor[{a}][{i}]") for i, v in enumerate(row, start=1)))
        rows = tuple(rows)

    table = {}
    if structure:
        for key, entries in structure.items():
            a, b = key
            if not (1 <= a < b <= rank):
                raise ValueError(f"structure index ({a},{b}) is not an increasing pair in 1..{rank}")
            cleaned = {}
            for c, value in entries.items():
                if not (1 <= c <= rank):
                    raise ValueError(f"structure component index {c} out of range 1..{rank}")
                expr = as_expr(value, chart, f"C[{c}][{a}][{b}]")
                if expr:
                    cleaned[c] = expr
            if cleaned:
                table[(a, b)] = cleaned

    return Algebroid(chart, rank, rows, table)


def construct_tangent(n, chart=None):
    """The tangent algebroid of an n-dimensional chart: identity anchor, no
    structure functions. Basis section i is the coordinate field d/dx_i."""
    if chart is None:
        chart = tuple(f"x{i + 1}" for i in range(n))
    else:
        chart = validate_chart(chart)
        if len(chart) != n:
            raise ValueError(f"chart has {len(chart)} coordinates, expected {n}")
    anchor = tuple(
        tuple(ONE if i == a else ZERO for i in range(n)) for a in range(n)
    )
    result = Algebroid(chart, n, anchor, {})
    result.verified = True  # coordinate fields commute; nothing to check
    return result


def construct_lie_algebra(k, constants=None, base_chart=None):
    """A (sheaf of) Lie algebra(s): zero anchor over an optional base chart.

    With an empty base this is a Lie algebra given by structure constants;
    with a base chart the entries may be polynomials in the base coordinates.
    The Jacobi identity is not assumed; run verify_axioms to check it.
    """
    chart = () if base_chart is None else base_chart
    return new_algebroid(chart, k, None, constants)


def is_tangent(algebroid):
    """True when the tables are exactly those of construct_tangent."""
    if algebroid.rank != len(algebroid.chart) or algebroid.structure:
        return False
    for a in range(1, algebroid.rank + 1):
        for i in range(1, algebroid.rank + 1):
            expected = ONE if i == a else ZERO
            if algebroid.anchor_entry(a, i) != expected:
                return False
    return True


@dataclass
class AxiomReport:
    """The nonzero residuals of the two algebroid axioms; passed is true
    exactly when there are none.

    anchor_residuals[(a,b)] lists the n components of
    rho({e_a,e_b}) - [rho(e_a), rho(e_b)]; jacobi_residuals[(a,b,c)] is the
    section {{e_a,e_b},e_c} + {{e_b,e_c},e_a} + {{e_c,e_a},e_b}. Keys whose
    residual vanishes are left out.
    """

    anchor_residuals: dict = field(default_factory=dict)
    jacobi_residuals: dict = field(default_factory=dict)
    passed: bool = True


def _section_coeffs(section):
    """Sparse {a: Expr} coefficients of a pure degree-1 multivector."""
    from . import calculus

    if section.variance != calculus.MULTIVECTOR:
        raise ValueError("sections must be multivectors")
    coeffs = {}
    for degree, table in section.components.items():
        if degree != 1:
            raise ValueError(f"expected a pure degree-1 section, found degree {degree}")
        for index, value in table.items():
            coeffs[index[0]] = value
    return coeffs


def bracket_sections(algebroid, s1, s2):
    """Bracket of two sections, extended from basis brackets by the Leibniz
    rule: {f e_a, g e_b} = f g {e_a,e_b} + f (rho(e_a)g) e_b - g (rho(e_b)f) e_a.
    """
    from . import calculus

    for s in (s1, s2):
        if not algebroid.same_shape(s.algebroid):
            raise ValueError("section does not live over this algebroid's chart/rank")
    f = _section_coeffs(s1)
    g = _section_coeffs(s2)

    out = {}
    for a, fa in f.items():
        for b, gb in g.items():
            for c, cab in algebroid.bracket_table(a, b).items():
                calculus._accumulate(out, 1, (c,), fa * gb * cab)
    for c, gc in g.items():
        for a, fa in f.items():
            calculus._accumulate(out, 1, (c,), fa * algebroid.apply_anchor(a, gc))
    for c, fc in f.items():
        for b, gb in g.items():
            calculus._accumulate(out, 1, (c,), -(gb * algebroid.apply_anchor(b, fc)))
    return calculus.GradedElement(algebroid, calculus.MULTIVECTOR, out)


def anchor_push(algebroid, P):
    """Push a multivector through the anchor onto the tangent algebroid.

    Degree 0 is the identity on scalars; degree 1 is the matrix action of the
    anchor; higher degrees extend wedge-multiplicatively.
    """
    from . import calculus

    if not algebroid.same_shape(P.algebroid):
        raise ValueError("element does not live over this algebroid's chart/rank")
    if P.variance != calculus.MULTIVECTOR:
        raise ValueError("anchor_push applies to multivectors")
    target = construct_tangent(len(algebroid.chart), algebroid.chart)
    return calculus._wedge_push(P, target, algebroid.anchor)


def verify_axioms(algebroid):
    """Check both algebroid axioms as d d = 0 on the generators and report
    the nonzero residuals.

    On a coordinate, (d d x^i)_ab is minus component i of the anchor
    residual on (a, b); on a basis form, (d d e^c)_abc is component c of the
    Jacobi residual on (a, b, c). The e^c have constant coefficients, so an
    anchor defect cannot leak into the Jacobi part.
    """
    from . import calculus

    def dd(coefficient, degree, index):
        element = calculus.GradedElement(algebroid, calculus.FORM, {degree: {index: coefficient}})
        twice = calculus.exterior_derivative(algebroid, calculus.exterior_derivative(algebroid, element))
        return twice.components.get(degree + 2, {}).items()

    n = len(algebroid.chart)
    anchor = {}
    for i, name in enumerate(algebroid.chart):
        for ab, value in dd(Expr.var(name), 0, ()):
            anchor.setdefault(ab, [ZERO] * n)[i] = -value
    jacobi = {}
    for c in range(1, algebroid.rank + 1):
        for abc, value in dd(ONE, 1, (c,)):
            jacobi.setdefault(abc, {})[(c,)] = value

    report = AxiomReport(
        anchor_residuals={ab: tuple(row) for ab, row in anchor.items()},
        jacobi_residuals={
            abc: calculus.GradedElement(algebroid, calculus.MULTIVECTOR, {1: t}) for abc, t in jacobi.items()
        },
        passed=not anchor and not jacobi,
    )
    algebroid.verified = report.passed
    return report
