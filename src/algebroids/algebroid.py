"""Lie algebroid data model: anchor and structure-function tables over a chart.

An algebroid of rank k over an n-coordinate chart is stored as two tables of
polynomials: anchor components rho[a][i] (the coefficient of d/dx_i in the
image of the basis section e_a) and structure functions C^c_{ab} for a < b
(the e_c-coefficient of the bracket {e_a, e_b}). The a < b storage is the
single source of truth; the antisymmetric extension is derived on access.

Axioms are verified on basis sections only: bilinearity plus the Leibniz rule
make that sufficient, and it keeps the check finite and exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from types import MappingProxyType

from .expr import ONE, ZERO, as_expr, validate_chart


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
    """Residuals of the two algebroid axioms, all of which must vanish.

    anchor_residuals[(a,b)] lists the n components of
    rho({e_a,e_b}) - [rho(e_a), rho(e_b)]; jacobi_residuals[(a,b,c)] is the
    section {{e_a,e_b},e_c} + {{e_b,e_c},e_a} + {{e_c,e_a},e_b}.
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

    def add(c, value):
        if not value:
            return
        acc = out.get(c, ZERO) + value
        if acc:
            out[c] = acc
        else:
            del out[c]

    for a, fa in f.items():
        for b, gb in g.items():
            for c, cab in algebroid.bracket_table(a, b).items():
                add(c, fa * gb * cab)
    for c, gc in g.items():
        for a, fa in f.items():
            add(c, fa * algebroid.apply_anchor(a, gc))
    for c, fc in f.items():
        for b, gb in g.items():
            add(c, -(gb * algebroid.apply_anchor(b, fc)))

    return calculus.GradedElement(
        algebroid, calculus.MULTIVECTOR, {1: {(c,): v for c, v in out.items()}}
    )


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
    """Check both algebroid axioms on basis sections and report residuals.

    The anchor condition is checked componentwise: both sides are derivations,
    so it is enough to compare their values on each coordinate function.
    """
    from . import calculus

    k = algebroid.rank
    chart = algebroid.chart
    n = len(chart)
    report = AxiomReport()

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
        report.anchor_residuals[(a, b)] = tuple(residual)
        if any(residual):
            report.passed = False

    basis = [
        calculus.GradedElement(algebroid, calculus.MULTIVECTOR, {1: {(a,): ONE}})
        for a in range(1, k + 1)
    ]
    for a, b, c in combinations(range(1, k + 1), 3):
        ea, eb, ec = basis[a - 1], basis[b - 1], basis[c - 1]
        total = bracket_sections(algebroid, bracket_sections(algebroid, ea, eb), ec)
        total = total + bracket_sections(algebroid, bracket_sections(algebroid, eb, ec), ea)
        total = total + bracket_sections(algebroid, bracket_sections(algebroid, ec, ea), eb)
        report.jacobi_residuals[(a, b, c)] = total
        if not total.is_zero():
            report.passed = False

    algebroid.verified = report.passed
    return report
