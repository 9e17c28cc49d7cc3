"""Poisson structures on a chart and the induced cotangent-side calculus.

A Poisson structure is a bivector over the chart's tangent algebroid whose
Schouten square vanishes. From a verified structure we build the cotangent
algebroid (anchor = the bivector matrix, structure functions = its partial
derivatives), and through it the Koszul bracket of forms; the Lichnerowicz
differential is bracketing with the bivector.

Construction does not verify. PoissonStructure carries a `verified` flag set
by is_poisson (or .verify()), and the operations that require a genuine
Poisson bivector refuse unverified inputs unless forced; forcing exists so
negative fixtures can demonstrate exactly how the constructions fail.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algebroid as _alg
from . import calculus as _cal
from .expr import ZERO, as_expr, validate_chart


class PoissonStructure:
    """A bivector over construct_tangent(chart) plus a verification flag."""

    __slots__ = ("chart", "bivector", "verified")

    def __init__(self, chart, bivector, verified=False):
        self.chart = chart
        self.bivector = bivector
        self.verified = verified

    def tangent(self):
        return self.bivector.algebroid

    def entry(self, i, j):
        """Coefficient of the i<j storage with the antisymmetric extension."""
        if i == j:
            return ZERO
        if i < j:
            return self.bivector.coefficient((i, j))
        return -self.bivector.coefficient((j, i))

    def verify(self):
        return is_poisson(self)

    def __eq__(self, other):
        if not isinstance(other, PoissonStructure):
            return NotImplemented
        return self.chart == other.chart and self.bivector == other.bivector

    def __repr__(self):
        return f"PoissonStructure(chart={self.chart!r}, verified={self.verified})"


@dataclass
class PoissonReport:
    """Result of the Jacobi check: the multivector [Lambda, Lambda] and
    whether it vanished."""

    residual: object
    passed: bool


def new_poisson(chart, entries=None, verify=True):
    """Build a PoissonStructure from {(i, j): Expr} entries with i < j.

    With verify=True (the default) the Jacobi check runs immediately and the
    flag records its outcome; nothing raises on failure, so broken bivectors
    can still be constructed and inspected.
    """
    chart = validate_chart(chart)
    n = len(chart)
    tangent = _alg.construct_tangent(n, chart)
    table = {}
    if entries:
        for key, value in entries.items():
            i, j = key
            if not (1 <= i < j <= n):
                raise ValueError(f"bivector index ({i},{j}) is not an increasing pair in 1..{n}")
            table[(i, j)] = value
    bivector = _cal.GradedElement(tangent, _cal.MULTIVECTOR, {2: table} if table else {})
    ps = PoissonStructure(chart, bivector, verified=False)
    if verify:
        ps.verify()
    return ps


def _bivector_of(value):
    if isinstance(value, PoissonStructure):
        return value, value.bivector
    return None, value


def is_poisson(value):
    """Jacobi check: the residual is the Schouten square of the bivector,
    [Lambda, Lambda]^{abc} = -2 sum_cyc sum_l Lambda^{la} d_l Lambda^{bc}
    (twice the Jacobiator of the coordinate brackets), equal to
    schouten_bracket(tangent, Lambda, Lambda). It is scattered from the
    nonzero entries: each -2 d_l Lambda^{bc} (b < c) meets row l's entries
    Lambda^{la}, a not in {b, c}, and lands on the sorted triple with the sign
    of (a, b, c) -> sorted, negative exactly when b < a < c.

    Accepts a pure degree-2 multivector over a tangent algebroid, or a
    PoissonStructure (whose verified flag is then updated).
    """
    ps, lam = _bivector_of(value)
    if lam.variance != _cal.MULTIVECTOR:
        raise ValueError("is_poisson: the bivector must be a multivector")
    if not lam.is_homogeneous(2):
        raise ValueError(f"is_poisson: expected pure degree 2, found degrees {lam.degrees()}")
    if not _alg.is_tangent(lam.algebroid):
        raise ValueError("is_poisson: the bivector must live over a tangent algebroid")
    table = lam.components.get(2, {})
    rows = {}
    for (i, j), entry in table.items():
        rows.setdefault(i, {})[j] = entry
        rows.setdefault(j, {})[i] = -entry
    out = {}
    for (b, c), entry in table.items():
        names = entry.variables()
        for l, name in enumerate(lam.algebroid.chart, start=1):
            if l in rows and name in names:
                derivative = entry.diff(name) * -2
                for a, row_entry in rows[l].items():
                    if a not in (b, c):
                        term = row_entry * derivative
                        _cal._accumulate(out, 3, tuple(sorted((a, b, c))), -term if b < a < c else term)
    residual = _cal.GradedElement(lam.algebroid, _cal.MULTIVECTOR, out)
    report = PoissonReport(residual=residual, passed=residual.is_zero())
    if ps is not None:
        ps.verified = report.passed
    return report


def poisson_bracket(ps, f, g):
    """{f, g} = sum over i<j of Lambda^{ij} (d_i f d_j g - d_j f d_i g)."""
    f = as_expr(f, ps.chart, "poisson_bracket: first argument")
    g = as_expr(g, ps.chart, "poisson_bracket: second argument")
    total = ZERO
    for (i, j), lam in ps.bivector.components.get(2, {}).items():
        ni, nj = ps.chart[i - 1], ps.chart[j - 1]
        term = f.diff(ni) * g.diff(nj) - f.diff(nj) * g.diff(ni)
        if term:
            total = total + lam * term
    return total


def _require_gate(ps, force, what):
    if not ps.verified and not force:
        raise ValueError(f"{what}: the Poisson structure is not verified (run is_poisson, or pass force=True)")


def sharp(ps, eta):
    """The bivector's musical map on forms over the tangent algebroid:
    identity on scalars, alpha ↦ (sum_i alpha_i Lambda^{ij})_j on 1-forms,
    and wedge-multiplicative on higher degrees."""
    _cal._require_variance(eta, _cal.FORM, "sharp")
    if not ps.bivector.algebroid.same_shape(eta.algebroid):
        raise ValueError("sharp: the form does not live over this chart's tangent algebroid")
    return _cal._wedge_push(eta, ps.bivector.algebroid, _matrix(ps))


def _matrix(ps):
    """The full antisymmetric bivector matrix, rows indexed by i."""
    n = len(ps.chart)
    return [[ps.entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]


def cotangent_algebroid(ps, force=False):
    """The Lie algebroid on the cotangent side: basis section i is the
    coordinate differential dx^i, the anchor row is Lambda^{i.}, and the
    structure functions are the coordinate partials of the bivector."""
    _require_gate(ps, force, "cotangent_algebroid")
    structure = {}
    for (i, j), lam in ps.bivector.components.get(2, {}).items():
        entries = {}
        for k, name in enumerate(ps.chart, start=1):
            d = lam.diff(name)
            if d:
                entries[k] = d
        if entries:
            structure[(i, j)] = entries
    return _alg.new_algebroid(ps.chart, len(ps.chart), _matrix(ps), structure)


def koszul_bracket(ps, eta, zeta, force=False):
    """Bracket of forms: the Schouten bracket taken inside the cotangent
    algebroid, with a form's coefficient table reread as a multivector's."""
    _require_gate(ps, force, "koszul_bracket")
    cotangent = cotangent_algebroid(ps, force=True)
    converted = []
    for arg in (eta, zeta):
        _cal._require_variance(arg, _cal.FORM, "koszul_bracket")
        if not cotangent.same_shape(arg.algebroid):
            raise ValueError("koszul_bracket: form does not live over this chart")
        converted.append(
            _cal.GradedElement(
                cotangent, _cal.MULTIVECTOR, {d: dict(t) for d, t in arg.components.items()}
            )
        )
    result = _cal.schouten_bracket(cotangent, converted[0], converted[1])
    return _cal.GradedElement(
        ps.bivector.algebroid, _cal.FORM, {d: dict(t) for d, t in result.components.items()}
    )


def lichnerowicz_differential(ps, P, force=False):
    """delta(P) = [Lambda, P]; raises degree by one and squares to zero for a
    verified structure."""
    _require_gate(ps, force, "lichnerowicz_differential")
    _cal._require_variance(P, _cal.MULTIVECTOR, "lichnerowicz_differential")
    tangent = ps.bivector.algebroid
    if not tangent.same_shape(P.algebroid):
        raise ValueError("lichnerowicz_differential: multivector does not live over this chart")
    return _cal.schouten_bracket(tangent, ps.bivector, P)
