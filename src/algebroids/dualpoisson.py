"""The linear Poisson structure on the total space of the dual bundle.

The dual of a Lie algebroid carries a Poisson bracket fixed by its values on
chart generators: base coordinates commute, a fiber coordinate brackets a
base coordinate into the matching anchor component, and two fiber
coordinates bracket into the structure-function combination of fibers. The
bivector table here is derived from those conditions and then validated by
comparing every generator bracket, which for two coordinates is the entry
Lambda^{uv}, with its definition, rather than trusted.

The two classical checks live here too: the Liouville-field homogeneity
residual and the Poisson-map property of the transposed anchor into the
cotangent bundle of the base.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algebroid as _alg
from . import calculus as _cal
from . import poisson as _poi
from .expr import ZERO, Expr, validate_name


@dataclass(frozen=True)
class DualChart:
    """Coordinates on the dual bundle: the base chart followed by one fresh
    fiber coordinate per basis section."""

    base: tuple
    fiber: tuple

    @property
    def names(self):
        return self.base + self.fiber


class DualPoissonStructure(_poi.PoissonStructure):
    """PoissonStructure that remembers the base/fiber split of its chart."""

    __slots__ = ("dual_chart",)

    def __init__(self, dual_chart, bivector, verified=False):
        super().__init__(dual_chart.names, bivector, verified)
        self.dual_chart = dual_chart

    def __repr__(self):
        return (
            f"DualPoissonStructure(base={self.dual_chart.base!r}, "
            f"fiber={self.dual_chart.fiber!r}, verified={self.verified})"
        )


def _dual_entries(algebroid, fiber_names):
    """Bivector table fixed by the generator brackets. Stored keys keep i<j:
    the base-fiber entry (i, n+a) is -rho^i_a so that {xi_a, x^i} = rho^i_a."""
    n = len(algebroid.chart)
    entries = {}
    for a in range(1, algebroid.rank + 1):
        for i in range(1, n + 1):
            rho = algebroid.anchor_entry(a, i)
            if rho:
                entries[(i, n + a)] = -rho
    for (a, b), table in algebroid.structure.items():
        total = ZERO
        for c, value in table.items():
            total = total + value * Expr.var(fiber_names[c - 1])
        if total:
            entries[(n + a, n + b)] = total
    return entries


def dual_poisson(algebroid, fiber_prefix="xi", force=False):
    """The Poisson structure on the dual bundle of a verified algebroid.

    Fiber coordinates are named fiber_prefix + section index; a clash with a
    base coordinate is an error rather than a silent rename. With force=True
    the axiom gate is skipped (and the returned structure's verified flag
    simply records the Jacobi check's outcome), so broken inputs can be used
    to demonstrate that the construction genuinely needs the axioms.
    """
    if not force:
        if not algebroid.verified:
            _alg.verify_axioms(algebroid)
        if not algebroid.verified:
            raise ValueError(
                "dual_poisson: the algebroid fails verify_axioms (pass force=True to build anyway)"
            )
    fiber = tuple(f"{fiber_prefix}{a}" for a in range(1, algebroid.rank + 1))
    for name in fiber:
        validate_name(name)
    clash = set(fiber) & set(algebroid.chart)
    if clash:
        raise ValueError(f"dual_poisson: fiber name '{sorted(clash)[0]}' collides with a base coordinate")

    chart = DualChart(algebroid.chart, fiber)
    n = len(algebroid.chart)
    total_dim = n + algebroid.rank
    tangent = _alg.construct_tangent(total_dim, chart.names)
    entries = _dual_entries(algebroid, fiber)
    bivector = _cal.GradedElement(tangent, _cal.MULTIVECTOR, {2: entries} if entries else {})
    ps = DualPoissonStructure(chart, bivector, verified=False)

    # The table above is derived, not normative: re-check every generator
    # bracket against the definition. The bracket of coordinates u, v is Lambda^{uv}.
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if ps.entry(i, j):
                raise RuntimeError("dual_poisson: base coordinates fail to commute")
    for a in range(1, algebroid.rank + 1):
        for i in range(1, n + 1):
            if ps.entry(n + a, i) != algebroid.anchor_entry(a, i):
                raise RuntimeError("dual_poisson: fiber-base generator bracket disagrees with the anchor")
    fiber_exprs = [Expr.var(name) for name in fiber]
    for a in range(1, algebroid.rank + 1):
        for b in range(a + 1, algebroid.rank + 1):
            expected = ZERO
            for c, value in algebroid.bracket_table(a, b).items():
                expected = expected + value * fiber_exprs[c - 1]
            if ps.entry(n + a, n + b) != expected:
                raise RuntimeError("dual_poisson: fiber-fiber generator bracket disagrees with the structure table")

    report = ps.verify()
    if not force and not report.passed:
        raise RuntimeError("dual_poisson: Jacobi check failed for a verified algebroid")
    return ps


def phi_function(ps, section):
    """The fiberwise-linear function of a section: sum_a X^a(x) xi_a."""
    if not isinstance(ps, DualPoissonStructure):
        raise ValueError("phi_function: expected a dual-bundle Poisson structure")
    src = section.algebroid
    if src.chart != ps.dual_chart.base or src.rank != len(ps.dual_chart.fiber):
        raise ValueError("phi_function: section does not live over this structure's base algebroid")
    coeffs = _alg._section_coeffs(section)
    total = ZERO
    for a, value in coeffs.items():
        total = total + value * Expr.var(ps.dual_chart.fiber[a - 1])
    return total


def homogeneity_check(ps):
    """Residual of fiberwise linearity: [Z, Lambda] + Lambda for the
    fiber-scaling field Z = sum_a xi_a d/dxi_a. Zero iff the bivector is
    homogeneous of the right weight. A weight count, with no bracket: since
    [Z, d/dxi_a] = -d/dxi_a, it multiplies each monomial m of the coefficient
    on e_I by deg_xi(m) + 1 - sum_{t in I} w_t (w_t = 1 on fiber slots, else 0).
    """
    if not isinstance(ps, DualPoissonStructure):
        raise ValueError("homogeneity_check: expected a dual-bundle Poisson structure")
    n = len(ps.dual_chart.base)
    fiber = set(ps.dual_chart.fiber)
    out = {}
    for degree, table in ps.bivector.components.items():
        for index, value in table.items():
            shift = 1 - sum(t > n for t in index)
            out.setdefault(degree, {})[index] = Expr(
                {m: c * (sum(e for name, e in m if name in fiber) + shift) for m, c in value.items()}
            )
    return _cal.GradedElement(ps.bivector.algebroid, _cal.MULTIVECTOR, out)


def transpose_anchor_check(algebroid, ps):
    """Poisson-map residuals for the transposed anchor into the cotangent
    bundle of the base.

    The substitution sends each fiber coordinate xi_a to
    sum_i rho^i_a(x) zeta_i, where the zeta are the fiber coordinates of the
    cotangent bundle of the base chart. Returns the residuals
    {t(h1), t(h2)}_{T*} - t({h1, h2}_{dual}) over all generator pairs, in
    chart order.
    """
    if not isinstance(ps, DualPoissonStructure):
        raise ValueError("transpose_anchor_check: expected a dual-bundle Poisson structure")
    if ps.dual_chart.base != algebroid.chart or len(ps.dual_chart.fiber) != algebroid.rank:
        raise ValueError("transpose_anchor_check: the structure's chart does not match the algebroid")
    if _dual_entries(algebroid, ps.dual_chart.fiber) != ps.bivector.components.get(2, {}):
        raise ValueError("transpose_anchor_check: the structure's bivector was not built from this algebroid")

    n = len(algebroid.chart)
    base_tangent = _alg.construct_tangent(n, algebroid.chart)
    cotangent_ps = dual_poisson(base_tangent, fiber_prefix="zeta")
    zeta = [Expr.var(name) for name in cotangent_ps.dual_chart.fiber]

    mapping = {}
    for a, name in enumerate(ps.dual_chart.fiber, start=1):
        image = ZERO
        for i in range(1, n + 1):
            rho = algebroid.anchor_entry(a, i)
            if rho:
                image = image + rho * zeta[i - 1]
        mapping[name] = image

    generators = [Expr.var(name) for name in ps.chart]
    residuals = []
    for u in range(len(generators)):
        for v in range(u + 1, len(generators)):
            lhs = _poi.poisson_bracket(
                cotangent_ps, generators[u].subs(mapping), generators[v].subs(mapping)
            )
            rhs = _poi.poisson_bracket(ps, generators[u], generators[v]).subs(mapping)
            residuals.append(lhs - rhs)
    return residuals
