"""The linear Poisson structure on the dual bundle and its characteristic checks."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from algebroids import (
    MULTIVECTOR,
    DualChart,
    DualPoissonStructure,
    GradedElement,
    construct_lie_algebra,
    construct_tangent,
    cotangent_algebroid,
    dual_poisson,
    homogeneity_check,
    new_algebroid,
    phi_function,
    poisson_bracket,
    transpose_anchor_check,
    verify_axioms,
)
from algebroids import calculus as cal_module, poisson as poi_module
from algebroids.expr import Expr

import util
from util import (
    broken_jacobi,
    count_calls,
    heisenberg,
    liouville_homogeneity,
    random_mixed,
    random_poly,
    random_section,
    so3,
    so_n_constants,
    verified_fixtures,
)

ZERO = Expr.const(0)
ONE = Expr.const(1)


def test_dual_of_tangent_is_canonical_cotangent_bundle():
    for n in (1, 2, 3):
        ps = dual_poisson(construct_tangent(n))
        base = tuple(f"x{i}" for i in range(1, n + 1))
        fiber = tuple(f"xi{i}" for i in range(1, n + 1))
        assert ps.dual_chart == DualChart(base, fiber)
        assert ps.chart == base + fiber
        expected = {(i, n + i): -ONE for i in range(1, n + 1)}
        assert ps.bivector.components == {2: expected}
        assert ps.verified
        # {xi_i, x_i} = 1 and all other generator pairs commute
        assert poisson_bracket(ps, Expr.var(f"xi{n}"), Expr.var(f"x{n}")) == ONE
        if n > 1:
            assert poisson_bracket(ps, Expr.var("xi1"), Expr.var("x2")) == ZERO


def test_dual_of_so3_is_linear_poisson():
    ps = dual_poisson(so3())
    xi1, xi2, xi3 = (Expr.var(f"xi{a}") for a in (1, 2, 3))
    assert ps.chart == ("xi1", "xi2", "xi3")
    assert ps.bivector.components == {2: {(1, 2): xi3, (1, 3): -xi2, (2, 3): xi1}}
    assert ps.verified
    assert poisson_bracket(ps, xi1, xi2) == xi3


def test_dual_of_heisenberg():
    ps = dual_poisson(heisenberg())
    assert ps.bivector.components == {2: {(1, 2): Expr.var("xi3")}}
    assert ps.verified


def test_dual_respects_fiber_prefix():
    ps = dual_poisson(construct_tangent(1), fiber_prefix="eta")
    assert ps.dual_chart.fiber == ("eta1",)
    assert poisson_bracket(ps, Expr.var("eta1"), Expr.var("x1")) == ONE


def test_dual_fiber_collision_is_an_error():
    A = new_algebroid(("xi1",), 1, anchor=[[1]])
    with pytest.raises(ValueError, match="collides"):
        dual_poisson(A)
    ps = dual_poisson(A, fiber_prefix="eta")
    assert ps.chart == ("xi1", "eta1")


def test_dual_gate_on_broken_algebroid():
    with pytest.raises(ValueError, match="verify_axioms"):
        dual_poisson(broken_jacobi())
    forced = dual_poisson(broken_jacobi(), force=True)
    assert not forced.verified
    report = forced.verify()
    assert not report.passed
    assert not report.residual.is_zero()


def test_phi_function_values():
    A = construct_tangent(2)
    ps = dual_poisson(A)
    X = GradedElement(A, MULTIVECTOR, {1: {(1,): Expr.var("x1"), (2,): Expr.const(2)}})
    assert phi_function(ps, X) == Expr.var("x1") * Expr.var("xi1") + Expr.const(2) * Expr.var("xi2")


def test_phi_function_validation():
    A = construct_tangent(2)
    ps = dual_poisson(A)
    with pytest.raises(ValueError):
        phi_function(ps, GradedElement.basis(construct_tangent(3), MULTIVECTOR, (1,)))
    with pytest.raises(ValueError):
        phi_function(ps, GradedElement.basis(A, MULTIVECTOR, (1, 2)))
    import algebroids

    plain = algebroids.new_poisson(("x1", "x2"), {(1, 2): 1})
    with pytest.raises(ValueError):
        phi_function(plain, GradedElement.basis(A, MULTIVECTOR, (1,)))


def test_phi_law_random_sections():
    # the defining property: Phi of a bracket is the bracket of the Phis
    rng = random.Random(71)
    for name, A in verified_fixtures():
        ps = dual_poisson(A)
        for _ in range(5):
            X = random_section(rng, A)
            Y = random_section(rng, A)
            from algebroids import bracket_sections

            lhs = poisson_bracket(ps, phi_function(ps, X), phi_function(ps, Y))
            rhs = phi_function(ps, bracket_sections(A, X, Y))
            assert lhs == rhs, name


def test_pullback_bracket_laws_random():
    rng = random.Random(72)
    for _, A in verified_fixtures():
        if not A.chart:
            continue
        ps = dual_poisson(A)
        for _ in range(5):
            X = random_section(rng, A)
            f = random_poly(rng, A.chart)
            g = random_poly(rng, A.chart)
            # base pullbacks commute
            assert poisson_bracket(ps, f, g) == ZERO
            # a section's function brackets a pullback into the anchor derivative
            coeffs = {a: X.coefficient((a,)) for a in range(1, A.rank + 1)}
            lhs = poisson_bracket(ps, phi_function(ps, X), g)
            assert lhs == A.apply_anchor_section(coeffs, g)


def test_homogeneity_residual_vanishes_on_fixtures():
    for name, A in verified_fixtures():
        ps = dual_poisson(A)
        assert homogeneity_check(ps).is_zero(), name


def test_homogeneity_detects_constant_fiber_term():
    ps = dual_poisson(so3())
    table = dict(ps.bivector.components[2])
    table[(1, 2)] = table[(1, 2)] + ONE  # constant junk in a fiber-fiber slot
    corrupted = DualPoissonStructure(
        ps.dual_chart,
        GradedElement(ps.bivector.algebroid, MULTIVECTOR, {2: table}),
    )
    residual = homogeneity_check(corrupted)
    assert residual == GradedElement(
        ps.bivector.algebroid, MULTIVECTOR, {2: {(1, 2): -ONE}}
    )


DUAL_FIXTURES = {name: dual_poisson(A) for name, A in verified_fixtures()}


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    source=st.one_of(st.sampled_from(sorted(DUAL_FIXTURES)), st.tuples(st.integers(0, 2), st.integers(1, 3))),
)
def test_homogeneity_matches_liouville_bracket(seed, source):
    # homogeneity_check counts weights; the oracle brackets with the Liouville
    # field. Random elements over a dual chart are mostly not homogeneous.
    rng = random.Random(seed)
    if isinstance(source, str):
        ps = DUAL_FIXTURES[source]
    else:
        base, fiber = source
        chart = DualChart(tuple(f"x{i}" for i in range(1, base + 1)), tuple(f"xi{a}" for a in range(1, fiber + 1)))
        tangent = construct_tangent(len(chart.names), chart.names)
        if rng.random() < 0.5:
            bivector = random_mixed(rng, tangent, MULTIVECTOR)
        else:
            table = {}
            for i, j in combinations(range(1, base + fiber + 1), 2):
                if rng.random() < 0.8:
                    table[(i, j)] = random_poly(rng, chart.names, rng.randint(0, 3), rng.randint(1, 3))
            bivector = GradedElement(tangent, MULTIVECTOR, {2: table})
        ps = DualPoissonStructure(chart, bivector)
    assert homogeneity_check(ps) == liouville_homogeneity(ps)


def test_dual_work_follows_entries(monkeypatch):
    # Extracting the square with schouten_bracket and re-deriving the generator
    # brackets with poisson_bracket would take 1 schouten_bracket, 2,730
    # interior_product and 105 poisson_bracket calls here; both read the
    # bivector's entries instead.
    A = construct_lie_algebra(15, so_n_constants(6))
    calls = count_calls(monkeypatch, cal_module, "schouten_bracket", "interior_product")
    brackets = count_calls(monkeypatch, poi_module, "poisson_bracket")
    ps = dual_poisson(A)
    assert ps.verified and not calls and not brackets
    assert homogeneity_check(ps).is_zero() and not calls and not brackets


def test_homogeneity_rejects_plain_structures():
    import algebroids

    plain = algebroids.new_poisson(("x1", "x2"), {(1, 2): 1})
    with pytest.raises(ValueError):
        homogeneity_check(plain)


def test_transpose_anchor_residuals_vanish():
    cases = [construct_tangent(1), construct_tangent(2), so3(), heisenberg()]
    cases.append(cotangent_algebroid(util.poisson_r2()))
    cases.append(cotangent_algebroid(util.poisson_so3()))
    for A in cases:
        verify_axioms(A)
        ps = dual_poisson(A)
        residuals = transpose_anchor_check(A, ps)
        assert residuals, "generator pairs expected"
        assert all(r == ZERO for r in residuals)


def test_transpose_anchor_validation():
    A = construct_tangent(2)
    ps = dual_poisson(A)
    with pytest.raises(ValueError, match="does not match"):
        transpose_anchor_check(construct_tangent(3), ps)
    B = new_algebroid(("x1", "x2"), 2, anchor=[[0, 1], [-1, 0]])
    with pytest.raises(ValueError, match="not built from"):
        transpose_anchor_check(B, ps)
    import algebroids

    plain = algebroids.new_poisson(("x1", "x2"), {(1, 2): 1})
    with pytest.raises(ValueError):
        transpose_anchor_check(A, plain)


def _random_family_instance(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return construct_tangent(rng.randint(1, 3))
    if kind == 1:
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        return construct_lie_algebra(
            3, {(1, 2): {3: lam}, (2, 3): {1: lam}, (1, 3): {2: -lam}}
        )
    if kind == 2:
        lam = Fraction(rng.randint(-5, 5) or 1)
        return construct_lie_algebra(3, {(1, 2): {3: lam}})
    c1 = random_poly(rng, ("x1",))
    c2 = random_poly(rng, ("x1",))
    table = {}
    if c1:
        table[1] = c1
    if c2:
        table[2] = c2
    return new_algebroid(("x1",), 2, structure={(1, 2): table} if table else None)


def test_dual_generator_validation_over_random_families():
    rng = random.Random(73)
    for _ in range(20):
        A = _random_family_instance(rng)
        assert verify_axioms(A).passed
        ps = dual_poisson(A)
        assert ps.verified
        assert homogeneity_check(ps).is_zero()
