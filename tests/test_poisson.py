"""Poisson bivectors, the sharp map, and the cotangent-side calculus."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from algebroids import (
    FORM,
    MULTIVECTOR,
    GradedElement,
    cotangent_algebroid,
    dual_poisson,
    exterior_derivative,
    is_poisson,
    koszul_bracket,
    lichnerowicz_differential,
    new_poisson,
    pairing,
    poisson_bracket,
    schouten_bracket,
    sharp,
    verify_axioms,
    wedge,
)
from algebroids.expr import Expr

import util
from util import (
    poisson_broken,
    poisson_fixtures,
    random_form,
    random_mixed,
    random_multivector,
    random_poly,
    random_section,
)

X1, X2, X3 = Expr.var("x1"), Expr.var("x2"), Expr.var("x3")
ZERO = Expr.const(0)
ONE = Expr.const(1)


def dform(tangent, f):
    return exterior_derivative(tangent, GradedElement.scalar(tangent, FORM, f))


# ------------------------------------------------------------- construction


def test_new_poisson_fixture_flags():
    for name, ps in poisson_fixtures():
        assert ps.verified, name
    assert not poisson_broken().verified


def test_new_poisson_skip_verify_flag():
    ps = new_poisson(("x1", "x2"), {(1, 2): 1}, verify=False)
    assert not ps.verified
    report = ps.verify()
    assert report.passed
    assert ps.verified


def test_new_poisson_validation():
    with pytest.raises(ValueError):
        new_poisson(("x1", "x2"), {(2, 1): 1})
    with pytest.raises(ValueError):
        new_poisson(("x1", "x2"), {(1, 1): 1})
    with pytest.raises(ValueError):
        new_poisson(("x1", "x2"), {(0, 1): 1})
    with pytest.raises(ValueError):
        new_poisson(("x1", "x2"), {(1, 2): Expr.var("q")})


def test_entry_antisymmetric_access():
    ps = util.poisson_r2()
    assert ps.entry(1, 2) == ONE
    assert ps.entry(2, 1) == -ONE
    assert ps.entry(1, 1) == ZERO


def test_is_poisson_residuals():
    report = is_poisson(util.poisson_r2())
    assert report.passed and report.residual.is_zero()
    report = is_poisson(util.poisson_r3_linear())
    assert report.passed

    bad = poisson_broken()
    report = is_poisson(bad)
    assert not report.passed
    expected = GradedElement(bad.tangent(), MULTIVECTOR, {3: {(1, 2, 3): Expr.const(2)}})
    assert report.residual == expected
    assert not bad.verified


def test_is_poisson_accepts_bare_bivector():
    ps = util.poisson_so3()
    report = is_poisson(ps.bivector)
    assert report.passed


def test_is_poisson_input_validation():
    ps = util.poisson_r2()
    T = ps.tangent()
    with pytest.raises(ValueError):
        is_poisson(GradedElement.basis(T, FORM, (1,)))
    with pytest.raises(ValueError):
        is_poisson(GradedElement.basis(T, MULTIVECTOR, (1,)))
    with pytest.raises(ValueError):
        is_poisson(GradedElement.basis(util.so3(), MULTIVECTOR, (1, 2)))


SQUARE_FIXTURES = {
    **dict(poisson_fixtures()),
    "broken": poisson_broken(),
    "dual-so3": dual_poisson(util.so3(), force=True),
    "dual-heisenberg": dual_poisson(util.heisenberg(), force=True),
    "dual-broken-jacobi": dual_poisson(util.broken_jacobi(), force=True),
}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), fixture=st.one_of(st.none(), st.sampled_from(sorted(SQUARE_FIXTURES))))
def test_is_poisson_matches_schouten_square(seed, fixture):
    # is_poisson scatters the square over the entries; schouten_bracket probes
    # every basis 3-form. Random bivectors on R^3..R^5 are mostly not Poisson.
    rng = random.Random(seed)
    if fixture is not None:
        ps = SQUARE_FIXTURES[fixture]
    else:
        chart = tuple(f"x{i}" for i in range(1, rng.randint(1, 5) + 1))
        table = {}
        for i, j in combinations(range(1, len(chart) + 1), 2):
            if rng.random() < 0.8:
                table[(i, j)] = random_poly(rng, chart, rng.randint(1, 3), rng.randint(1, 3))
        ps = new_poisson(chart, table, verify=False)
    expected = schouten_bracket(ps.tangent(), ps.bivector, ps.bivector)
    report = is_poisson(ps)
    assert report.residual == expected
    assert report.passed == ps.verified == expected.is_zero()


# ------------------------------------------------------------------ bracket


def test_poisson_bracket_symplectic_plane():
    ps = util.poisson_r2()
    assert poisson_bracket(ps, X1, X2) == ONE
    assert poisson_bracket(ps, X2, X1) == -ONE
    assert poisson_bracket(ps, X1, X1) == ZERO


def test_poisson_bracket_linear_so3_chart():
    xi1, xi2, xi3 = Expr.var("xi1"), Expr.var("xi2"), Expr.var("xi3")
    ps = new_poisson(
        ("xi1", "xi2", "xi3"), {(1, 2): xi3, (1, 3): -xi2, (2, 3): xi1}
    )
    assert ps.verified
    assert poisson_bracket(ps, xi1, xi2) == xi3
    assert poisson_bracket(ps, xi2, xi3) == xi1
    assert poisson_bracket(ps, xi3, xi1) == xi2


def test_poisson_bracket_leibniz_random():
    rng = random.Random(51)
    for _, ps in poisson_fixtures():
        for _ in range(6):
            f = random_poly(rng, ps.chart)
            g = random_poly(rng, ps.chart)
            h = random_poly(rng, ps.chart)
            assert poisson_bracket(ps, f, g * h) == (
                poisson_bracket(ps, f, g) * h + g * poisson_bracket(ps, f, h)
            )
            assert poisson_bracket(ps, f, g) == -poisson_bracket(ps, g, f)


def test_poisson_bracket_jacobi_defect():
    ps = poisson_broken()
    cyc = poisson_bracket(ps, poisson_bracket(ps, X1, X2), X3)
    cyc = cyc + poisson_bracket(ps, poisson_bracket(ps, X2, X3), X1)
    cyc = cyc + poisson_bracket(ps, poisson_bracket(ps, X3, X1), X2)
    assert cyc == Expr.const(-1)


def test_poisson_bracket_rejects_foreign_scalars():
    ps = util.poisson_r2()
    with pytest.raises(ValueError):
        poisson_bracket(ps, Expr.var("q"), X1)


# -------------------------------------------------------------------- sharp


def test_sharp_examples():
    ps = util.poisson_r2()
    T = ps.tangent()
    dx1 = GradedElement.basis(T, FORM, (1,))
    dx2 = GradedElement.basis(T, FORM, (2,))
    assert sharp(ps, dx1) == GradedElement.basis(T, MULTIVECTOR, (2,))
    assert sharp(ps, dx2) == -GradedElement.basis(T, MULTIVECTOR, (1,))
    one = GradedElement.scalar(T, FORM, ONE)
    assert sharp(ps, one) == GradedElement.scalar(T, MULTIVECTOR, ONE)
    assert sharp(ps, wedge(dx1, dx2)) == GradedElement.basis(T, MULTIVECTOR, (1, 2))


def test_sharp_defining_pairing():
    # <beta, sharp(alpha)> recovers the bivector evaluated on (alpha, beta)
    rng = random.Random(52)
    for _, ps in poisson_fixtures():
        T = ps.tangent()
        for _ in range(5):
            alpha = random_form(rng, T, 1)
            beta = random_form(rng, T, 1)
            lhs = pairing(beta, sharp(ps, alpha))
            rhs = pairing(wedge(alpha, beta), ps.bivector)
            assert lhs == rhs


def test_sharp_wedge_homomorphism_random():
    rng = random.Random(53)
    for _, ps in poisson_fixtures():
        T = ps.tangent()
        for _ in range(5):
            eta = random_mixed(rng, T, FORM, max_degree=2)
            zeta = random_mixed(rng, T, FORM, max_degree=2)
            assert sharp(ps, wedge(eta, zeta)) == wedge(sharp(ps, eta), sharp(ps, zeta))


def test_sharp_ungated_on_unverified():
    ps = poisson_broken()
    T = ps.tangent()
    out = sharp(ps, GradedElement.basis(T, FORM, (3,)))
    assert out == GradedElement(T, MULTIVECTOR, {1: {(1,): -X1}})


# ---------------------------------------------------------------- cotangent


def test_cotangent_symplectic_plane_tables():
    A = cotangent_algebroid(util.poisson_r2())
    assert A.chart == ("x1", "x2")
    assert A.rank == 2
    assert A.anchor == ((ZERO, ONE), (-ONE, ZERO))
    assert A.structure == {}
    assert verify_axioms(A).passed


def test_cotangent_linear_so3_tables():
    A = cotangent_algebroid(util.poisson_so3())
    assert A.anchor[0] == (ZERO, X3, -X2)
    assert A.anchor[1] == (-X3, ZERO, X1)
    assert A.anchor[2] == (X2, -X1, ZERO)
    assert A.bracket_table(1, 2) == {3: ONE}
    assert A.bracket_table(1, 3) == {2: -ONE}
    assert A.bracket_table(2, 3) == {1: ONE}
    assert verify_axioms(A).passed


def test_cotangent_verifies_iff_poisson():
    for _, ps in poisson_fixtures():
        assert verify_axioms(cotangent_algebroid(ps)).passed
    bad = cotangent_algebroid(poisson_broken(), force=True)
    assert not verify_axioms(bad).passed


def test_cotangent_gate():
    with pytest.raises(ValueError, match="not verified"):
        cotangent_algebroid(poisson_broken())
    unchecked = new_poisson(("x1", "x2"), {(1, 2): 1}, verify=False)
    with pytest.raises(ValueError, match="not verified"):
        cotangent_algebroid(unchecked)
    unchecked.verify()
    assert cotangent_algebroid(unchecked).rank == 2


# ------------------------------------------------------------------- koszul


def test_koszul_differentials_commute_with_bracket():
    # [df, dg] = d{f, g}
    rng = random.Random(54)
    for _, ps in poisson_fixtures():
        T = ps.tangent()
        for _ in range(5):
            f = random_poly(rng, ps.chart)
            g = random_poly(rng, ps.chart)
            lhs = koszul_bracket(ps, dform(T, f), dform(T, g))
            rhs = dform(T, poisson_bracket(ps, f, g))
            assert lhs == rhs


def test_koszul_symplectic_plane_values():
    ps = util.poisson_r2()
    T = ps.tangent()
    dx1 = GradedElement.basis(T, FORM, (1,))
    dx2 = GradedElement.basis(T, FORM, (2,))
    assert koszul_bracket(ps, dx1, dx2).is_zero()
    assert koszul_bracket(ps, dx1, dx1).is_zero()


def test_koszul_linear_so3_values():
    ps = util.poisson_so3()
    T = ps.tangent()
    dx1 = GradedElement.basis(T, FORM, (1,))
    dx2 = GradedElement.basis(T, FORM, (2,))
    assert koszul_bracket(ps, dx1, dx2) == GradedElement.basis(T, FORM, (3,))


def test_koszul_function_linearity_rule():
    # [df, g dh] = g [df, dh] + {f, g} dh
    rng = random.Random(55)
    for _, ps in poisson_fixtures():
        T = ps.tangent()
        for _ in range(4):
            f = random_poly(rng, ps.chart)
            g = random_poly(rng, ps.chart)
            h = random_poly(rng, ps.chart)
            lhs = koszul_bracket(ps, dform(T, f), dform(T, h).scale(g))
            rhs = koszul_bracket(ps, dform(T, f), dform(T, h)).scale(g) + dform(
                T, h
            ).scale(poisson_bracket(ps, f, g))
            assert lhs == rhs


def test_koszul_gate():
    ps = poisson_broken()
    T = ps.tangent()
    dx1 = GradedElement.basis(T, FORM, (1,))
    with pytest.raises(ValueError, match="not verified"):
        koszul_bracket(ps, dx1, dx1)
    assert koszul_bracket(ps, dx1, dx1, force=True).is_zero()


def test_cotangent_bracket_formula_consistency():
    # the pairing of [eta, zeta] against a field X expands into Lie
    # derivatives of the paired scalars minus the bracket of X paired
    # against eta wedge zeta
    rng = random.Random(56)
    for _, ps in poisson_fixtures():
        T = ps.tangent()
        Lam = ps.bivector
        for _ in range(5):
            eta = random_form(rng, T, 1)
            zeta = random_form(rng, T, 1)
            X = random_section(rng, T)
            lhs = pairing(koszul_bracket(ps, eta, zeta), X)
            t1 = pairing(
                eta,
                schouten_bracket(
                    T, Lam, GradedElement.scalar(T, MULTIVECTOR, pairing(zeta, X))
                ),
            )
            t2 = pairing(
                zeta,
                schouten_bracket(
                    T, Lam, GradedElement.scalar(T, MULTIVECTOR, pairing(eta, X))
                ),
            )
            t3 = pairing(wedge(eta, zeta), schouten_bracket(T, Lam, X))
            assert lhs == t1 - t2 - t3


# ------------------------------------------------------------- lichnerowicz


def test_lichnerowicz_kills_its_own_bivector():
    for _, ps in poisson_fixtures():
        assert lichnerowicz_differential(ps, ps.bivector).is_zero()


def test_lichnerowicz_on_scalars_is_minus_sharp_d():
    rng = random.Random(57)
    for _, ps in poisson_fixtures():
        T = ps.tangent()
        for _ in range(5):
            f = random_poly(rng, ps.chart)
            lhs = lichnerowicz_differential(ps, GradedElement.scalar(T, MULTIVECTOR, f))
            rhs = -sharp(ps, dform(T, f))
            assert lhs == rhs


def test_lichnerowicz_symplectic_plane_value():
    ps = util.poisson_r2()
    T = ps.tangent()
    out = lichnerowicz_differential(ps, GradedElement.scalar(T, MULTIVECTOR, X1))
    assert out == -GradedElement.basis(T, MULTIVECTOR, (2,))


def test_lichnerowicz_squares_to_zero_random():
    rng = random.Random(58)
    for _, ps in poisson_fixtures():
        T = ps.tangent()
        for degree in range(0, T.rank + 1):
            P = random_multivector(rng, T, degree)
            out = lichnerowicz_differential(ps, lichnerowicz_differential(ps, P))
            assert out.is_zero()


def test_sharp_antihomomorphism_random():
    # sharp(d eta) = -delta(sharp eta)
    rng = random.Random(59)
    for _, ps in poisson_fixtures():
        T = ps.tangent()
        for degree in range(0, min(2, T.rank) + 1):
            eta = random_form(rng, T, degree)
            lhs = sharp(ps, exterior_derivative(T, eta))
            rhs = -lichnerowicz_differential(ps, sharp(ps, eta))
            assert lhs == rhs


def test_sharp_is_graded_lie_homomorphism_random():
    rng = random.Random(60)
    for _, ps in poisson_fixtures():
        T = ps.tangent()
        for _ in range(4):
            eta = random_mixed(rng, T, FORM, max_degree=2)
            zeta = random_mixed(rng, T, FORM, max_degree=2)
            lhs = sharp(ps, koszul_bracket(ps, eta, zeta))
            rhs = schouten_bracket(T, sharp(ps, eta), sharp(ps, zeta))
            assert lhs == rhs


def test_bialgebroid_compatibility_random():
    # delta is a degree-1 derivation of the Schouten bracket
    rng = random.Random(61)
    for _, ps in poisson_fixtures():
        T = ps.tangent()
        for _ in range(3):
            p = rng.randint(0, 2)
            q = rng.randint(0, 2)
            P = random_multivector(rng, T, p)
            Q = random_multivector(rng, T, q)
            lhs = lichnerowicz_differential(ps, schouten_bracket(T, P, Q))
            head = schouten_bracket(T, lichnerowicz_differential(ps, P), Q)
            tail = schouten_bracket(T, P, lichnerowicz_differential(ps, Q))
            if (p - 1) & 1:
                tail = -tail
            assert lhs == head + tail


def test_lichnerowicz_gate_and_mismatch():
    ps = poisson_broken()
    T = ps.tangent()
    with pytest.raises(ValueError, match="not verified"):
        lichnerowicz_differential(ps, GradedElement.scalar(T, MULTIVECTOR, X1))
    out = lichnerowicz_differential(ps, GradedElement.scalar(T, MULTIVECTOR, X1), force=True)
    assert out == -sharp(ps, dform(T, X1))
    good = util.poisson_r2()
    with pytest.raises(ValueError):
        lichnerowicz_differential(good, GradedElement.scalar(T, MULTIVECTOR, X1))
    with pytest.raises(ValueError):
        lichnerowicz_differential(good, GradedElement.basis(good.tangent(), FORM, (1,)))
