"""Bracket, anchor, and axiom-verification tests."""

import random

import pytest

from algebroids import (
    FORM,
    MULTIVECTOR,
    GradedElement,
    anchor_push,
    bracket_sections,
    construct_lie_algebra,
    construct_tangent,
    is_tangent,
    new_algebroid,
    verify_axioms,
)
from algebroids.expr import Expr

from util import (
    broken_jacobi,
    heisenberg,
    random_poly,
    random_section,
    so3,
    verified_fixtures,
)

X1 = Expr.var("x1")
X2 = Expr.var("x2")


def section(algebroid, coeffs):
    return GradedElement(algebroid, MULTIVECTOR, {1: {(a,): v for a, v in coeffs.items()}})


def test_tangent_bracket_example():
    A = construct_tangent(2)
    e1 = GradedElement.basis(A, MULTIVECTOR, (1,))
    s = section(A, {2: X1})
    assert bracket_sections(A, e1, s) == GradedElement.basis(A, MULTIVECTOR, (2,))


def test_so3_bracket_is_cyclic():
    A = so3()
    e = [GradedElement.basis(A, MULTIVECTOR, (a,)) for a in (1, 2, 3)]
    assert bracket_sections(A, e[0], e[1]) == e[2]
    assert bracket_sections(A, e[1], e[2]) == e[0]
    assert bracket_sections(A, e[2], e[0]) == e[1]


def test_heisenberg_center():
    A = heisenberg()
    e1 = GradedElement.basis(A, MULTIVECTOR, (1,))
    e3 = GradedElement.basis(A, MULTIVECTOR, (3,))
    assert bracket_sections(A, e1, e3).is_zero()


def test_bracket_requires_sections():
    A = construct_tangent(2)
    e1 = GradedElement.basis(A, MULTIVECTOR, (1,))
    bad = GradedElement.basis(A, MULTIVECTOR, (1, 2))
    with pytest.raises(ValueError):
        bracket_sections(A, e1, bad)
    with pytest.raises(ValueError):
        bracket_sections(A, GradedElement.scalar(A, MULTIVECTOR, 1), e1)


def test_bracket_antisymmetry_random():
    rng = random.Random(11)
    for _, A in verified_fixtures():
        for _ in range(10):
            v = random_section(rng, A)
            w = random_section(rng, A)
            assert bracket_sections(A, v, w) == -bracket_sections(A, w, v)
            assert bracket_sections(A, v, v).is_zero()


def test_bracket_leibniz_random():
    rng = random.Random(12)
    for _, A in verified_fixtures():
        for _ in range(10):
            v = random_section(rng, A)
            w = random_section(rng, A)
            f = random_poly(rng, A.chart)
            lhs = bracket_sections(A, v, w.scale(f))
            rho_vf = A.apply_anchor_section(
                {a: v.coefficient((a,)) for a in range(1, A.rank + 1)}, f
            )
            rhs = bracket_sections(A, v, w).scale(f) + w.scale(rho_vf)
            assert lhs == rhs


def test_verify_axioms_passes_on_fixtures():
    for name, A in verified_fixtures():
        report = verify_axioms(A)
        assert report.passed, name
        assert A.verified
        assert all(e.is_zero() for row in report.anchor_residuals.values() for e in row)
        assert all(r.is_zero() for r in report.jacobi_residuals.values())


def test_broken_fixture_residual_is_exactly_e2():
    A = broken_jacobi()
    report = verify_axioms(A)
    assert not report.passed
    assert not A.verified
    assert all(e.is_zero() for row in report.anchor_residuals.values() for e in row)
    e2 = GradedElement.basis(A, MULTIVECTOR, (2,))
    assert set(report.jacobi_residuals) == {(1, 2, 3)}
    assert report.jacobi_residuals[(1, 2, 3)] == e2


def test_anchor_condition_failure_detected():
    # anchor maps e_1 -> d/dx1 and e_2 -> d/dx2 but the bracket
    # pretends {e_1, e_2} = e_1, which the coordinate fields contradict.
    A = new_algebroid(("x1", "x2"), 2, anchor=[[1, 0], [0, 1]], structure={(1, 2): {1: 1}})
    report = verify_axioms(A)
    assert not report.passed
    assert not all(e.is_zero() for row in report.anchor_residuals.values() for e in row)


def test_construct_tangent_shape():
    A = construct_tangent(3)
    assert A.chart == ("x1", "x2", "x3")
    assert A.rank == 3
    assert A.verified
    assert is_tangent(A)
    assert A.anchor_entry(2, 2) == Expr.const(1)
    assert A.anchor_entry(2, 1) == Expr.const(0)
    assert A.bracket_table(1, 2) == {}
    B = construct_tangent(2, chart=("u", "v"))
    assert B.chart == ("u", "v")


def test_is_tangent_rejects_nonstandard():
    assert not is_tangent(so3())
    A = new_algebroid(("x1", "x2"), 2, anchor=[[0, 1], [-1, 0]])
    assert not is_tangent(A)
    assert not is_tangent(new_algebroid(("x1",), 2, anchor=[[1], [0]]))


def test_construct_lie_algebra_zero_anchor():
    A = so3()
    assert A.chart == ()
    assert A.anchor == ((),) * 3
    assert A.bracket_table(2, 1) == {3: Expr.const(-1)}
    assert A.bracket_table(1, 1) == {}


def test_construct_lie_algebra_with_base_chart():
    A = construct_lie_algebra(2, base_chart=("t",))
    assert A.chart == ("t",)
    assert A.anchor_entry(1, 1).is_zero()


def test_new_algebroid_validation():
    with pytest.raises(ValueError):
        new_algebroid(("x1",), -1)
    with pytest.raises(ValueError):
        new_algebroid(("x1", "x1"), 1)
    with pytest.raises(ValueError):
        new_algebroid(("x1",), 2, anchor=[[1]])
    with pytest.raises(ValueError):
        new_algebroid(("x1",), 1, anchor=[[1, 0]])
    with pytest.raises(ValueError):
        new_algebroid(("x1",), 2, structure={(2, 1): {1: 1}})
    with pytest.raises(ValueError):
        new_algebroid(("x1",), 2, structure={(1, 1): {1: 1}})
    with pytest.raises(ValueError):
        new_algebroid(("x1",), 2, structure={(1, 2): {3: 1}})
    with pytest.raises(ValueError):
        new_algebroid(("x1",), 1, anchor=[[Expr.var("y")]])


def test_broken_structure_is_constructible():
    # intentionally inconsistent tables must construct fine; only the
    # verifier is allowed to complain.
    A = broken_jacobi()
    assert A.verified is False
    assert A.bracket_table(1, 2) == {1: Expr.const(1)}


def test_anchor_push_tangent_identity():
    rng = random.Random(13)
    A = construct_tangent(3)
    for _ in range(5):
        P = random_section(rng, A) + GradedElement.scalar(A, MULTIVECTOR, random_poly(rng, A.chart))
        pushed = anchor_push(A, P)
        assert pushed.components == P.components


def test_anchor_push_kills_zero_anchor_sections():
    A = so3()
    P = GradedElement.basis(A, MULTIVECTOR, (1, 2))
    pushed = anchor_push(A, P)
    assert pushed.is_zero()
    f = GradedElement.scalar(A, MULTIVECTOR, 5)
    assert anchor_push(A, f).coefficient(()) == Expr.const(5)


def test_anchor_push_matrix_action():
    A = new_algebroid(("x1", "x2"), 2, anchor=[[0, 1], [-1, 0]])
    pushed = anchor_push(A, GradedElement.basis(A, MULTIVECTOR, (1,)))
    assert pushed.coefficient((2,)) == Expr.const(1)
    assert pushed.coefficient((1,)).is_zero()
    top = anchor_push(A, GradedElement.basis(A, MULTIVECTOR, (1, 2)))
    # rows rotate by 90 degrees, so the determinant keeps e_1^e_2 intact
    assert top == GradedElement.basis(pushed.algebroid, MULTIVECTOR, (1, 2))


def test_anchor_push_bracket_homomorphism():
    rng = random.Random(14)
    for _, A in verified_fixtures():
        T = construct_tangent(len(A.chart), chart=A.chart) if A.chart else None
        for _ in range(6):
            v = random_section(rng, A)
            w = random_section(rng, A)
            lhs = anchor_push(A, bracket_sections(A, v, w))
            if T is None:
                assert lhs.is_zero()
                continue
            rhs = bracket_sections(T, anchor_push(A, v), anchor_push(A, w))
            assert lhs == rhs


def test_anchor_push_rejects_forms():
    A = construct_tangent(2)
    with pytest.raises(ValueError):
        anchor_push(A, GradedElement.basis(A, FORM, (1,)))


def test_algebroid_equality_and_shape():
    A = so3()
    B = so3()
    assert A == B
    assert A.same_shape(heisenberg())
    assert not A.same_shape(construct_tangent(2))
    assert A != heisenberg()


def test_structure_tables_are_read_only():
    # exterior_derivative caches tables derived from `structure`, so the
    # structure must not change under it.
    constants = {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}}
    A = construct_lie_algebra(3, constants)
    with pytest.raises(TypeError):
        A.structure[(1, 2)] = {3: Expr.const(2)}
    with pytest.raises(TypeError):
        A.structure[(1, 2)][3] = Expr.const(2)
    constants[(1, 2)][3] = 2
    assert A.bracket_table(1, 2) == {3: Expr.const(1)}
    assert A.structure == so3().structure
