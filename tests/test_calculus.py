"""Graded elements, the exterior package, and the Schouten bracket."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from algebroids import (
    FORM,
    MULTIVECTOR,
    Algebroid,
    GradedElement,
    OperatorValue,
    ReconstructionError,
    bracket_sections,
    construct_lie_algebra,
    construct_tangent,
    delta_reconstruct,
    exterior_derivative,
    interior_product,
    lie_derivative_form,
    lie_derivative_multivector,
    lie_operator,
    new_algebroid,
    pairing,
    schouten_bracket,
    schouten_oracle,
    verify_axioms,
    wedge,
    anchor_push,
)
from algebroids import algebroid as alg_module, calculus as cal_module
from algebroids.expr import Expr

from util import (
    broken_jacobi,
    d_operator,
    derived_bracket_structure,
    dense_axioms,
    dense_d,
    dense_lie_form,
    dense_lie_multivector,
    random_form,
    random_mixed,
    random_multivector,
    random_poly,
    random_section,
    so3,
    so_n_constants,
    verified_fixtures,
)

X1 = Expr.var("x1")
X2 = Expr.var("x2")
ZERO = Expr.const(0)
ONE = Expr.const(1)


def form(algebroid, table):
    return GradedElement(algebroid, FORM, table)


def mv(algebroid, table):
    return GradedElement(algebroid, MULTIVECTOR, table)


# ---------------------------------------------------------------- elements


def test_element_normalizes_zero_entries():
    A = construct_tangent(2)
    e = mv(A, {1: {(1,): ZERO}, 0: {(): ZERO}})
    assert e.is_zero()
    assert e.components == {}
    assert e == GradedElement.zero(A, MULTIVECTOR)


def test_element_validation_errors():
    A = construct_tangent(2)
    with pytest.raises(ValueError):
        GradedElement(A, "vector", {})
    with pytest.raises(ValueError):
        mv(A, {3: {(1, 2, 3): ONE}})
    with pytest.raises(ValueError):
        mv(A, {-1: {(): ONE}})
    with pytest.raises(ValueError):
        mv(A, {2: {(1,): ONE}})
    with pytest.raises(ValueError):
        mv(A, {2: {(2, 1): ONE}})
    with pytest.raises(ValueError):
        mv(A, {2: {(1, 1): ONE}})
    with pytest.raises(ValueError):
        mv(A, {1: {(3,): ONE}})
    with pytest.raises(ValueError):
        mv(A, {0: {(): Expr.var("q")}})


def test_element_accessors():
    A = construct_tangent(3)
    e = form(A, {0: {(): X1}, 2: {(1, 3): X2, (1, 2): ONE}})
    assert e.degrees() == [0, 2]
    assert e.coefficient((1, 3)) == X2
    assert e.coefficient((2, 3)) == ZERO
    assert e.scalar_part() == X1
    assert e.homogeneous_part(2) == form(A, {2: {(1, 3): X2, (1, 2): ONE}})
    assert e.homogeneous_part(1).is_zero()
    assert not e.is_homogeneous()
    assert e.homogeneous_part(2).is_homogeneous(2)
    assert GradedElement.zero(A, FORM).is_homogeneous()


def test_element_arithmetic():
    A = construct_tangent(2)
    a = mv(A, {1: {(1,): X1}})
    b = mv(A, {1: {(1,): -X1}, 2: {(1, 2): ONE}})
    assert (a + b) == mv(A, {2: {(1, 2): ONE}})
    assert (a - a).is_zero()
    assert -a == a.scale(-1)
    assert a.scale(Fraction(1, 2)) == mv(A, {1: {(1,): X1 * Expr.const(Fraction(1, 2))}})
    with pytest.raises(ValueError):
        a + form(A, {1: {(1,): ONE}})
    assert a != form(A, {1: {(1,): X1}})
    B = construct_tangent(3)
    with pytest.raises(ValueError):
        a + mv(B, {1: {(1,): ONE}})


def test_element_repr_is_stable():
    A = construct_tangent(2)
    e = form(A, {1: {(2,): X1}})
    assert repr(e) == "GradedElement(form, {1: {(2,): 'x1'}})"


# ------------------------------------------------------------------- wedge


def test_wedge_examples():
    A = construct_tangent(3)
    e1, e2, e3 = (GradedElement.basis(A, FORM, (a,)) for a in (1, 2, 3))
    assert wedge(e1, e1).is_zero()
    assert wedge(e1, e2) == form(A, {2: {(1, 2): ONE}})
    assert wedge(e2, e1) == form(A, {2: {(1, 2): -ONE}})
    assert wedge(e1.scale(X1), wedge(e2, e3)) == form(A, {3: {(1, 2, 3): X1}})
    assert wedge(e3, wedge(e1, e2)) == form(A, {3: {(1, 2, 3): ONE}})
    scalar = GradedElement.scalar(A, FORM, X2)
    assert wedge(scalar, e1) == e1.scale(X2)


def test_wedge_variance_and_shape_checks():
    A = construct_tangent(2)
    with pytest.raises(ValueError):
        wedge(GradedElement.basis(A, FORM, (1,)), GradedElement.basis(A, MULTIVECTOR, (1,)))
    B = construct_tangent(3)
    with pytest.raises(ValueError):
        wedge(GradedElement.basis(A, FORM, (1,)), GradedElement.basis(B, FORM, (1,)))


def test_wedge_associative_random():
    rng = random.Random(21)
    for _, A in verified_fixtures():
        for _ in range(6):
            a = random_mixed(rng, A, FORM, max_degree=2)
            b = random_mixed(rng, A, FORM, max_degree=2)
            c = random_mixed(rng, A, FORM, max_degree=2)
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_graded_commutative_random():
    rng = random.Random(22)
    for _, A in verified_fixtures():
        for p in range(0, A.rank + 1):
            for q in range(0, A.rank + 1):
                a = random_form(rng, A, p)
                b = random_form(rng, A, q)
                flip = wedge(b, a)
                if (p * q) & 1:
                    flip = -flip
                assert wedge(a, b) == flip


# ---------------------------------------------------------------- interior


def test_interior_examples():
    A = construct_tangent(2)
    e12 = form(A, {2: {(1, 2): ONE}})
    e1 = GradedElement.basis(A, MULTIVECTOR, (1,))
    e2 = GradedElement.basis(A, MULTIVECTOR, (2,))
    assert interior_product(e1, e12) == form(A, {1: {(2,): ONE}})
    assert interior_product(e2, e12) == form(A, {1: {(1,): -ONE}})
    both = GradedElement.basis(A, MULTIVECTOR, (1, 2))
    assert interior_product(both, e12) == GradedElement.scalar(A, FORM, -1)
    assert interior_product(e1, GradedElement.scalar(A, FORM, X1)).is_zero()
    five = GradedElement.scalar(A, MULTIVECTOR, 5)
    assert interior_product(five, e12) == e12.scale(5)


def test_interior_composition_random():
    rng = random.Random(23)
    for _, A in verified_fixtures():
        for _ in range(6):
            P = random_multivector(rng, A, 1)
            Q = random_mixed(rng, A, MULTIVECTOR, max_degree=2)
            eta = random_mixed(rng, A, FORM)
            lhs = interior_product(wedge(P, Q), eta)
            rhs = interior_product(P, interior_product(Q, eta))
            assert lhs == rhs


def test_interior_variance_checks():
    A = construct_tangent(2)
    eta = GradedElement.basis(A, FORM, (1,))
    with pytest.raises(ValueError):
        interior_product(eta, eta)
    with pytest.raises(ValueError):
        interior_product(GradedElement.basis(A, MULTIVECTOR, (1,)), GradedElement.basis(A, MULTIVECTOR, (1,)))


# ----------------------------------------------------------------- pairing


def test_pairing_examples():
    A = construct_tangent(2)
    e12_form = form(A, {2: {(1, 2): ONE}})
    e12_mv = mv(A, {2: {(1, 2): ONE}})
    assert pairing(e12_form, e12_mv) == ONE
    assert pairing(GradedElement.basis(A, FORM, (1,)), GradedElement.basis(A, MULTIVECTOR, (2,))) == ZERO
    # unequal degrees pair to zero
    assert pairing(GradedElement.basis(A, FORM, (1,)), e12_mv) == ZERO
    assert pairing(GradedElement.scalar(A, FORM, X1), GradedElement.scalar(A, MULTIVECTOR, X2)) == X1 * X2


def test_pairing_interior_sign_link():
    # full contraction of a p-form by a p-multivector reverses the index,
    # so it differs from the pairing by the sign of that reversal
    rng = random.Random(24)
    for _, A in verified_fixtures():
        for p in range(0, A.rank + 1):
            eta = random_form(rng, A, p)
            P = random_multivector(rng, A, p)
            sign = -1 if ((p - 1) * p // 2) & 1 else 1
            contracted = interior_product(P, eta).scalar_part()
            assert contracted == pairing(eta, P) * Expr.const(sign)


# ------------------------------------------------------- exterior derivative


def test_d_scalar_tangent():
    A = construct_tangent(2)
    df = exterior_derivative(A, GradedElement.scalar(A, FORM, X1 * X2))
    assert df == form(A, {1: {(1,): X2, (2,): X1}})


def test_d_dual_basis_so3():
    A = so3()
    d3 = exterior_derivative(A, GradedElement.basis(A, FORM, (3,)))
    assert d3 == form(A, {2: {(1, 2): -ONE}})
    d1 = exterior_derivative(A, GradedElement.basis(A, FORM, (1,)))
    assert d1 == form(A, {2: {(2, 3): -ONE}})


def test_d_of_top_degree_is_zero():
    A = construct_tangent(2)
    assert exterior_derivative(A, form(A, {2: {(1, 2): X1 * X2}})).is_zero()


def test_d_squared_zero_random():
    rng = random.Random(25)
    for _, A in verified_fixtures():
        for _ in range(8):
            eta = random_mixed(rng, A, FORM)
            dd = exterior_derivative(A, exterior_derivative(A, eta))
            assert dd.is_zero()


def test_d_antiderivation_random():
    rng = random.Random(26)
    for _, A in verified_fixtures():
        for p in range(0, A.rank):
            eta = random_form(rng, A, p)
            zeta = random_mixed(rng, A, FORM, max_degree=2)
            lhs = exterior_derivative(A, wedge(eta, zeta))
            rhs = wedge(exterior_derivative(A, eta), zeta)
            correction = wedge(eta, exterior_derivative(A, zeta))
            if p & 1:
                rhs = rhs - correction
            else:
                rhs = rhs + correction
            assert lhs == rhs


def _eval_signed(table, seq):
    seq = tuple(seq)
    if len(set(seq)) != len(seq):
        return ZERO
    inversions = sum(
        1 for s in range(len(seq)) for t in range(s + 1, len(seq)) if seq[s] > seq[t]
    )
    value = table.get(tuple(sorted(seq)), ZERO)
    return -value if inversions & 1 else value


def alternate_d(algebroid, eta):
    """Exterior derivative through Lie derivatives along basis sections:
    d eta (e_J) = sum_t (-1)^t (L(e_jt) eta)(J minus jt)
                - sum_{s<t} (-1)^{s+t} eta({e_js, e_jt}, rest).
    Independent of the coefficient formula used by the library."""
    from itertools import combinations

    k = algebroid.rank
    basis = [GradedElement.basis(algebroid, MULTIVECTOR, (a,)) for a in range(1, k + 1)]
    out = {}
    for p, table in eta.components.items():
        lie_images = [
            lie_derivative_form(algebroid, basis[a], eta.homogeneous_part(p))
            for a in range(k)
        ]
        for J in combinations(range(1, k + 1), p + 1):
            total = ZERO
            for t in range(p + 1):
                omitted = J[:t] + J[t + 1 :]
                term = lie_images[J[t] - 1].coefficient(omitted)
                total = total + (-term if t & 1 else term)
            for s in range(p + 1):
                for t in range(s + 1, p + 1):
                    rest = tuple(J[u] for u in range(p + 1) if u != s and u != t)
                    inner = ZERO
                    for c, cab in algebroid.bracket_table(J[s], J[t]).items():
                        inner = inner + cab * _eval_signed(table, (c,) + rest)
                    total = total - (-inner if (s + t) & 1 else inner)
            if total:
                out.setdefault(p + 1, {})[J] = total
    return GradedElement(algebroid, FORM, out)


def test_d_matches_lie_derivative_expansion():
    rng = random.Random(27)
    for _, A in verified_fixtures():
        for p in (1, 2):
            if p > A.rank:
                continue
            for _ in range(4):
                eta = random_form(rng, A, p)
                assert exterior_derivative(A, eta) == alternate_d(A, eta)


def random_tables(rng, chart, rank):
    """Anchor and structure tables with random polynomial entries; the
    algebroid axioms need not hold."""
    anchor = [[random_poly(rng, chart) if rng.random() < 0.5 else 0 for _ in chart] for _ in range(rank)]
    structure = {
        (a, b): {c: random_poly(rng, chart) for c in range(1, rank + 1) if rng.random() < 0.4}
        for a, b in combinations(range(1, rank + 1), 2)
    }
    return anchor, structure


D_FIXTURES = verified_fixtures() + [("broken-jacobi", broken_jacobi())]
# A named fixture, or (rank, chart size) for random tables of rank 0-5 over charts of size 0-3.
SOURCES = st.one_of(st.sampled_from(D_FIXTURES), st.tuples(st.integers(0, 5), st.integers(0, 3)))


def source_algebroid(rng, source):
    if isinstance(source[1], Algebroid):
        return source[1]
    rank, n = source
    chart = tuple(f"x{i + 1}" for i in range(n))
    return new_algebroid(chart, rank, *random_tables(rng, chart, rank))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    source=SOURCES,
    foreign=st.booleans(),
)
def test_d_matches_dense_reference(seed, source, foreign):
    rng = random.Random(seed)
    A = source_algebroid(rng, source)
    # delta_reconstruct differentiates forms built over a same-shape scaffold
    over = new_algebroid(A.chart, A.rank, *random_tables(rng, A.chart, A.rank)) if foreign else A
    eta = random_mixed(rng, over, FORM)
    assert exterior_derivative(A, eta) == dense_d(A, eta)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    source=SOURCES,
    zero_section=st.booleans(),
)
def test_lie_derivatives_match_dense_reference(seed, source, zero_section):
    rng = random.Random(seed)
    A = source_algebroid(rng, source)
    V = GradedElement.zero(A, MULTIVECTOR) if zero_section else random_multivector(rng, A, 1)
    eta = random_mixed(rng, A, FORM)
    P = random_mixed(rng, A, MULTIVECTOR)
    assert lie_derivative_form(A, V, eta) == dense_lie_form(A, V, eta)
    assert lie_derivative_multivector(A, V, P) == dense_lie_multivector(A, V, P)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), source=SOURCES)
def test_verify_axioms_matches_dense_reference(seed, source):
    rng = random.Random(seed)
    A = source_algebroid(rng, source)
    anchor, jacobi = dense_axioms(A)
    report = verify_axioms(A)
    assert report.anchor_residuals == anchor
    assert report.jacobi_residuals == jacobi
    assert report.passed == (not anchor and not jacobi)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), source=SOURCES)
def test_derived_bracket_reads_structure(seed, source):
    # delta_reconstruct reads C^c_ab = -(delta e^c)_ab; the derived bracket
    # [[i(e_a), d], i(e_b)] e^c recovers the same table, axioms or not.
    rng = random.Random(seed)
    A = source_algebroid(rng, source)
    structure = {ab: dict(table) for ab, table in A.structure.items()}
    assert derived_bracket_structure(A.chart, A.rank, d_operator(A)) == structure


def test_d_work_follows_input_terms(monkeypatch):
    constants = so_n_constants(6)
    A = construct_lie_algebra(15, constants)
    calls = []

    def counting(name):
        original = getattr(Algebroid, name)

        def wrapper(self, *args):
            calls.append(name)
            return original(self, *args)

        return wrapper

    for name in ("bracket_table", "apply_anchor"):
        monkeypatch.setattr(Algebroid, name, counting(name))
    for c in range(1, 16):
        expected = {(a, b): -table[c] for (a, b), table in constants.items() if c in table}
        assert exterior_derivative(A, GradedElement.basis(A, FORM, (c,))) == form(A, {2: expected})
    assert exterior_derivative(A, GradedElement.scalar(A, FORM, 7)).is_zero()
    assert calls == []


def test_lie_multivector_work_follows_input(monkeypatch):
    A = construct_lie_algebra(15, so_n_constants(6))
    original = bracket_sections
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr("algebroids.algebroid.bracket_sections", counting)
    V = GradedElement.basis(A, MULTIVECTOR, (1,))
    P = GradedElement.basis(A, MULTIVECTOR, (2, 3))
    result = lie_derivative_multivector(A, V, P)
    assert len(calls) == 15
    monkeypatch.undo()
    assert result == schouten_bracket(A, V, P)


def test_axiom_work_follows_generators(monkeypatch):
    A = construct_lie_algebra(15, so_n_constants(6))
    calls = []

    def counting(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for module, name in (
        (alg_module, "bracket_sections"),
        (cal_module, "interior_product"),
        (cal_module, "exterior_derivative"),
    ):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    assert verify_axioms(A).passed
    assert calls.count("bracket_sections") == 0
    assert calls.count("exterior_derivative") == 2 * 15
    calls.clear()
    assert delta_reconstruct(A.chart, A.rank, d_operator(A)) == A
    assert calls.count("interior_product") == 0
    calls.clear()
    assert verify_axioms(construct_lie_algebra(64)).passed
    assert calls.count("bracket_sections") == 0


def test_d_requires_form():
    A = construct_tangent(2)
    with pytest.raises(ValueError):
        exterior_derivative(A, GradedElement.basis(A, MULTIVECTOR, (1,)))


# ----------------------------------------------------------- lie derivative


def test_lie_form_scalar():
    A = construct_tangent(2)
    V = GradedElement.basis(A, MULTIVECTOR, (1,))
    out = lie_derivative_form(A, V, GradedElement.scalar(A, FORM, X1 * X1))
    assert out == GradedElement.scalar(A, FORM, X1 * Expr.const(2))


def test_lie_form_so3_dual_basis():
    A = so3()
    e1 = GradedElement.basis(A, MULTIVECTOR, (1,))
    # {e_1, e_2} = e_3 and {e_1, e_3} = -e_2 conspire to fix e^1
    assert lie_derivative_form(A, e1, GradedElement.basis(A, FORM, (1,))).is_zero()
    # (L(e_1) e^2)_3 = -{e_1, e_3}^2 = 1
    out = lie_derivative_form(A, e1, GradedElement.basis(A, FORM, (2,)))
    assert out == form(A, {1: {(3,): ONE}})


def test_lie_form_cartan_random():
    rng = random.Random(28)
    for _, A in verified_fixtures():
        for _ in range(6):
            V = random_section(rng, A)
            eta = random_mixed(rng, A, FORM)
            lhs = lie_derivative_form(A, V, eta)
            rhs = interior_product(V, exterior_derivative(A, eta)) + exterior_derivative(
                A, interior_product(V, eta)
            )
            assert lhs == rhs


def test_lie_form_commutes_with_d_random():
    rng = random.Random(29)
    for _, A in verified_fixtures():
        for _ in range(5):
            V = random_section(rng, A)
            eta = random_mixed(rng, A, FORM, max_degree=A.rank - 1)
            lhs = lie_derivative_form(A, V, exterior_derivative(A, eta))
            rhs = exterior_derivative(A, lie_derivative_form(A, V, eta))
            assert lhs == rhs


def test_lie_form_module_rule_random():
    # L(fV) = f L(V) + df ^ i(V)
    rng = random.Random(30)
    for _, A in verified_fixtures():
        for _ in range(5):
            V = random_section(rng, A)
            f = random_poly(rng, A.chart)
            eta = random_mixed(rng, A, FORM)
            lhs = lie_derivative_form(A, V.scale(f), eta)
            df = exterior_derivative(A, GradedElement.scalar(A, FORM, f))
            rhs = lie_derivative_form(A, V, eta).scale(f) + wedge(df, interior_product(V, eta))
            assert lhs == rhs


def test_lie_form_bracket_compatibilities_random():
    rng = random.Random(31)
    for _, A in verified_fixtures():
        for _ in range(4):
            V = random_section(rng, A)
            W = random_section(rng, A)
            eta = random_mixed(rng, A, FORM)
            VW = bracket_sections(A, V, W)
            # i({V,W}) = L(V) i(W) - i(W) L(V)
            lhs = interior_product(VW, eta)
            rhs = lie_derivative_form(A, V, interior_product(W, eta)) - interior_product(
                W, lie_derivative_form(A, V, eta)
            )
            assert lhs == rhs
            # L({V,W}) = L(V) L(W) - L(W) L(V)
            lhs2 = lie_derivative_form(A, VW, eta)
            rhs2 = lie_derivative_form(A, V, lie_derivative_form(A, W, eta)) - lie_derivative_form(
                A, W, lie_derivative_form(A, V, eta)
            )
            assert lhs2 == rhs2


def test_lie_multivector_on_sections_is_bracket():
    rng = random.Random(32)
    for _, A in verified_fixtures():
        for _ in range(5):
            V = random_section(rng, A)
            W = random_section(rng, A)
            assert lie_derivative_multivector(A, V, W) == bracket_sections(A, V, W)
            assert lie_derivative_multivector(A, V, V).is_zero()


def test_lie_multivector_example():
    A = construct_tangent(3)
    V = GradedElement.basis(A, MULTIVECTOR, (1,))
    P = mv(A, {2: {(2, 3): X1}})
    assert lie_derivative_multivector(A, V, P) == mv(A, {2: {(2, 3): ONE}})


def test_lie_multivector_pairing_rule_random():
    rng = random.Random(33)
    for _, A in verified_fixtures():
        for _ in range(5):
            V = random_section(rng, A)
            eta = random_mixed(rng, A, FORM)
            P = random_mixed(rng, A, MULTIVECTOR)
            vc = {a: V.coefficient((a,)) for a in range(1, A.rank + 1)}
            lhs = A.apply_anchor_section(vc, pairing(eta, P))
            rhs = pairing(lie_derivative_form(A, V, eta), P) + pairing(
                eta, lie_derivative_multivector(A, V, P)
            )
            assert lhs == rhs


def test_lie_multivector_commutator_random():
    rng = random.Random(34)
    for _, A in verified_fixtures():
        for _ in range(4):
            V = random_section(rng, A)
            W = random_section(rng, A)
            P = random_mixed(rng, A, MULTIVECTOR)
            lhs = lie_derivative_multivector(A, bracket_sections(A, V, W), P)
            rhs = lie_derivative_multivector(
                A, V, lie_derivative_multivector(A, W, P)
            ) - lie_derivative_multivector(A, W, lie_derivative_multivector(A, V, P))
            assert lhs == rhs


# -------------------------------------------------------------- lie operator


def test_lie_operator_degree_attribute():
    A = construct_tangent(3)
    assert lie_operator(A, GradedElement.basis(A, MULTIVECTOR, (1,))).degree == 0
    assert lie_operator(A, GradedElement.basis(A, MULTIVECTOR, (1, 2))).degree == -1
    assert lie_operator(A, GradedElement.scalar(A, MULTIVECTOR, X1)).degree == 1
    mixed = GradedElement.basis(A, MULTIVECTOR, (1,)) + GradedElement.scalar(A, MULTIVECTOR, ONE)
    assert lie_operator(A, mixed).degree is None


def test_lie_operator_matches_section_derivative():
    rng = random.Random(35)
    for _, A in verified_fixtures():
        for _ in range(4):
            V = random_section(rng, A)
            eta = random_mixed(rng, A, FORM)
            assert lie_operator(A, V)(eta) == lie_derivative_form(A, V, eta)


def test_lie_operator_vanishes_below_codegree():
    # the operator lowers form degree by p-1, so any input of degree
    # at most p-2 lands in negative degree and dies
    rng = random.Random(36)
    for _, A in verified_fixtures():
        for p in range(2, A.rank + 1):
            op = lie_operator(A, random_multivector(rng, A, p))
            for q in range(0, p - 1):
                assert op(random_form(rng, A, q)).is_zero()


def test_lie_operator_bivector_acts_on_one_forms():
    # degree counting does not kill bivectors on 1-forms: the composite
    # i(P) d drops into degree 0 and survives whenever d eta pairs with P
    A = so3()
    P = GradedElement.basis(A, MULTIVECTOR, (2, 3))
    out = lie_operator(A, P)(GradedElement.basis(A, FORM, (1,)))
    assert out == GradedElement.scalar(A, FORM, ONE)


def test_lie_operator_example():
    A = construct_tangent(2)
    P = GradedElement.basis(A, MULTIVECTOR, (1, 2))
    eta = form(A, {2: {(1, 2): X1}})
    assert lie_operator(A, P)(eta) == GradedElement.basis(A, FORM, (1,))


def test_lie_operator_commutes_with_d_random():
    rng = random.Random(37)
    for _, A in verified_fixtures():
        for p in range(0, A.rank + 1):
            P = random_multivector(rng, A, p)
            op = lie_operator(A, P)
            eta = random_mixed(rng, A, FORM)
            lhs = op(exterior_derivative(A, eta))
            rhs = exterior_derivative(A, op(eta))
            if (1 - p) & 1:
                rhs = -rhs
            assert lhs == rhs


def test_lie_operator_bracket_commutator_random():
    rng = random.Random(38)
    for _, A in verified_fixtures():
        for _ in range(3):
            p = rng.randint(0, min(2, A.rank))
            q = rng.randint(0, min(2, A.rank))
            P = random_multivector(rng, A, p)
            Q = random_multivector(rng, A, q)
            eta = random_mixed(rng, A, FORM)
            lp = lie_operator(A, P)
            lq = lie_operator(A, Q)
            lhs = lp(lq(eta))
            correction = lq(lp(eta))
            if ((1 - p) * (1 - q)) & 1:
                lhs = lhs + correction
            else:
                lhs = lhs - correction
            rhs = lie_operator(A, schouten_bracket(A, P, Q))(eta)
            assert lhs == rhs


def test_interior_commutes_with_bracket_operator_random():
    # the operator [[i(P), d], i(Q)] has multivector degree p+q-1, so
    # contractions slide past it with the sign of that degree times r
    rng = random.Random(39)
    for _, A in verified_fixtures():
        for _ in range(3):
            p = rng.randint(1, min(2, A.rank))
            q = rng.randint(1, min(2, A.rank))
            r = rng.randint(1, min(2, A.rank))
            P = random_multivector(rng, A, p)
            Q = random_multivector(rng, A, q)
            R = random_multivector(rng, A, r)
            lp = lie_operator(A, P)

            def K(xi):
                first = lp(interior_product(Q, xi))
                second = interior_product(Q, lp(xi))
                return first + second if ((p - 1) * q) & 1 else first - second

            eta = random_mixed(rng, A, FORM)
            lhs = interior_product(R, K(eta))
            rhs = K(interior_product(R, eta))
            if ((p + q - 1) * r) & 1:
                rhs = -rhs
            assert lhs == rhs


# ------------------------------------------------------------------ schouten


def test_schouten_scalar_edges():
    A = construct_tangent(2)
    f = GradedElement.scalar(A, MULTIVECTOR, X1)
    g = GradedElement.scalar(A, MULTIVECTOR, X2)
    assert schouten_bracket(A, f, g).is_zero()
    V = mv(A, {1: {(1,): X1, (2,): ONE}})
    # [V, f] = rho(V) f and [f, V] is its negative at these degrees
    assert schouten_bracket(A, V, f) == GradedElement.scalar(A, MULTIVECTOR, X1)
    assert schouten_bracket(A, f, V) == GradedElement.scalar(A, MULTIVECTOR, -X1)


def test_schouten_section_cases_match_lie_derivative():
    rng = random.Random(40)
    for _, A in verified_fixtures():
        for _ in range(4):
            V = random_section(rng, A)
            Q = random_mixed(rng, A, MULTIVECTOR)
            assert schouten_bracket(A, V, Q) == lie_derivative_multivector(A, V, Q)


def test_schouten_golden_values():
    A = construct_tangent(3)
    P = GradedElement.basis(A, MULTIVECTOR, (1, 2))
    Q = mv(A, {1: {(3,): X1}})
    assert schouten_bracket(A, P, Q) == mv(A, {2: {(2, 3): -ONE}})

    B = construct_tangent(2)
    Lam = GradedElement.basis(B, MULTIVECTOR, (1, 2))
    assert schouten_bracket(B, Lam, Lam).is_zero()
    x1 = GradedElement.scalar(B, MULTIVECTOR, X1)
    assert schouten_bracket(B, Lam, x1) == mv(B, {1: {(2,): -ONE}})


def test_schouten_antisymmetry_random():
    rng = random.Random(41)
    for _, A in verified_fixtures():
        for _ in range(4):
            p = rng.randint(0, A.rank)
            q = rng.randint(0, A.rank)
            P = random_multivector(rng, A, p)
            Q = random_multivector(rng, A, q)
            lhs = schouten_bracket(A, P, Q)
            rhs = schouten_bracket(A, Q, P)
            if ((p - 1) * (q - 1)) & 1:
                assert lhs == rhs
            else:
                assert lhs == -rhs


def test_schouten_right_derivation_random():
    # [P, Q ^ R] = [P,Q] ^ R + (-1)^((p-1) q) Q ^ [P,R]
    rng = random.Random(42)
    for _, A in verified_fixtures():
        for _ in range(4):
            p = rng.randint(1, min(2, A.rank))
            q = rng.randint(0, 1)
            P = random_multivector(rng, A, p)
            Q = random_multivector(rng, A, q)
            R = random_mixed(rng, A, MULTIVECTOR, max_degree=2)
            lhs = schouten_bracket(A, P, wedge(Q, R))
            head = wedge(schouten_bracket(A, P, Q), R)
            tail = wedge(Q, schouten_bracket(A, P, R))
            if ((p - 1) * q) & 1:
                tail = -tail
            assert lhs == head + tail


def test_schouten_graded_jacobi_random():
    rng = random.Random(43)
    for _, A in verified_fixtures():
        for _ in range(2):
            p = rng.randint(1, min(2, A.rank))
            q = rng.randint(1, min(2, A.rank))
            r = rng.randint(0, min(2, A.rank))
            P = random_multivector(rng, A, p)
            Q = random_multivector(rng, A, q)
            R = random_multivector(rng, A, r)

            def sign(u, v):
                return -1 if ((u - 1) * (v - 1)) & 1 else 1

            total = schouten_bracket(A, schouten_bracket(A, P, Q), R).scale(sign(p, r))
            total = total + schouten_bracket(A, schouten_bracket(A, Q, R), P).scale(sign(q, p))
            total = total + schouten_bracket(A, schouten_bracket(A, R, P), Q).scale(sign(r, q))
            assert total.is_zero()


def test_schouten_two_paths_agree_on_bases():
    for _, A in verified_fixtures():
        from itertools import combinations

        for p in range(0, A.rank + 1):
            for q in range(0, A.rank + 1):
                for I in combinations(range(1, A.rank + 1), p):
                    for J in combinations(range(1, A.rank + 1), q):
                        P = GradedElement.basis(A, MULTIVECTOR, I)
                        Q = GradedElement.basis(A, MULTIVECTOR, J)
                        assert schouten_bracket(A, P, Q) == schouten_oracle(A, P, Q)


def test_schouten_two_paths_agree_random():
    rng = random.Random(44)
    for _, A in verified_fixtures():
        for _ in range(6):
            P = random_mixed(rng, A, MULTIVECTOR)
            Q = random_mixed(rng, A, MULTIVECTOR)
            assert schouten_bracket(A, P, Q) == schouten_oracle(A, P, Q)


def test_schouten_pushes_through_anchor():
    rng = random.Random(45)
    for _, A in verified_fixtures():
        if not A.chart:
            continue
        T = construct_tangent(len(A.chart), A.chart)
        for _ in range(3):
            P = random_mixed(rng, A, MULTIVECTOR, max_degree=2)
            Q = random_mixed(rng, A, MULTIVECTOR, max_degree=2)
            lhs = anchor_push(A, schouten_bracket(A, P, Q))
            rhs = schouten_bracket(T, anchor_push(A, P), anchor_push(A, Q))
            assert lhs == rhs


# ----------------------------------------------------------- reconstruction


def test_reconstruct_roundtrip_fixtures():
    for name, A in verified_fixtures():
        rebuilt = delta_reconstruct(A.chart, A.rank, d_operator(A))
        assert rebuilt == A, name
        assert rebuilt.verified


def test_reconstruct_accepts_plain_callable():
    A = so3()
    rebuilt = delta_reconstruct(A.chart, A.rank, lambda eta: exterior_derivative(A, eta))
    assert rebuilt == A


def test_reconstruct_zero_operator_gives_abelian():
    A = construct_tangent(2)
    zero = OperatorValue(lambda eta: GradedElement.zero(A, FORM), 1)
    rebuilt = delta_reconstruct(A.chart, 2, zero)
    assert rebuilt.structure == {}
    assert all(e.is_zero() for row in rebuilt.anchor for e in row)


def test_reconstruct_scaled_differential_scales_anchor():
    A = construct_tangent(2)
    doubled = OperatorValue(lambda eta: exterior_derivative(A, eta).scale(2), 1)
    rebuilt = delta_reconstruct(A.chart, 2, doubled)
    assert rebuilt.anchor_entry(1, 1) == Expr.const(2)
    assert rebuilt.anchor_entry(1, 2) == ZERO
    assert rebuilt.structure == {}


def test_reconstruct_rejects_declared_degree():
    A = construct_tangent(2)
    op = OperatorValue(lambda eta: eta, 0)
    with pytest.raises(ValueError, match="degree 1"):
        delta_reconstruct(A.chart, 2, op)


def test_reconstruct_rejects_nonzero_on_constants():
    A = construct_tangent(2)
    w = GradedElement.basis(A, FORM, (1,))

    def op(eta):
        return exterior_derivative(A, eta) + wedge(w, eta)

    with pytest.raises(ReconstructionError, match="constant 1") as excinfo:
        delta_reconstruct(A.chart, 2, op)
    assert isinstance(excinfo.value.residual, GradedElement)


def test_reconstruct_rejects_nonsquare_zero():
    A = broken_jacobi()
    with pytest.raises(ReconstructionError, match="delta squared") as excinfo:
        delta_reconstruct(A.chart, A.rank, d_operator(A))
    assert excinfo.value.residual is not None


def test_reconstruct_rejects_inhomogeneous_images():
    A = construct_tangent(2)

    def op(eta):
        bump = GradedElement.scalar(A, FORM, eta.coefficient((1,)))
        return exterior_derivative(A, eta) + bump

    with pytest.raises(ReconstructionError, match="not homogeneous"):
        delta_reconstruct(A.chart, 2, op)


def test_reconstruct_rejects_leibniz_failure():
    A = construct_tangent(3)

    def op(eta):
        c = eta.coefficient((1,))
        junk = GradedElement(A, FORM, {2: {(1, 2): c * (c - ONE)}})
        return exterior_derivative(A, eta) + junk

    with pytest.raises(ReconstructionError, match="times basis form"):
        delta_reconstruct(A.chart, 3, op)


def test_reconstruct_validates_rank():
    with pytest.raises(ValueError):
        delta_reconstruct(("x1",), -2, lambda eta: eta)
