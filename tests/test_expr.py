import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from algebroids import expr as expr_module
from algebroids.expr import (
    MAX_NESTING,
    MAX_POWER_BITS,
    Expr,
    ParseError,
    parse,
    validate_chart,
)

CHART = ("x1", "x2", "x3")


def test_parse_zero_is_empty_table():
    assert parse("0", CHART).is_zero()
    assert dict(parse("0", CHART).items()) == {}


def test_parse_nesting_bound():
    at_bound = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
    assert parse(at_bound, CHART) == Expr.var("x1")
    with pytest.raises(ParseError, match="nested deeper"):
        parse("(" + at_bound + ")", CHART)


def test_power_size_budget():
    # The estimate bounds C(n + t - 1, t - 1) terms and n * (b + ceil(log2 t))
    # coefficient bits; no case computes a power past the budget.
    wide = " + ".join(["1"] + [f"x1^{e}" for e in range(1, 44)])
    assert len(parse(f"({wide})^2", CHART).items()) == 87  # 44 terms: C(45, 43) = 990
    with pytest.raises(ParseError, match="size budget"):
        parse(f"({wide} + x1^44)^2", CHART)  # 45 terms: C(46, 44) = 1035
    assert parse(f"2^{MAX_POWER_BITS}", CHART) == Expr.const(2**MAX_POWER_BITS)
    with pytest.raises(ParseError, match=r"size budget \(at position 2\)"):
        parse(f"2^{MAX_POWER_BITS + 1}", CHART)
    assert len(parse("(x1+x2+1)^20", CHART).items()) == 231
    with pytest.raises(ValueError, match="size budget"):
        Expr.const(7) ** 300000000


def test_product_size_budget(monkeypatch):
    # A product may pair at most MAX_POWER_TERMS**2 terms; the bound is set small here.
    monkeypatch.setattr(expr_module, "MAX_POWER_TERMS", 10)
    ten = " + ".join(f"x1^{e}" for e in range(1, 11))
    assert len(parse(f"({ten})*({ten.replace('x1', 'x2')})", CHART).items()) == 100
    hundred_one = "(" + " + ".join(["1"] + [f"x1^{e}" for e in range(1, 101)]) + ")"
    star = len(hundred_one)
    with pytest.raises(ParseError, match=rf"product of 101 and 1 terms exceeds the size budget \(at position {star}\)"):
        parse(f"{hundred_one}*x2", CHART)


def test_power_budget_spares_powers_that_cannot_grow():
    # A coefficient of +-1 counts 0 bits, and p^0, p^1 and 0^n are never refused.
    huge = 10**400
    assert parse(f"(-x1)^{huge}", CHART) == Expr._make({(("x1", huge),): Fraction(1)})
    assert parse(f"0^{huge}", CHART).is_zero()
    big = Expr.const(Fraction(7) ** 600) + sum((Expr.var("x1") ** e for e in range(1, 1001)), Expr.const(0))
    assert big ** 1 == big and big ** 0 == Expr.const(1)
    assert parse("x1^1000*x1", CHART).subs({"x2": Expr.var("x3")}) == Expr.var("x1") ** 1001


def test_parse_merges_exponents():
    f = parse("x1*x1", CHART)
    assert dict(f.items()) == {(("x1", 2),): Fraction(1)}


def test_parse_expands_binomial_square():
    f = parse("(x1+x2)^2", CHART)
    g = parse("x1^2 + 2*x1*x2 + x2^2", CHART)
    assert f == g


def test_parse_rationals_and_unary_minus():
    assert parse("3/4", CHART) == Expr.const(Fraction(3, 4))
    assert parse("-3/4", CHART) == Expr.const(Fraction(-3, 4))
    assert parse("x1 + -x2", CHART) == parse("x1 - x2", CHART)
    assert parse("x1 - -x2", CHART) == parse("x1 + x2", CHART)


def test_parse_power_binds_to_rational_base():
    assert parse("3/4^2", CHART) == Expr.const(Fraction(9, 16))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse("x1 + * x2", CHART)
    assert info.value.pos == 5

    with pytest.raises(ParseError) as info:
        parse("x1 + y", CHART)
    assert "unknown variable 'y'" in str(info.value)
    assert info.value.pos == 5


def test_parse_rejects_double_unary_minus():
    with pytest.raises(ParseError):
        parse("--x1", CHART)


def test_parse_rejects_division_by_variable():
    with pytest.raises(ParseError):
        parse("x1/2", CHART)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ParseError):
        parse("1/0", CHART)


def test_additive_inverse_and_scale():
    x1 = Expr.var("x1")
    assert (x1 + (-x1)).is_zero()
    assert x1 * Expr.var("x2") == parse("x1*x2", CHART)
    assert Expr.const(2) * Fraction(1, 2) == Expr.const(1)


def test_commutativity_is_canonical():
    assert parse("x1*x2 - x2*x1", CHART).is_zero()


def test_differentiate_power_rule():
    f = parse("x1^2*x2", CHART)
    assert f.diff("x1") == parse("2*x1*x2", CHART)
    assert parse("x1", CHART).diff("x2").is_zero()
    assert parse("x1+3", CHART).diff("x1") == Expr.const(1)


def test_eval_at():
    f = parse("x1^2", CHART)
    assert f.eval_at({"x1": Fraction(3, 2)}) == Fraction(9, 4)
    assert Expr.const(0).eval_at({}) == 0
    assert parse("x1+x2", CHART).eval_at({"x1": 1, "x2": -1}) == 0
    with pytest.raises(ValueError):
        f.eval_at({"x2": 1})


def test_print_is_deterministic_graded_lex():
    f = parse("x2 + x1^2 + 1 + x1*x2", CHART)
    assert f.to_text(CHART) == "x1^2 + x1*x2 + x2 + 1"
    g = parse("-x1 + 2*x2 - 3/4", CHART)
    assert g.to_text(CHART) == "-x1 + 2*x2 - 3/4"


def test_print_parse_roundtrip_examples():
    for text in ["0", "x1", "-x1", "x1^2 + x1*x2 + x2 + 1", "-3/4", "2*x1 - 1/2"]:
        f = parse(text, CHART)
        assert parse(f.to_text(CHART), CHART) == f


def test_chart_validation():
    with pytest.raises(ValueError):
        validate_chart(("x1", "x1"))
    with pytest.raises(ValueError):
        validate_chart(("1bad",))


def _random_expr(rng, max_deg=4, nvars=3):
    names = [f"x{i+1}" for i in range(nvars)]
    total = Expr.const(0)
    for _ in range(rng.randint(0, 5)):
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        mono = Expr.const(coeff)
        for name in rng.sample(names, rng.randint(0, nvars)):
            mono = mono * Expr.var(name) ** rng.randint(1, max_deg)
        total = total + mono
    return total


def test_differentiate_is_a_derivation():
    rng = random.Random(7)
    for _ in range(40):
        f = _random_expr(rng)
        g = _random_expr(rng)
        lhs = (f * g).diff("x1")
        rhs = f.diff("x1") * g + f * g.diff("x1")
        assert lhs == rhs


def test_mixed_partials_commute():
    rng = random.Random(11)
    for _ in range(40):
        f = _random_expr(rng)
        assert f.diff("x1").diff("x2") == f.diff("x2").diff("x1")


def test_eval_is_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(20):
        f = _random_expr(rng)
        g = _random_expr(rng)
        point = {f"x{i+1}": Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for i in range(3)}
        assert (f * g).eval_at(point) == f.eval_at(point) * g.eval_at(point)
        assert (f + g).eval_at(point) == f.eval_at(point) + g.eval_at(point)


def test_substitution_composes_with_eval():
    rng = random.Random(17)
    for _ in range(20):
        f = _random_expr(rng, max_deg=3)
        g = _random_expr(rng, max_deg=2)
        point = {f"x{i+1}": Fraction(rng.randint(-3, 3)) for i in range(3)}
        composed = f.subs({"x1": g})
        inner = dict(point)
        inner["x1"] = g.eval_at(point)
        assert composed.eval_at(point) == f.eval_at(inner)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_ring_axioms_on_constants_and_vars(a, b, c):
    x = Expr.var("x1")
    f = Expr.const(a) + Expr.const(b) * x
    g = Expr.const(c) * x * x
    h = x + Expr.const(a)
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert f + g == g + f


@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(0, 3), st.integers(0, 3)), max_size=6))
def test_print_parse_roundtrip_random(terms):
    f = Expr.const(0)
    for coeff, e1, e2 in terms:
        mono = Expr.const(coeff)
        if e1:
            mono = mono * Expr.var("x1") ** e1
        if e2:
            mono = mono * Expr.var("x2") ** e2
        f = f + mono
    text = f.to_text(("x1", "x2"))
    assert parse(text, ("x1", "x2")) == f
