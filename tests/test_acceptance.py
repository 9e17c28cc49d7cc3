"""Acceptance suite: one test per shipped guarantee, all at exact zero.

Every comparison below is exact rational arithmetic; there are no
tolerances anywhere.  Each test prints a single verdict line, so
`pytest -s tests/test_acceptance.py` shows the eight verdicts at a
glance.  Failure messages carry the first few offending cases.
"""

import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from algebroids import (
    FORM,
    MULTIVECTOR,
    GradedElement,
    bracket_sections,
    construct_tangent,
    delta_reconstruct,
    dual_poisson,
    exterior_derivative,
    homogeneity_check,
    interior_product,
    is_poisson,
    koszul_bracket,
    lichnerowicz_differential,
    lie_derivative_form,
    phi_function,
    poisson_bracket,
    schouten_bracket,
    schouten_oracle,
    sharp,
    transpose_anchor_check,
    verify_axioms,
    wedge,
)
from algebroids.cli import main as cli_main
from algebroids.expr import Expr, ONE, ZERO

from util import (
    X1,
    X2,
    X3,
    broken_jacobi,
    d_operator,
    poisson_broken,
    poisson_fixtures,
    random_form,
    random_homogeneous,
    random_mixed,
    random_multivector,
    random_poly,
    random_section,
    so3,
    verified_fixtures,
)

HERE = Path(__file__).parent


def _verdict(number, label, failures):
    status = "FAIL" if failures else "PASS"
    print(f"criterion {number}: {status} - {label}")
    assert not failures, f"criterion {number} ({label}): {failures[:5]}"


def _dform(tangent, f):
    return exterior_derivative(tangent, GradedElement.scalar(tangent, FORM, f))


def test_criterion_1_axiom_suite():
    failures = []
    for name, A in verified_fixtures():
        if not verify_axioms(A).passed:
            failures.append(name)

    bad = broken_jacobi()
    report = verify_axioms(bad)
    if report.passed:
        failures.append("broken fixture accepted")
    for residual in report.anchor_residuals.values():
        if any(residual):
            failures.append("broken fixture has anchor residuals")
            break
    if set(report.jacobi_residuals) != {(1, 2, 3)}:
        failures.append(f"jacobi residual keys {sorted(report.jacobi_residuals)}")
    expected = GradedElement(bad, MULTIVECTOR, {1: {(2,): 1}})
    for key, section in report.jacobi_residuals.items():
        want = expected if key == (1, 2, 3) else GradedElement(bad, MULTIVECTOR, {})
        if section != want:
            failures.append(f"jacobi residual at {key}")
    _verdict(1, "axiom verifier on the fixture library", failures)


def test_criterion_2_differential():
    rng = random.Random(102)
    failures = []
    for name, A in verified_fixtures():
        graded = []
        for i in range(100):
            degree = i % (A.rank + 1)
            eta = random_homogeneous(rng, A, FORM, degree)
            graded.append((degree, eta))
            d_eta = exterior_derivative(A, eta)
            if not set(d_eta.components) <= {degree + 1}:
                failures.append(f"{name}: d did not raise degree {degree} by one")
            if not exterior_derivative(A, d_eta).is_zero():
                failures.append(f"{name}: d^2 at degree {degree}")
        for (p, eta), (_, zeta) in zip(graded[::2], graded[1::2]):
            lhs = exterior_derivative(A, wedge(eta, zeta))
            rhs = wedge(exterior_derivative(A, eta), zeta)
            tail = wedge(eta, exterior_derivative(A, zeta))
            rhs = rhs - tail if p & 1 else rhs + tail
            if lhs != rhs:
                failures.append(f"{name}: antiderivation at degree {p}")
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            mixed = exterior_derivative(A, eta + zeta.scale(c))
            if mixed != exterior_derivative(A, eta) + exterior_derivative(A, zeta).scale(c):
                failures.append(f"{name}: linearity at degree {p}")
        for _ in range(10):
            V = random_section(rng, A)
            eta = random_mixed(rng, A, FORM)
            lhs = lie_derivative_form(A, V, eta)
            rhs = interior_product(V, exterior_derivative(A, eta))
            rhs = rhs + exterior_derivative(A, interior_product(V, eta))
            if lhs != rhs:
                failures.append(f"{name}: Cartan formula")
    _verdict(2, "d^2 = 0, antiderivation, Cartan formula", failures)


def test_criterion_3_schouten_two_paths():
    rng = random.Random(103)
    failures = []
    for name, A in verified_fixtures():
        for p in range(0, A.rank + 1):
            for q in range(0, A.rank + 1):
                if p + q > 4:
                    continue
                for I in combinations(range(1, A.rank + 1), p):
                    for J in combinations(range(1, A.rank + 1), q):
                        P = GradedElement.basis(A, MULTIVECTOR, I)
                        Q = GradedElement.basis(A, MULTIVECTOR, J)
                        if schouten_bracket(A, P, Q) != schouten_oracle(A, P, Q):
                            failures.append(f"{name}: basis pair {I} {J}")
        for _ in range(50):
            P = random_mixed(rng, A, MULTIVECTOR)
            Q = random_mixed(rng, A, MULTIVECTOR)
            if schouten_bracket(A, P, Q) != schouten_oracle(A, P, Q):
                failures.append(f"{name}: random mixed pair")
    _verdict(3, "Schouten bracket agrees along both code paths", failures)


def test_criterion_4_graded_jacobi_and_antisymmetry():
    rng = random.Random(104)
    failures = []

    def sign(u, v):
        return -1 if ((u - 1) * (v - 1)) & 1 else 1

    for name, A in verified_fixtures():
        for _ in range(50):
            p = rng.randint(0, min(2, A.rank))
            q = rng.randint(0, min(2, A.rank))
            r = rng.randint(0, min(2, A.rank))
            P = random_homogeneous(rng, A, MULTIVECTOR, p)
            Q = random_homogeneous(rng, A, MULTIVECTOR, q)
            R = random_homogeneous(rng, A, MULTIVECTOR, r)

            flipped = schouten_bracket(A, Q, P).scale(-sign(p, q))
            if schouten_bracket(A, P, Q) != flipped:
                failures.append(f"{name}: antisymmetry at ({p},{q})")

            total = schouten_bracket(A, schouten_bracket(A, P, Q), R).scale(sign(p, r))
            total = total + schouten_bracket(A, schouten_bracket(A, Q, R), P).scale(sign(q, p))
            total = total + schouten_bracket(A, schouten_bracket(A, R, P), Q).scale(sign(r, q))
            if not total.is_zero():
                failures.append(f"{name}: Jacobi at ({p},{q},{r})")
    _verdict(4, "graded Jacobi and antisymmetry", failures)


def test_criterion_5_reconstruction_roundtrip():
    failures = []
    for name, A in verified_fixtures():
        rebuilt = delta_reconstruct(A.chart, A.rank, d_operator(A))
        for a in range(1, A.rank + 1):
            for i in range(1, len(A.chart) + 1):
                if rebuilt.anchor_entry(a, i) != A.anchor_entry(a, i):
                    failures.append(f"{name}: anchor[{a}][{i}]")
        for a in range(1, A.rank + 1):
            for b in range(a + 1, A.rank + 1):
                got = rebuilt.bracket_table(a, b)
                want = A.bracket_table(a, b)
                for c in range(1, A.rank + 1):
                    if got.get(c, ZERO) != want.get(c, ZERO):
                        failures.append(f"{name}: C[{c}][{a}][{b}]")
    _verdict(5, "algebroid recovered from its differential", failures)


def test_criterion_6_poisson_suite():
    rng = random.Random(106)
    failures = []
    for name, ps in poisson_fixtures():
        if not is_poisson(ps).passed:
            failures.append(name)

    bad = poisson_broken()
    if is_poisson(bad).passed:
        failures.append("non-Poisson fixture accepted")
    defect = poisson_bracket(bad, poisson_bracket(bad, X1, X2), X3)
    defect = defect + poisson_bracket(bad, poisson_bracket(bad, X2, X3), X1)
    defect = defect + poisson_bracket(bad, poisson_bracket(bad, X3, X1), X2)
    if defect != -ONE:
        failures.append(f"Jacobi defect is {defect!r}, not -1")

    for name, ps in poisson_fixtures():
        T = ps.tangent()
        for _ in range(50):
            f = random_poly(rng, ps.chart)
            g = random_poly(rng, ps.chart)
            lhs = koszul_bracket(ps, _dform(T, f), _dform(T, g))
            if lhs != _dform(T, poisson_bracket(ps, f, g)):
                failures.append(f"{name}: Koszul law")
        for degree in range(0, min(2, T.rank) + 1):
            for _ in range(5):
                eta = random_form(rng, T, degree)
                lhs = sharp(ps, exterior_derivative(T, eta))
                if lhs != -lichnerowicz_differential(ps, sharp(ps, eta)):
                    failures.append(f"{name}: anti-homomorphism at degree {degree}")
        for _ in range(50):
            p = rng.randint(0, 2)
            q = rng.randint(0, 2)
            P = random_multivector(rng, T, p)
            Q = random_multivector(rng, T, q)
            lhs = lichnerowicz_differential(ps, schouten_bracket(T, P, Q))
            head = schouten_bracket(T, lichnerowicz_differential(ps, P), Q)
            tail = schouten_bracket(T, P, lichnerowicz_differential(ps, Q))
            if (p - 1) & 1:
                tail = -tail
            if lhs != head + tail:
                failures.append(f"{name}: bialgebroid compatibility at ({p},{q})")
    _verdict(6, "Poisson constructions and their laws", failures)


def test_criterion_7_dual_bundle_suite():
    rng = random.Random(107)
    failures = []
    for n in (1, 2, 3):
        ps = dual_poisson(construct_tangent(n))
        want_chart = tuple(f"x{i}" for i in range(1, n + 1)) + tuple(
            f"xi{i}" for i in range(1, n + 1)
        )
        if tuple(ps.chart) != want_chart:
            failures.append(f"T*R^{n}: chart")
        want = {(i, n + i): -ONE for i in range(1, n + 1)}
        if ps.bivector.components.get(2, {}) != want:
            failures.append(f"T*R^{n}: coefficients")

    ps = dual_poisson(so3())
    xi1, xi2, xi3 = (Expr.var(f"xi{i}") for i in (1, 2, 3))
    for left, right, out in ((xi1, xi2, xi3), (xi2, xi3, xi1), (xi3, xi1, xi2)):
        if poisson_bracket(ps, left, right) != out:
            failures.append("so(3) dual generator bracket")

    for name, A in verified_fixtures():
        ps = dual_poisson(A)
        for _ in range(50):
            X = random_section(rng, A)
            Y = random_section(rng, A)
            lhs = poisson_bracket(ps, phi_function(ps, X), phi_function(ps, Y))
            if lhs != phi_function(ps, bracket_sections(A, X, Y)):
                failures.append(f"{name}: section bracket law")
        if not homogeneity_check(ps).is_zero():
            failures.append(f"{name}: homogeneity residual")
        residuals = transpose_anchor_check(A, ps)
        if not residuals or any(residuals):
            failures.append(f"{name}: transpose anchor residuals")
    _verdict(7, "dual-bundle Poisson structure", failures)


def test_criterion_8_cli_golden(capsys):
    fixtures = HERE / "fixtures"
    golden = HERE / "golden"
    runs = [
        ("check_tangent_r2.txt", ["check", "--model", str(fixtures / "tangent_r2.alg")], 0),
        ("check_so3.txt", ["check", "--model", str(fixtures / "so3.alg")], 0),
        ("check_broken.txt", ["check", "--model", str(fixtures / "broken_jacobi.alg")], 1),
        ("poisson_check_so3.txt", ["poisson-check", "--model", str(fixtures / "poisson_so3.alg")], 0),
        ("poisson_check_broken.txt", ["poisson-check", "--model", str(fixtures / "poisson_r3_broken.alg")], 1),
        ("schouten_tangent_r3.txt", ["schouten", "--model", str(fixtures / "tangent_r3.alg"), "P", "Q"], 0),
        ("dual_so3.txt", ["dual", "--model", str(fixtures / "so3.alg")], 0),
        ("dual_tangent_r2.txt", ["dual", "--model", str(fixtures / "tangent_r2.alg")], 0),
    ]
    failures = []
    for name, argv, code in runs:
        got = cli_main(argv)
        out = capsys.readouterr().out
        if got != code:
            failures.append(f"{name}: exit {got}, expected {code}")
        if out.encode("utf-8") != (golden / name).read_bytes():
            failures.append(f"{name}: output drift")
    if cli_main(["check", "--model", str(fixtures / "no_such.alg")]) != 2:
        failures.append("usage error did not exit 2")
    capsys.readouterr()
    _verdict(8, "CLI golden outputs and exit codes", failures)
