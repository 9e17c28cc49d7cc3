"""The four workloads: seeded inputs, timed tasks and their known answers.

A task is one request that produces a verdict or a result. `run(args)` is the
timed call; `prepare()` (untimed) hands it fresh arguments, so a `verified`
flag set by an earlier task never changes the work a later one does; and
`check(result)` (untimed) compares the result with an answer the benchmark
computed without the function under test. `check` returns None when the
result is right, `("wrong", message)` for a wrong result and `("error",
message)` for a failure that is not a wrong answer (an exception, a wrong
exit code, a traceback).

Why these workloads and sizes (measured on 2 CPUs, Python 3.11.7):

- lie-poisson: Lie algebras over a point, so every coefficient is a constant
  and the cost is index loops over C(k, p+1) tuples. Ranks 6 to 15 span a
  100x cost range; so(6) (rank 15) is the ROADMAP's reference size, where
  `dual_poisson` takes about 1.3 s. Two perturbed algebras keep negative
  verdicts in the mix. Exercises the sparse-d mechanism.
- poly-poisson: Jacobian Poisson structures on R^4 and R^5, rank <= 5 but
  polynomial coefficients with 2 to 130 terms, so `Expr` arithmetic
  dominates. The four structures with 73 to 130 terms per entry only get
  the Jacobi check (0.6 to 1 s each), and there are four of them so that
  the tail percentile falls inside their class; the cotangent-side tasks run
  on 2- to 23-term structures, where they take 0.01 to 0.4 s. Index-loop
  changes should not move it.
- dense-forms: the linear gl(n) action algebroids (rank 4 and 9) and tangent
  R^5 / R^6 with every index tuple populated, so d's yield is close to 1.
  The rank-9 Schouten bracket (1 s) is the tail; the other tasks take 0.2 to
  100 ms. A sparse rewrite that costs dense inputs shows here.
- cli-models: one `python -m algebroids.cli` child per task, serially: the
  24 golden runs of tests/test_cli.py (start-up bound, about 33 ms each),
  generated so(5) models (about 150 ms) and Jacobian models with 83- to
  119-term strings (about 0.75 s), malformed models, and one model whose base clashes
  with the dual's fiber names (a known defect: it exits 1 with a traceback,
  so it counts as a failure until the CLI maps it to exit 2).
"""

from __future__ import annotations

import ast
import functools
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import generators as gen
import oracles as orc
from algebroids import algebroid as alg
from algebroids import calculus as cal
from algebroids import dualpoisson as dp
from algebroids import poisson as poi
from algebroids.expr import Expr, parse


@dataclass
class Task:
    name: str
    run: Callable
    check: Callable
    prepare: Optional[Callable] = None


def _shape(workload, label):
    """The seed-independent generator for an instance's shape."""
    return random.Random(f"{workload}:{label}")


def _fresh(A):
    """A new Algebroid object over the same (immutable) tables, with its
    `verified` flag clear."""
    return alg.Algebroid(A.chart, A.rank, A.anchor, A.structure)


def _const_structure(constants):
    return {key: {c: Expr.const(v) for c, v in table.items()} for key, table in constants.items()}


def _wrong(message):
    return ("wrong", message)


# ---------------------------------------------------------------------------
# lie-poisson

# (label, build, perturbed) per scale; `build` takes (shape, rng).
LIE_ALGEBRAS = {
    "full": [
        ("so4", lambda shape, rng: gen.matrix_lie_algebra("so", 4), False),
        ("so5", lambda shape, rng: gen.matrix_lie_algebra("so", 5), False),
        ("so6", lambda shape, rng: gen.matrix_lie_algebra("so", 6), False),
        ("gl3", lambda shape, rng: gen.matrix_lie_algebra("gl", 3), False),
        ("upper5", lambda shape, rng: gen.matrix_lie_algebra("upper", 5), False),
        ("heis11", lambda shape, rng: gen.heisenberg(5), False),
        ("nil8", lambda shape, rng: gen.two_step_nilpotent(shape, rng, 5, 3), False),
        ("nil12", lambda shape, rng: gen.two_step_nilpotent(shape, rng, 7, 5), False),
        ("gl3-perturbed", lambda shape, rng: gen.matrix_lie_algebra("gl", 3), True),
        ("nil10-perturbed", lambda shape, rng: gen.two_step_nilpotent(shape, rng, 6, 4), True),
    ],
    "tiny": [
        ("so4", lambda shape, rng: gen.matrix_lie_algebra("so", 4), False),
        ("heis5", lambda shape, rng: gen.heisenberg(2), False),
        ("so4-perturbed", lambda shape, rng: gen.matrix_lie_algebra("so", 4), True),
    ],
}


def _perturb_until_broken(shape, rng, rank, constants):
    """Perturb until the benchmark's own Jacobiator is nonzero, so the
    perturbed inputs really are negative cases."""
    while True:
        broken = gen.perturbed_constants(shape, rng, rank, constants)
        if orc.lie_jacobiator(rank, broken):
            return broken


def lie_poisson(rng, scale):
    tasks = []
    for label, build, perturb in LIE_ALGEBRAS[scale]:
        shape = _shape("lie-poisson", label)
        rank, constants = build(shape, rng)
        if perturb:
            constants = _perturb_until_broken(shape, rng, rank, constants)
        # Relabelling last keeps a perturbed algebra isomorphic to one fixed
        # shape, whatever the seed.
        constants = gen.relabelled(rng, rank, constants)
        jacobiator = orc.lie_jacobiator(rank, constants)
        tasks.extend(_lie_tasks(label, rank, constants, jacobiator))
    return tasks


def _lie_tasks(label, rank, constants, jacobiator):
    A = alg.construct_lie_algebra(rank, constants)
    holds = not jacobiator
    expected_structure = _const_structure(constants)
    expected_dual = orc.dual_entries(0, (), constants)

    def check_verify(report):
        if report.passed != holds:
            return _wrong(f"verify_axioms says {report.passed}, the Jacobiator says {holds}")
        got = {
            key: {index[0]: value for index, value in section.components.get(1, {}).items()}
            for key, section in report.jacobi_residuals.items()
            if not section.is_zero()
        }
        want = {key: {e: Expr.const(v) for e, v in table.items()} for key, table in jacobiator.items()}
        if got != want:
            return _wrong("Jacobi residuals differ from the structure-constant Jacobiator")
        return None

    def check_dual(ps):
        if ps.verified != holds:
            return _wrong(f"dual Jacobi verdict {ps.verified}, expected {holds}")
        if ps.bivector.components.get(2, {}) != expected_dual:
            return _wrong("dual bivector differs from sum_c C^c_ab xi_c")
        return None

    fiber = tuple(f"xi{a}" for a in range(1, rank + 1))
    tangent = alg.construct_tangent(rank, fiber)
    dual_ps = dp.DualPoissonStructure(
        dp.DualChart((), fiber),
        cal.GradedElement(tangent, cal.MULTIVECTOR, {2: expected_dual} if expected_dual else {}),
    )

    def check_homogeneity(residual):
        if not residual.is_zero():
            return _wrong("a linear bivector failed the homogeneity check")
        return None

    def reconstruct(B):
        delta = cal.OperatorValue(lambda eta: cal.exterior_derivative(B, eta), 1)
        try:
            return cal.delta_reconstruct(B.chart, B.rank, delta)
        except cal.ReconstructionError as exc:
            return exc

    def check_reconstruct(result):
        if not holds:
            # d squares to zero exactly when Jacobi holds.
            if not isinstance(result, cal.ReconstructionError):
                return _wrong("reconstruction accepted the d of a Jacobi-broken algebra")
            return None
        if isinstance(result, Exception):
            return _wrong(f"reconstruction rejected a Lie algebra: {result}")
        if result.structure != expected_structure or result.anchor != A.anchor:
            return _wrong("reconstructed tables differ from the input")
        return None

    return [
        Task(f"{label}/verify_axioms", lambda B: alg.verify_axioms(B), check_verify, lambda: _fresh(A)),
        Task(
            f"{label}/dual_poisson",
            lambda B: dp.dual_poisson(B, force=not holds),
            check_dual,
            lambda: _fresh(A),
        ),
        Task(f"{label}/homogeneity_check", lambda ps: dp.homogeneity_check(ps), check_homogeneity, lambda: dual_ps),
        Task(f"{label}/delta_reconstruct", reconstruct, check_reconstruct, lambda: _fresh(A)),
    ]


# ---------------------------------------------------------------------------
# poly-poisson

# (label, n, Casimir terms, Casimir degree, task set)
JACOBIANS = {
    "full": [
        ("j4-large-a", 4, 20, 4, "jacobi"),
        ("j4-large-b", 4, 20, 4, "jacobi"),
        ("j4-large-c", 4, 20, 4, "jacobi"),
        ("j4-large-perturbed", 4, 20, 4, "jacobi"),
        ("j4", 4, 8, 3, "full"),
        ("j5", 5, 4, 2, "full"),
        ("j4-perturbed", 4, 8, 3, "both-paths"),
        ("j5-perturbed", 5, 4, 2, "both-paths"),
    ],
    "tiny": [
        ("j4", 4, 2, 2, "full"),
        ("j4-perturbed", 4, 2, 2, "both-paths"),
    ],
}


def poly_poisson(rng, scale):
    tasks = []
    for label, n, nterms, maxdeg, kind in JACOBIANS[scale]:
        shape = _shape("poly-poisson", label)
        chart, entries = gen.jacobian_poisson(shape, rng, n, nterms, maxdeg)
        if label.endswith("perturbed"):
            entries = gen.perturbed_bivector(shape, rng, chart, entries)
        tasks.extend(_poisson_tasks(shape, rng, label, chart, entries, kind))
    return tasks


def _poisson_tasks(shape, rng, label, chart, entries, kind):
    n = len(chart)
    tangent = alg.construct_tangent(n, chart)
    ps = poi.PoissonStructure(chart, cal.GradedElement(tangent, cal.MULTIVECTOR, {2: entries}))
    # Known answers are computed once, at the first check, outside set-up.
    jacobiator = functools.cache(lambda: orc.poisson_jacobiator(chart, entries))

    def check_square(residual):
        # The Schouten square [L, L] has components 2 * Jacobiator(x_i, x_j, x_k).
        expected = {key: value * 2 for key, value in jacobiator().items()}
        if residual.components.get(3, {}) != expected or set(residual.components) - {3}:
            return _wrong("Schouten square differs from twice the Jacobiator")
        return None

    def check_is_poisson(report):
        holds = not jacobiator()
        if report.passed != holds:
            return _wrong(f"is_poisson says {report.passed}, the Jacobiator says {holds}")
        return check_square(report.residual)

    tasks = [Task(f"{label}/is_poisson", lambda p: poi.is_poisson(p), check_is_poisson, lambda: _fresh_ps(ps))]
    if kind in ("both-paths", "full"):
        tasks.append(
            Task(
                f"{label}/schouten_oracle",
                lambda lam: cal.schouten_oracle(lam.algebroid, lam, lam),
                check_square,
                lambda: ps.bivector,
            )
        )
    if kind != "full":
        return tasks

    anchor, structure = orc.cotangent_tables(chart, entries)
    cot = alg.new_algebroid(chart, n, anchor, structure)

    def cotangent_verify(p):
        built = poi.cotangent_algebroid(p, force=True)
        return built, alg.verify_axioms(built)

    def check_cotangent(result):
        built, report = result
        if built != cot:
            return _wrong("cotangent tables differ from L^{ij} and d_k L^{ij}")
        if not report.passed:
            return _wrong("the cotangent algebroid of a Poisson structure failed verify_axioms")
        return None

    f = gen.random_poly(shape, rng, chart, 4, 2)
    g = gen.random_poly(shape, rng, chart, 4, 2)
    df = cal.GradedElement(tangent, cal.FORM, {1: orc.gradient_form(chart, f)})
    dg = cal.GradedElement(tangent, cal.FORM, {1: orc.gradient_form(chart, g)})

    def check_koszul(result):
        expected = orc.gradient_form(chart, orc.poisson_bracket(chart, entries, f, g))
        if result.components != ({1: expected} if expected else {}):
            return _wrong("koszul(df, dg) differs from d{f, g}")
        return None

    section = cal.GradedElement(
        tangent, cal.MULTIVECTOR, {1: {(i,): gen.random_poly(shape, rng, chart, 2, 2) for i in range(1, n + 1)}}
    )

    def lichnerowicz_twice(p):
        once = poi.lichnerowicz_differential(p, section, force=True)
        return poi.lichnerowicz_differential(p, once, force=True)

    def check_zero(result):
        if not result.is_zero():
            return _wrong("expected exactly zero")
        return None

    def reconstruct(B):
        delta = cal.OperatorValue(lambda eta: cal.exterior_derivative(B, eta), 1)
        return cal.delta_reconstruct(B.chart, B.rank, delta)

    def check_reconstruct(result):
        if result != cot:
            return _wrong("reconstructed tables differ from the cotangent algebroid")
        return None

    fiber = tuple(f"xi{a}" for a in range(1, n + 1))
    dual_entries = orc.dual_entries(n, anchor, structure)
    dual_tangent = alg.construct_tangent(2 * n, chart + fiber)
    dual_ps = dp.DualPoissonStructure(
        dp.DualChart(chart, fiber), cal.GradedElement(dual_tangent, cal.MULTIVECTOR, {2: dual_entries})
    )

    def check_dual(result):
        if not result.verified:
            return _wrong("dual of a cotangent algebroid failed its Jacobi check")
        if result.bivector.components.get(2, {}) != dual_entries:
            return _wrong("dual bivector differs from the anchor and structure tables")
        return None

    def check_transpose(residuals):
        if any(residuals):
            return _wrong("the transposed anchor of a Lie algebroid is not a Poisson map")
        return None

    tasks.extend(
        [
            Task(f"{label}/cotangent_verify", cotangent_verify, check_cotangent, lambda: ps),
            Task(f"{label}/koszul", lambda p: poi.koszul_bracket(p, df, dg, force=True), check_koszul, lambda: ps),
            Task(f"{label}/lichnerowicz_twice", lichnerowicz_twice, check_zero, lambda: ps),
            Task(f"{label}/delta_reconstruct", reconstruct, check_reconstruct, lambda: _fresh(cot)),
            Task(f"{label}/dual_poisson", lambda B: dp.dual_poisson(B), check_dual, lambda: _verified(cot)),
            Task(
                f"{label}/transpose_anchor_check",
                lambda B: dp.transpose_anchor_check(B, dual_ps),
                check_transpose,
                lambda: _verified(cot),
            ),
        ]
    )
    return tasks


def _fresh_ps(ps):
    return poi.PoissonStructure(ps.chart, ps.bivector)


def _verified(A):
    """A fresh copy marked verified: the algebroid is a cotangent algebroid of
    a Poisson structure, a Lie algebroid by theorem, and the verifier itself
    is timed in the cotangent_verify task."""
    B = _fresh(A)
    B.verified = True
    return B


# ---------------------------------------------------------------------------
# dense-forms

# (label, build) per scale; `build` returns (chart, rank, anchor, constants).
DENSE_ALGEBROIDS = {
    "full": [
        ("gl2-on-R2", lambda: gen.gl_action(2)),
        ("gl3-on-R3", lambda: gen.gl_action(3)),
        ("tangent-R5", lambda: (tuple(f"x{i}" for i in range(1, 6)), 5, None, {})),
        ("tangent-R6", lambda: (tuple(f"x{i}" for i in range(1, 7)), 6, None, {})),
    ],
    "tiny": [
        ("gl1-on-R1", lambda: gen.gl_action(1)),
        ("tangent-R2", lambda: (("x1", "x2"), 2, None, {})),
    ],
}


def dense_forms(rng, scale):
    tasks = []
    for label, build in DENSE_ALGEBROIDS[scale]:
        chart, rank, anchor, constants = build()
        if anchor is None:
            A = alg.construct_tangent(rank, chart)
        else:
            A = alg.new_algebroid(chart, rank, anchor, constants)
        tasks.extend(_dense_tasks(_shape("dense-forms", label), rng, label, A))
    return tasks


def _dense_tasks(shape, rng, label, A):
    k, chart = A.rank, A.chart
    top = min(k, 3)
    forms = {p: gen.dense_table(shape, rng, k, p, chart) for p in range(1, top + 1)}
    section_table = gen.dense_table(shape, rng, k, 1, chart)
    section = {index[0]: value for index, value in section_table.items()}
    V = cal.GradedElement(A, cal.MULTIVECTOR, {1: section_table})
    P = cal.GradedElement(A, cal.MULTIVECTOR, {2: gen.dense_table(shape, rng, k, 2, chart)}) if k >= 2 else None
    Q = cal.GradedElement(A, cal.MULTIVECTOR, {2: gen.dense_table(shape, rng, k, 2, chart)}) if k >= 2 else None
    eta = {p: cal.GradedElement(A, cal.FORM, {p: table}) for p, table in forms.items()}
    lower = min(2, top)

    def d_squared(_):
        return [cal.exterior_derivative(A, cal.exterior_derivative(A, eta[p])) for p in sorted(eta)]

    def check_d_squared(results):
        if any(not r.is_zero() for r in results):
            return _wrong("d(d(eta)) is not zero")
        return None

    def cartan(_):
        form = eta[lower]
        return (
            cal.lie_derivative_form(A, V, form),
            cal.interior_product(V, cal.exterior_derivative(A, form)),
            cal.exterior_derivative(A, cal.interior_product(V, form)),
        )

    def check_cartan(result):
        lie, outer, inner = result
        if lie != outer + inner:
            return _wrong("L_V differs from i_V d + d i_V")
        return None

    def wedge(_):
        return cal.wedge(eta[1], eta[lower])

    def check_wedge(result):
        expected = orc.wedge_reference(k, 1, forms[1], lower, forms[lower])
        if result.components != ({1 + lower: expected} if expected else {}):
            return _wrong("wedge differs from the sum over index splits")
        return None

    def interior(_):
        return cal.interior_product(V, eta[top])

    def check_interior(result):
        expected = orc.interior_reference(k, section, top, forms[top])
        if result.components != ({top - 1: expected} if expected else {}):
            return _wrong("interior product differs from the contraction sum")
        return None

    tasks = [
        Task(f"{label}/d_squared", d_squared, check_d_squared),
        Task(f"{label}/cartan", cartan, check_cartan),
        Task(f"{label}/wedge", wedge, check_wedge),
        Task(f"{label}/interior", interior, check_interior),
    ]
    if P is None:
        return tasks

    def lie_mv(_):
        return cal.lie_derivative_multivector(A, V, P)

    # Checked against the operator-extraction Schouten path, which does not
    # use the multivector Lie derivative.
    def check_lie_mv(result):
        if result != cal.schouten_bracket(A, V, P):
            return _wrong("L_V P differs from [V, P] by operator extraction")
        return None

    def both_paths(_):
        return cal.schouten_bracket(A, P, Q), cal.schouten_oracle(A, P, Q)

    def check_both_paths(result):
        if result[0] != result[1]:
            return _wrong("the two Schouten paths disagree")
        return None

    tasks.extend(
        [
            Task(f"{label}/lie_multivector", lie_mv, check_lie_mv),
            Task(f"{label}/schouten_two_paths", both_paths, check_both_paths),
        ]
    )
    return tasks


# ---------------------------------------------------------------------------
# cli-models


def golden_runs(root):
    """GOLDEN_RUNS from tests/test_cli.py, read with `ast` so the test file
    stays the single source: [(golden file, argv, exit code)]."""
    source = (root / "tests" / "test_cli.py").read_text(encoding="utf-8")
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "GOLDEN_RUNS" for t in node.targets):
            break
    else:
        raise RuntimeError("tests/test_cli.py has no GOLDEN_RUNS")

    def value(item):
        if isinstance(item, ast.Call) and getattr(item.func, "id", None) == "fixture":
            return str(root / "tests" / "fixtures" / value(item.args[0]))
        if isinstance(item, ast.List):
            return [value(x) for x in item.elts]
        return ast.literal_eval(item)

    return [tuple(value(x) for x in run.elts) for run in node.value.elts]


class CliRunner:
    """Runs one CLI child per task with a pinned environment: the package's
    `src` on PYTHONPATH and bytecode read from a warmed PYTHONPYCACHEPREFIX
    inside the work directory, never written next to the sources."""

    def __init__(self, root, work):
        self.root = root
        # Set to a directory while a traced run wants the children traced.
        self.trace_dir = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.env.pop("PYTHONSTARTUP", None)
        self.traced_calls = 0

    def warm(self, fixture):
        """Fill the bytecode prefix for the interpreter's start-up modules,
        the package and the standard library modules a command imports."""
        env = dict(self.env)
        env.pop("PYTHONDONTWRITEBYTECODE")
        subprocess.run(
            [sys.executable, "-m", "algebroids.cli", "check", "--model", fixture],
            env=env, cwd=self.root, capture_output=True, check=True,
        )
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("trace_child.py"))],
            env=env, cwd=self.root, capture_output=True,
        )

    def command(self, argv):
        if self.trace_dir is None:
            return [sys.executable, "-m", "algebroids.cli", *argv]
        self.traced_calls += 1
        out = self.trace_dir / f"child-{self.traced_calls}.json"
        return [sys.executable, str(Path(__file__).with_name("trace_child.py")), str(out), *argv]

    def run(self, argv):
        cmd = self.command(argv)
        # A hung child is killed and counted as a failed task.
        done = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True, timeout=60)
        return done.returncode, done.stdout, done.stderr, cmd


def _check_cli(expected_code, expected_out=None, compare=None):
    """Build a check for a CLI result: exit code and a clean stderr first
    (errors), then stdout, byte for byte or through `compare` (wrong)."""

    def check(result):
        code, out, err, _ = result
        if b"Traceback" in err:
            return ("error", f"traceback on stderr, exit {code}")
        if code != expected_code:
            return ("error", f"exit {code}, expected {expected_code}")
        if expected_code == 2:
            lines = err.decode("utf-8", "replace").splitlines()
            if len(lines) != 1 or not lines[0].startswith("algebroids: "):
                return ("error", "expected a one-line error on stderr")
            return None
        if expected_out is not None and out != expected_out:
            return _wrong("stdout differs from the expected text")
        if compare is not None:
            return compare(out.decode("utf-8"))
        return None

    return check


def _parse_lines(text, pattern_prefix):
    """{key: value text} for lines `prefix[...] = "..."` or `[...] = ...`."""
    out = {}
    for line in text.splitlines():
        if line.startswith(pattern_prefix) and " = " in line:
            key, _, value = line.partition(" = ")
            out[key] = value.strip().strip('"')
    return out


def cli_models(rng, scale, root, work, runner):
    tasks = []
    runs = golden_runs(root)
    if scale == "tiny":
        runs = runs[:3]
    for golden, argv, code in runs:
        expected = (root / "tests" / "golden" / golden).read_bytes()
        tasks.append(Task(f"golden/{golden}", runner.run, _check_cli(code, expected), lambda argv=argv: argv))

    models = work / "models"
    models.mkdir(parents=True, exist_ok=True)

    # so(5) with seeded relabelling: a rank-10 algebroid over a point.
    n_so = 5 if scale == "full" else 3
    rank, constants = gen.matrix_lie_algebra("so", n_so)
    constants = gen.relabelled(rng, rank, constants)
    so_path = models / "so.alg"
    so_path.write_text(gen.lie_algebra_model(rank, constants), encoding="utf-8")
    dual = orc.dual_entries(0, (), constants)
    fiber = tuple(f"xi{a}" for a in range(1, rank + 1))

    def compare_dual(text):
        got = {key: parse(value, fiber) for key, value in _parse_lines(text, "L[").items()}
        want = {f"L[{i}][{j}]": value for (i, j), value in dual.items()}
        return None if got == want else _wrong("dual bivector differs from sum_c C^c_ab xi_c")

    def compare_reconstruct(text):
        got = {key: parse(value, ()) for key, value in _parse_lines(text, "C[").items()}
        want = {f"C[{c}][{a}][{b}]": Expr.const(v) for (a, b), t in constants.items() for c, v in t.items()}
        return None if got == want else _wrong("reconstructed tables differ from the model")

    so = str(so_path)
    tasks += [
        Task("so/check", runner.run, _check_cli(0, b"axioms: PASS\n"), lambda: ["check", "--model", so]),
        Task("so/dual", runner.run, _check_cli(0, compare=compare_dual), lambda: ["dual", "--model", so]),
        Task(
            "so/dual-verify",
            runner.run,
            _check_cli(0, b"jacobi: PASS\nhomogeneity: PASS\npoisson-map: PASS\n"),
            lambda: ["dual-verify", "--model", so],
        ),
        Task("so/reconstruct", runner.run, _check_cli(0, compare=compare_reconstruct), lambda: ["reconstruct", "--model", so]),
    ]

    # A Jacobian Poisson structure on R^4 whose entries have 83 to 119 terms.
    nterms = 22 if scale == "full" else 2
    shape = _shape("cli-models", "jacobian")
    chart, entries = gen.jacobian_poisson(shape, rng, 4, nterms, 4 if scale == "full" else 2)
    f = gen.random_poly(shape, rng, chart, 3, 2)
    g = gen.random_poly(shape, rng, chart, 3, 2)
    path = models / "jacobian.alg"
    path.write_text(
        gen.poisson_model(
            chart,
            entries,
            forms=[("a", orc.gradient_form(chart, f)), ("b", orc.gradient_form(chart, g))],
            multivectors=[("f", {(): f})],
        ),
        encoding="utf-8",
    )
    koszul_expected = orc.gradient_form(chart, orc.poisson_bracket(chart, entries, f, g))
    hamiltonian = orc.hamiltonian_field(chart, entries, f)
    cot_anchor, cot_structure = orc.cotangent_tables(chart, entries)

    def compare_element(expected):
        def compare(text):
            got = {}
            for key, value in _parse_lines(text, "[").items():
                index = tuple(int(t) for t in key.strip("[]").split(",") if t)
                got[index] = parse(value, chart)
            return None if got == expected else _wrong("element differs from the independently computed one")

        return compare

    def compare_cotangent(text):
        got = {key: parse(value, chart) for key, value in _parse_lines(text, "").items() if key[:1] in "aC"}
        want = {}
        for a, row in enumerate(cot_anchor, start=1):
            for i, value in enumerate(row, start=1):
                if value:
                    want[f"anchor[{a}][{i}]"] = value
        for (a, b), table in cot_structure.items():
            for c, value in table.items():
                want[f"C[{c}][{a}][{b}]"] = value
        return None if got == want else _wrong("cotangent tables differ from L^{ij} and d_k L^{ij}")

    jac = str(path)
    tasks += [
        Task("jacobian/poisson-check", runner.run, _check_cli(0, b"poisson: PASS\n"), lambda: ["poisson-check", "--model", jac]),
        Task(
            "jacobian/koszul",
            runner.run,
            _check_cli(0, compare=compare_element(koszul_expected)),
            lambda: ["koszul", "--model", jac, "a", "b"],
        ),
        Task(
            "jacobian/lichnerowicz",
            runner.run,
            _check_cli(0, compare=compare_element(hamiltonian)),
            lambda: ["lichnerowicz", "--model", jac, "f"],
        ),
        Task("jacobian/cotangent", runner.run, _check_cli(0, compare=compare_cotangent), lambda: ["cotangent", "--model", jac]),
    ]

    for name, text in gen.malformed_models(rng):
        bad = models / f"malformed-{name}.alg"
        bad.write_text(text, encoding="utf-8")
        command = "check" if "[algebroid" in text else "poisson-check"
        tasks.append(Task(f"malformed/{name}", runner.run, _check_cli(2), lambda c=command, b=str(bad): [c, "--model", b]))

    clash = models / "fiber-clash.alg"
    clash.write_text(gen.fiber_clash_model(rng), encoding="utf-8")
    tasks.append(Task("malformed/fiber-clash", runner.run, _check_cli(2), lambda: ["dual", "--model", str(clash)]))
    return tasks


def build(workload, seed, scale, root, work, runner=None):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "lie-poisson":
        return lie_poisson(rng, scale)
    if workload == "poly-poisson":
        return poly_poisson(rng, scale)
    if workload == "dense-forms":
        return dense_forms(rng, scale)
    if workload == "cli-models":
        return cli_models(rng, scale, root, work, runner)
    raise ValueError(f"unknown workload {workload!r}")

