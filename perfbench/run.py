"""Benchmark of the algebroids engine: one workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload lie-poisson --seed 1 --seconds 20 --trace 0

With `--trace 0` the run reports the end-to-end metrics, with tracing off;
with `--trace 1` it reports the per-layer metrics of a traced run. Both print
a readable summary and, as the last line of stdout, one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.

The run is a closed loop with one client and no threads: tasks run one after
another, in a seeded order, in whole rounds over the workload's task list, so
every seed runs the same mix. The number of rounds is `--seconds` divided by
the workload's measured round time, which makes one run take about
`--seconds` on the reference machine and keeps the sample count, and so the
tail percentile, the same on every run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"

# Untraced seconds per round over the full task list, measured on the
# reference machine (2 CPUs, Python 3.11.7).
ROUND_SECONDS = {
    "lie-poisson": 3.6,
    "poly-poisson": 5.7,
    "dense-forms": 1.25,
    "cli-models": 4.5,
}

# Set-up runs this many times per run; setup_s is the median.
SETUP_REPEATS = 5

# Modules re-imported by every set-up, so set-up time includes the import.
FRESH_MODULES = ("algebroids", "workloads", "generators", "oracles")

END_TO_END = [
    ("tasks_per_s", "1/s"),
    ("task_p50_ms", "ms"),
    ("task_tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

SPAN_LAYERS = [
    "calculus.interior", "calculus.wedge", "calculus.lie_form", "calculus.lie_mv",
    "calculus.schouten", "calculus.schouten_oracle", "calculus.reconstruct",
    "algebroid.verify_axioms", "algebroid.bracket_sections",
    "poisson.is_poisson", "poisson.bracket", "poisson.cotangent", "poisson.koszul",
    "poisson.lichnerowicz",
    "dualpoisson.dual", "dualpoisson.homogeneity", "dualpoisson.transpose",
    "cli.load_model", "cli.execute",
]
LEAF_LAYERS = [
    "algebroid.bracket_table", "algebroid.apply_anchor",
    "expr.mul", "expr.add", "expr.diff", "expr.subs", "expr.parse", "expr.to_text",
]
MODULES = ("expr", "algebroid", "calculus", "poisson", "dualpoisson", "cli")


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = [
        ("calculus.d.calls", "count"),
        ("calculus.d.self_s", "s"),
        ("calculus.d.terms_in", "count"),
        ("calculus.d.terms_out", "count"),
        ("calculus.d.tuples_computed", "count"),
        ("calculus.d.yield", "ratio"),
    ]
    for layer in SPAN_LAYERS + LEAF_LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    names.append(("expr.mul.terms_out", "count"))
    for module in MODULES:
        names += [(f"{module}.self_s", "s"), (f"{module}.self_share", "ratio")]
    names += [
        ("cli.interp_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("cli.startup_share", "ratio"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.spans", "count"),
    ]
    return names


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("lie-poisson", "poly-poisson", "dense-forms", "cli-models"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    return parser.parse_args(argv)


def check_checkout():
    """The benchmark builds the package from this checkout's sources and
    reads its golden files; without them there is nothing to measure."""
    needed = [ROOT / "src" / "algebroids" / "__init__.py", ROOT / "tests" / "test_cli.py", ROOT / "tests" / "golden"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"perfbench: missing from the checkout: {', '.join(missing)}", file=sys.stderr)
        return False
    return True


def fresh_import():
    for name in list(sys.modules):
        if name.split(".")[0] in FRESH_MODULES:
            del sys.modules[name]
    return importlib.import_module("workloads")


def set_up(args, work):
    """One set-up in a new directory under `work`: import the package and the
    workload code, generate the inputs and build the objects or model files.
    For cli-models this also warms a fresh bytecode prefix for the CLI
    children. Nothing is rewritten in place: truncating a file written a
    moment ago can stall on a flush, which made set-up time erratic."""
    work = Path(tempfile.mkdtemp(prefix="setup-", dir=work))
    start = time.perf_counter()
    workloads = fresh_import()
    runner = None
    if args.workload == "cli-models":
        runner = workloads.CliRunner(ROOT, work)
        runner.warm(str(ROOT / "tests" / "fixtures" / "so3.alg"))
    tasks = workloads.build(args.workload, args.seed, args.scale, ROOT, work, runner)
    return time.perf_counter() - start, tasks, runner


def run_tasks(tasks, rounds, order_seed, tracer=None, runner=None):
    """Run whole rounds in a seeded order. Returns one record per task:
    (name, seconds, outcome) with outcome None, ("wrong", msg) or
    ("error", msg). Checks run after the timer stops."""
    rng = random.Random(order_seed)
    perf = time.perf_counter
    records = []
    for _ in range(rounds):
        order = list(range(len(tasks)))
        rng.shuffle(order)
        for i in order:
            task = tasks[i]
            args = task.prepare() if task.prepare else None
            if tracer is not None:
                tracer.task = len(records)
                tracer.install()
            start = perf()
            try:
                result = task.run(args)
                outcome = None
            except Exception as exc:  # a failed task is counted, not fatal
                result = None
                outcome = ("error", f"{type(exc).__name__}: {exc}")
            elapsed = perf() - start
            if tracer is not None:
                tracer.uninstall()
                if runner is not None and result is not None:
                    merge_child_trace(tracer, result)
            if outcome is None:
                try:
                    outcome = task.check(result)
                except Exception as exc:  # a result the check cannot read is wrong
                    outcome = ("wrong", f"unreadable result: {type(exc).__name__}: {exc}")
            records.append((task.name, elapsed, outcome))
    return records


def merge_child_trace(tracer, result):
    """Fold a traced CLI child's counts and spans into the parent tracer."""
    path = Path(result[3][2])
    if path.exists():
        tracer.merge(json.loads(path.read_text(encoding="utf-8")))
        path.unlink()


def rounds_for(args):
    return max(1, round(args.seconds / ROUND_SECONDS[args.workload]))


def tail(latencies):
    """Latency at the highest percentile with at least ten samples above it,
    with that percentile and the sample count."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        # No percentile has ten samples above it (tiny smoke runs only).
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def summarize(records):
    attempted = len(records)
    wrong = [r for r in records if r[2] and r[2][0] == "wrong"]
    failed = [r for r in records if r[2]]
    return attempted, failed, wrong


def report(metrics, units, correct, attempted, failed, notes):
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6f} {units[name]}")
    payload = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(payload))


def end_to_end(args, work):
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, tasks, runner = set_up(args, work)
        setups.append(seconds)
    rounds = rounds_for(args)
    records = run_tasks(tasks, rounds, args.seed)
    attempted, failed, wrong = summarize(records)
    latencies = [r[1] for r in records]
    tail_s, tail_pct, count = tail(latencies)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-models" else resource.RUSAGE_SELF
    metrics = {
        "tasks_per_s": attempted / sum(latencies),
        "task_p50_ms": 1000 * statistics.median(latencies),
        "task_tail_ms": 1000 * tail_s,
        "ok_ratio": (attempted - len(failed)) / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    notes = [
        f"workload {args.workload} seed {args.seed}: {len(tasks)} tasks x {rounds} rounds",
        f"task_tail_ms is p{tail_pct:.2f} of {count} samples",
        f"fail_ratio {len(failed) / attempted:.6f} ({len(failed)} of {attempted})",
    ]
    notes += [f"failed: {name}: {outcome[0]}: {outcome[1]}" for name, _, outcome in failed[:10]]
    units = dict(END_TO_END)
    report(metrics, units, not wrong, attempted, len(failed), notes)


def startup_ms(runner, code, repeats=7):
    """Median wall time of a child `python -c code` in the CLI environment."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=runner.env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


def traced(args, work):
    _, tasks, runner = set_up(args, work)
    import algebroids
    from tracing import Tracer

    rounds = max(1, rounds_for(args) // 4)
    tracer = Tracer(algebroids)
    if runner is not None:
        runner.trace_dir = work / "traces"
        runner.trace_dir.mkdir(exist_ok=True)
    traced_records = run_tasks(tasks, rounds, args.seed, tracer, runner)
    if runner is not None:
        runner.trace_dir = None
    plain_records = run_tasks(tasks, rounds, args.seed)
    traced_s = sum(r[1] for r in traced_records)
    plain_s = sum(r[1] for r in plain_records)

    metrics = {}
    d_extra = tracer.extra.get("calculus.d", {})
    metrics["calculus.d.calls"] = tracer.calls.get("calculus.d", 0)
    metrics["calculus.d.self_s"] = tracer.self_s.get("calculus.d", 0.0)
    for key in ("terms_in", "terms_out", "tuples_computed"):
        metrics[f"calculus.d.{key}"] = d_extra.get(key, 0)
    tuples = d_extra.get("tuples_computed", 0)
    metrics["calculus.d.yield"] = d_extra.get("terms_out", 0) / tuples if tuples else 0.0
    for layer in SPAN_LAYERS + LEAF_LAYERS:
        metrics[f"{layer}.calls"] = tracer.calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0)
    metrics["expr.mul.terms_out"] = tracer.extra.get("expr.mul", {}).get("terms_out", 0)
    module_self = tracer.module_self_s()
    for module in MODULES:
        metrics[f"{module}.self_s"] = module_self[module]
        metrics[f"{module}.self_share"] = module_self[module] / traced_s

    interp = imported = share = 0.0
    if runner is not None:
        interp = startup_ms(runner, "pass")
        imported = startup_ms(runner, "import algebroids.cli") - interp
        fixture = [r[1] for r in plain_records if r[0].startswith("golden/")]
        share = (interp + imported) / (1000 * statistics.median(fixture))
    metrics["cli.interp_ms"] = interp
    metrics["cli.import_ms"] = imported
    metrics["cli.startup_share"] = share
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    metrics["trace.spans"] = len(tracer.spans)

    spans_path = BUILD / f"spans-{args.workload}.jsonl"
    tracer.write_spans(spans_path)
    attempted, failed, wrong = summarize(traced_records + plain_records)
    notes = [
        f"workload {args.workload} seed {args.seed}: {len(tasks)} tasks x {rounds} rounds, traced then untraced",
        f"spans written to {spans_path.relative_to(ROOT)}",
        "self-time split: " + ", ".join(f"{m} {metrics[f'{m}.self_share']:.1%}" for m in MODULES),
    ]
    units = dict(per_layer_names())
    report({name: metrics[name] for name, _ in per_layer_names()}, units, not wrong, attempted, len(failed), notes)


def main(argv=None):
    args = parse_args(argv)
    if not check_checkout():
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    BUILD.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    # In-process imports read and write bytecode under the work directory,
    # whatever the environment says, so set-up time does not depend on it.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(work / "pycache-inproc")
    try:
        fresh_import()
        if args.trace:
            traced(args, work)
        else:
            end_to_end(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
