"""Tracing from outside the package.

`Tracer.install()` replaces public functions of the package modules with
timing wrappers, set on the module or class attribute that callers look up at
call time; `uninstall()` puts the originals back. Nothing under `src/` is
edited. Two kinds of wrapper exist:

- spans, for the layer entry points: each call records (id, parent id, task
  id, name, start, end, self time) in memory;
- leaves, for the hot scalar and table operations (`Expr` arithmetic,
  `bracket_table`, `apply_anchor`): only per-name call counts and self time
  are aggregated, because there are millions of such calls per task.

Self time is a call's duration minus the time its wrapped children took,
kept on one stack shared by both kinds, so a span's self time excludes the
leaf calls under it as well.
"""

from __future__ import annotations

import json
import time
from math import comb

# (metric name, module, function). Names follow <module>.<function>, with
# the short function names used in the metric names.
SPANS = [
    ("algebroid.verify_axioms", "algebroid", "verify_axioms"),
    ("algebroid.bracket_sections", "algebroid", "bracket_sections"),
    ("algebroid.new_algebroid", "algebroid", "new_algebroid"),
    ("algebroid.anchor_push", "algebroid", "anchor_push"),
    ("calculus.d", "calculus", "exterior_derivative"),
    ("calculus.interior", "calculus", "interior_product"),
    ("calculus.wedge", "calculus", "wedge"),
    ("calculus.pairing", "calculus", "pairing"),
    ("calculus.lie_form", "calculus", "lie_derivative_form"),
    ("calculus.lie_mv", "calculus", "lie_derivative_multivector"),
    ("calculus.lie_operator", "calculus", "lie_operator"),
    ("calculus.schouten", "calculus", "schouten_bracket"),
    ("calculus.schouten_oracle", "calculus", "schouten_oracle"),
    ("calculus.reconstruct", "calculus", "delta_reconstruct"),
    ("poisson.is_poisson", "poisson", "is_poisson"),
    ("poisson.bracket", "poisson", "poisson_bracket"),
    ("poisson.sharp", "poisson", "sharp"),
    ("poisson.cotangent", "poisson", "cotangent_algebroid"),
    ("poisson.koszul", "poisson", "koszul_bracket"),
    ("poisson.lichnerowicz", "poisson", "lichnerowicz_differential"),
    ("poisson.new_poisson", "poisson", "new_poisson"),
    ("dualpoisson.dual", "dualpoisson", "dual_poisson"),
    ("dualpoisson.homogeneity", "dualpoisson", "homogeneity_check"),
    ("dualpoisson.transpose", "dualpoisson", "transpose_anchor_check"),
    ("dualpoisson.phi", "dualpoisson", "phi_function"),
    ("cli.load_model", "cli", "load_model"),
    ("cli.execute", "cli", "execute"),
]

# (metric name, class path, attribute names sharing the metric)
LEAVES = [
    ("expr.mul", "expr.Expr", ("__mul__", "__rmul__")),
    ("expr.add", "expr.Expr", ("__add__", "__radd__")),
    ("expr.sub", "expr.Expr", ("__sub__", "__rsub__")),
    ("expr.neg", "expr.Expr", ("__neg__",)),
    ("expr.pow", "expr.Expr", ("__pow__",)),
    ("expr.eq", "expr.Expr", ("__eq__",)),
    ("expr.diff", "expr.Expr", ("diff",)),
    ("expr.subs", "expr.Expr", ("subs",)),
    ("expr.variables", "expr.Expr", ("variables",)),
    ("expr.to_text", "expr.Expr", ("to_text",)),
    ("algebroid.bracket_table", "algebroid.Algebroid", ("bracket_table",)),
    ("algebroid.apply_anchor", "algebroid.Algebroid", ("apply_anchor",)),
    ("algebroid.apply_anchor_section", "algebroid.Algebroid", ("apply_anchor_section",)),
]

# `parse` is a module function bound by name in both expr and cli.
PARSE_BINDINGS = ("expr", "cli")

MODULES = ("expr", "algebroid", "calculus", "poisson", "dualpoisson", "cli")


def _terms(value):
    return len(value.items())


def _form_terms(element):
    return sum(len(table) for table in element.components.values())


def _d_tuples(args):
    """Index tuples the dense d formula visits for this input: C(k, p+1) per
    degree-p component (k for p = 0). Computed from the input's shape."""
    algebroid, eta = args[0], args[1]
    k = algebroid.rank
    return sum(comb(k, p + 1) for p in eta.components)


class Tracer:
    """Per-name call counts and self times, plus a span log in memory."""

    def __init__(self, package):
        self.package = package
        self.calls = {}
        self.self_s = {}
        self.extra = {}
        self.spans = []
        self.task = None
        self._stack = [[0.0, None]]
        self._saved = []

    def _bump(self, name, key, value):
        table = self.extra.setdefault(name, {})
        table[key] = table.get(key, 0) + value

    def _wrap(self, name, fn, span):
        stack = self._stack
        spans = self.spans
        calls = self.calls
        selfs = self.self_s
        perf = time.perf_counter
        calls.setdefault(name, 0)
        selfs.setdefault(name, 0.0)
        tracer = self
        is_d = name == "calculus.d"
        is_mul = name == "expr.mul"

        def wrapper(*args, **kwargs):
            frame = [0.0, len(spans) if span else stack[-1][1]]
            if span:
                spans.append(None)
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                own = duration - frame[0]
                calls[name] += 1
                selfs[name] += own
                if span:
                    spans[frame[1]] = (frame[1], stack[-1][1], tracer.task, name, start, end, own)
            if is_mul and result is not NotImplemented:
                tracer._bump(name, "terms_out", _terms(result))
            elif is_d:
                tracer._bump(name, "terms_in", _form_terms(args[1]))
                tracer._bump(name, "terms_out", _form_terms(result))
                tracer._bump(name, "tuples_computed", _d_tuples(args))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _module(self, short):
        # cli is only loaded in processes that run the command line.
        return getattr(self.package, short, None)

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, module, attr in SPANS:
            owner = self._module(module)
            if owner is None:
                continue
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr), span=True))
        for name, path, attrs in LEAVES:
            module, cls = path.split(".")
            owner = getattr(self._module(module), cls)
            for attr in attrs:
                self._patch(owner, attr, self._wrap(name, owner.__dict__[attr], span=False))
        parse = self._wrap("expr.parse", self._module("expr").parse, span=False)
        for module in PARSE_BINDINGS:
            owner = self._module(module)
            if owner is not None:
                self._patch(owner, "parse", parse)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def merge(self, data):
        """Add another tracer's `export()` (a traced child process)."""
        for name, value in data["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + value
        for name, value in data["self_s"].items():
            self.self_s[name] = self.self_s.get(name, 0.0) + value
        for name, table in data["extra"].items():
            for key, value in table.items():
                self._bump(name, key, value)
        base = len(self.spans)
        for span_id, parent, _, name, start, end, own in data["spans"]:
            self.spans.append(
                (base + span_id, None if parent is None else base + parent, self.task, name, start, end, own)
            )

    def export(self):
        return {"calls": self.calls, "self_s": self.self_s, "extra": self.extra, "spans": self.spans}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def module_self_s(self):
        out = {module: 0.0 for module in MODULES}
        for name, value in self.self_s.items():
            out[name.split(".")[0]] += value
        return out
