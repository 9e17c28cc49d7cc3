"""Command-line interface: model files in, deterministic text or JSON out.

A model file is line-oriented with sections. [algebroid] declares the chart,
rank, anchor entries and structure functions; optional [multivector NAME] and
[form NAME] blocks hold graded elements; [poisson] declares a chart and
bivector entries. Exit codes: 0 success, 1 verification failure (with a
residual report), 2 bad input or usage, with a one-line message.

Commands that print tables reuse the model-file syntax, so outputs can be fed
back in; element results print one `[indices] = expr` line per component.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, NamedTuple

from . import algebroid as _alg
from . import calculus as _cal
from . import dualpoisson as _dual
from . import poisson as _poi
from .expr import ZERO, ParseError, parse, validate_chart


# Largest model rank: the checks visit all index triples; no fixture or benchmark exceeds 10.
MAX_RANK = 64


class ModelError(Exception):
    """Model-file grammar or validation failure; always exits with code 2."""


class CommandError(Exception):
    """Bad operands or operand/context mismatch; always exits with code 2."""


@dataclass
class ElementBlock:
    kind: str  # the variance: "multivector" or "form"
    name: str
    entries: dict = field(default_factory=dict)  # index tuple -> Expr (raw text while the file is read)


@dataclass
class ModelFile:
    """A loaded model of built objects. The algebroid's axioms and the Poisson
    bivector's Jacobi identity are not checked on loading."""

    algebroid: _alg.Algebroid = None
    poisson: _poi.PoissonStructure = None
    elements: dict = field(default_factory=dict)  # name -> ElementBlock


@dataclass
class _Section:
    """An [algebroid] or [poisson] section as read, before its entries parse."""

    header: str
    base: tuple = ()
    rank: int = 0
    entries: dict = field(default_factory=dict)  # (key kind, *indices) -> raw expr string


_QUOTED_RE = re.compile(r'^"([^"]*)"$')
_SECTION_KEYS = {
    "algebroid": (
        ("anchor", re.compile(r"^anchor\[(\d+)\]\[(\d+)\]$")),
        ("C", re.compile(r"^C\[(\d+)\]\[(\d+)\]\[(\d+)\]$")),
    ),
    "poisson": (("L", re.compile(r"^L\[(\d+)\]\[(\d+)\]$")),),
}
_TUPLE_RE = re.compile(r"^\d+(\s*,\s*\d+)*$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _unquote(value, where):
    m = _QUOTED_RE.match(value.strip())
    if not m:
        raise ModelError(f'{where}: expected a quoted string, got {value.strip()!r}')
    return m.group(1)


def _parse_base_list(value, where):
    text = value.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ModelError(f"{where}: expected a [ ... ] list")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    names = []
    for token in inner.split(","):
        token = token.strip()
        m = _QUOTED_RE.match(token)
        if not m:
            raise ModelError(f"{where}: expected quoted coordinate names, got {token!r}")
        names.append(m.group(1))
    return tuple(names)


def parse_model(text, source="<model>"):
    """Read model-file text into a ModelFile. Quoted expressions are parsed
    once each, after the whole text is read, because a base list may follow
    the entries that use it."""
    sections = {}
    elements = {}
    current = None  # the _Section or ElementBlock that entries go to
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        where = f"{source}:{lineno}"
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ModelError(f"{where}:{len(raw)}: unterminated section header")
            header = line[1:-1].strip()
            if header in _SECTION_KEYS:
                if header in sections:
                    raise ModelError(f"{where}: duplicate [{header}] section")
                current = sections[header] = _Section(header)
                continue
            parts = header.split()
            if len(parts) != 2 or parts[0] not in (_cal.MULTIVECTOR, _cal.FORM) or not _NAME_RE.match(parts[1]):
                raise ModelError(f"{where}: unknown section header [{header}]")
            kind, name = parts
            if name in elements:
                raise ModelError(f"{where}: duplicate element name {name!r}")
            current = elements[name] = ElementBlock(kind, name)
            continue
        if "=" not in line:
            raise ModelError(f"{where}:1: expected 'key = value'")
        if current is None:
            raise ModelError(f"{where}: entry outside of any section")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if isinstance(current, ElementBlock):
            if key == "scalar":
                index = ()
            elif _TUPLE_RE.match(key):
                index = tuple(int(t) for t in key.split(","))
            else:
                raise ModelError(f"{where}: bad element index {key!r}")
            if index in current.entries:
                raise ModelError(f"{where}: duplicate index {key!r} in [{current.kind} {current.name}]")
            current.entries[index] = _unquote(value, f"{where}: {key}")
        elif key == "base":
            current.base = _parse_base_list(value, f"{where}: base")
        elif key == "rank" and current.header == "algebroid":
            try:
                current.rank = int(value)
            except ValueError:
                raise ModelError(f"{where}: rank must be an integer, got {value!r}") from None
        else:
            for kind, pattern in _SECTION_KEYS[current.header]:
                if m := pattern.match(key):
                    break
            else:
                raise ModelError(f"{where}: unknown key {key!r} in [{current.header}]")
            entry = (kind, *(int(g) for g in m.groups()))
            if entry in current.entries:
                raise ModelError(f"{where}: duplicate key {key}")
            current.entries[entry] = _unquote(value, f"{where}: {key}")

    model = ModelFile()
    if "algebroid" in sections:
        model.algebroid = _build_algebroid(sections["algebroid"], source)
    if "poisson" in sections:
        model.poisson = _build_poisson(sections["poisson"], source)
    if elements:
        space = _element_space(model)
        if space is None:
            raise ModelError(f"{source}: element blocks need an [algebroid] or [poisson] section")
        for block in elements.values():
            model.elements[block.name] = _build_element(block, space, source)
    return model


def _check_base(section, source):
    try:
        return validate_chart(section.base)
    except ValueError as exc:
        raise ModelError(f"{source}: [{section.header}] base: {exc}") from None


def _build_algebroid(section, source):
    base = _check_base(section, source)
    rank = section.rank
    if not 0 <= rank <= MAX_RANK:
        raise ModelError(f"{source}: [algebroid] rank must be nonnegative and at most {MAX_RANK}, got {rank}")
    anchor = [[ZERO] * len(base) for _ in range(rank)]
    structure = {}
    for (kind, *indices), text in section.entries.items():
        if kind == "anchor":
            a, i = indices
            where = f"{source}: anchor[{a}][{i}]"
            if not (1 <= a <= rank and 1 <= i <= len(base)):
                raise ModelError(f"{where}: index out of range")
            anchor[a - 1][i - 1] = _parse_entry(text, base, where)
        else:
            c, a, b = indices
            where = f"{source}: C[{c}][{a}][{b}]"
            if not (1 <= a < b <= rank):
                raise ModelError(f"{where}: non-increasing or out-of-range section pair")
            if not (1 <= c <= rank):
                raise ModelError(f"{where}: component index out of range")
            structure.setdefault((a, b), {})[c] = _parse_entry(text, base, where)
    return _alg.new_algebroid(base, rank, anchor, structure)


def _build_poisson(section, source):
    base = _check_base(section, source)
    table = {}
    for (_, i, j), text in section.entries.items():
        where = f"{source}: L[{i}][{j}]"
        if not (1 <= i < j <= len(base)):
            raise ModelError(f"{where}: non-increasing or out-of-range index pair")
        table[(i, j)] = _parse_entry(text, base, where)
    return _poi.new_poisson(base, table, verify=False)


def _element_space(model):
    """The algebroid that model elements are read over: the [algebroid]
    section if there is one, else the tangent algebroid of [poisson]."""
    if model.algebroid is not None:
        return model.algebroid
    if model.poisson is not None:
        return model.poisson.tangent()
    return None


def _build_element(block, space, source):
    entries = {}
    for index, text in block.entries.items():
        where = f"{source}: [{block.kind} {block.name}] {_index_key(index) or 'scalar'}"
        if any(index[t] >= index[t + 1] for t in range(len(index) - 1)):
            raise ModelError(f"{where}: indices must be strictly increasing")
        if index and not (1 <= index[0] and index[-1] <= space.rank):
            raise ModelError(f"{where}: index out of range 1..{space.rank}")
        entries[index] = _parse_entry(text, space.chart, where)
    return ElementBlock(block.kind, block.name, entries)


def _parse_entry(text, chart, where):
    try:
        return parse(text, chart)
    except ParseError as exc:
        raise ModelError(f"{where}: {exc}") from None


def load_model(path):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ModelError(f"cannot read model file: {exc}") from None
    return parse_model(text, source=str(path))


def save_model(model, path=None):
    """Canonical text for a ModelFile; parse_model(save_model(m)) == m."""
    blocks = []
    if model.algebroid is not None:
        blocks.append(_algebroid_block(model.algebroid))
    for block in model.elements.values():
        chart = _element_space(model).chart
        lines = [f"[{block.kind} {block.name}]"]
        for index in sorted(block.entries):
            lines.append(f'{_index_key(index) or "scalar"} = "{block.entries[index].to_text(chart)}"')
        blocks.append(lines)
    if model.poisson is not None:
        blocks.append(_poisson_block(model.poisson))
    text = "\n".join(line for lines in blocks for line in (*lines, ""))
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def _format_base(names):
    if not names:
        return "[ ]"
    inner = ", ".join(f'"{name}"' for name in names)
    return f"[ {inner} ]"


def _index_key(index):
    return ",".join(str(t) for t in index)


def _element_lines(element, chart):
    lines = [element.variance]
    if element.is_zero():
        lines.append("zero")
        return lines
    for degree in sorted(element.components):
        table = element.components[degree]
        for index in sorted(table):
            lines.append(f"[{_index_key(index)}] = {table[index].to_text(chart)}")
    return lines


def _element_json(element, chart):
    return {
        "variance": element.variance,
        "components": {
            str(degree): {_index_key(index): value.to_text(chart) for index, value in table.items()}
            for degree, table in element.components.items()
        },
    }


def _algebroid_entries(algebroid):
    """(key, indices, text) for each nonzero anchor entry, then each structure
    function, in model-file order."""
    chart = algebroid.chart
    for a in range(1, algebroid.rank + 1):
        for i in range(1, len(chart) + 1):
            entry = algebroid.anchor_entry(a, i)
            if entry:
                yield "anchor", (a, i), entry.to_text(chart)
    for (a, b) in sorted(algebroid.structure):
        table = algebroid.structure[(a, b)]
        for c in sorted(table):
            yield "C", (c, a, b), table[c].to_text(chart)


def _algebroid_block(algebroid):
    lines = ["[algebroid]", f"base = {_format_base(algebroid.chart)}", f"rank = {algebroid.rank}"]
    for key, indices, text in _algebroid_entries(algebroid):
        lines.append(f'{key}{"".join(f"[{t}]" for t in indices)} = "{text}"')
    return lines


def _algebroid_json(algebroid):
    tables = {"anchor": {}, "C": {}}
    for key, indices, text in _algebroid_entries(algebroid):
        tables[key][_index_key(indices)] = text
    return {"base": list(algebroid.chart), "rank": algebroid.rank, **tables}


def _poisson_block(ps):
    lines = ["[poisson]"]
    lines.append(f"base = {_format_base(ps.chart)}")
    for (i, j) in sorted(ps.bivector.components.get(2, {})):
        value = ps.bivector.components[2][(i, j)]
        lines.append(f'L[{i}][{j}] = "{value.to_text(ps.chart)}"')
    return lines


def _poisson_json(ps):
    table = {
        f"{i},{j}": value.to_text(ps.chart)
        for (i, j), value in ps.bivector.components.get(2, {}).items()
    }
    return {"base": list(ps.chart), "L": table}


def _axiom_report_lines(report, algebroid):
    lines = [f"axioms: {'PASS' if report.passed else 'FAIL'}"]
    for (a, b) in sorted(report.anchor_residuals):
        for i, value in enumerate(report.anchor_residuals[(a, b)], start=1):
            if value:
                lines.append(f"anchor ({a},{b}) {algebroid.chart[i - 1]} = {value.to_text(algebroid.chart)}")
    for key in sorted(report.jacobi_residuals):
        section = report.jacobi_residuals[key]
        for index in sorted(section.components.get(1, {})):
            value = section.components[1][index]
            label = ",".join(str(t) for t in key)
            lines.append(f"jacobi ({label}) [{index[0]}] = {value.to_text(algebroid.chart)}")
    return lines


def _axiom_report_json(report, algebroid):
    anchor = {}
    for (a, b), residual in report.anchor_residuals.items():
        entries = {
            algebroid.chart[i]: value.to_text(algebroid.chart)
            for i, value in enumerate(residual)
            if value
        }
        if entries:
            anchor[f"{a},{b}"] = entries
    jacobi = {}
    for key, section in report.jacobi_residuals.items():
        entries = {
            str(index[0]): value.to_text(algebroid.chart)
            for index, value in section.components.get(1, {}).items()
        }
        if entries:
            jacobi[",".join(str(t) for t in key)] = entries
    return {"passed": report.passed, "anchor": anchor, "jacobi": jacobi}


def _get_element(model, name, space):
    block = model.elements.get(name)
    if block is None:
        raise CommandError(f"model has no element named {name!r}")
    components = {}
    for index, value in block.entries.items():
        components.setdefault(len(index), {})[index] = value
    try:
        return _cal.GradedElement(space, block.kind, components)
    except ValueError as exc:
        raise CommandError(f"element {name!r} does not fit this context: {exc}") from None


# Command handlers: (algebroid or Poisson structure, operand elements, force)
# -> (exit code, text lines, JSON data or None for text-only output).


def _check(algebroid, elements, force):
    report = _alg.verify_axioms(algebroid)
    code = 0 if report.passed else 1
    return code, _axiom_report_lines(report, algebroid), _axiom_report_json(report, algebroid)


def _poisson_check(ps, elements, force):
    report = _poi.is_poisson(ps)
    lines = [f"poisson: {'PASS' if report.passed else 'FAIL'}"]
    if not report.passed:
        lines += _element_lines(report.residual, ps.chart)[1:]
    residual = _element_json(report.residual, ps.chart)["components"].get("3", {})
    return (0 if report.passed else 1), lines, {"passed": report.passed, "residual": residual}


def _element_op(operation):
    """Handler for a command whose result is one element over the context."""

    def run(context, elements, force):
        result = operation(context, *elements)
        return 0, _element_lines(result, context.chart), _element_json(result, context.chart)

    return run


def _lie(algebroid, V, X):
    if X.variance == _cal.FORM:
        return _cal.lie_derivative_form(algebroid, V, X)
    return _cal.lie_derivative_multivector(algebroid, V, X)


def _pair(algebroid, elements, force):
    text = _cal.pairing(*elements).to_text(algebroid.chart)
    return 0, [text], {"value": text}


def _reconstruct(algebroid, elements, force):
    delta = _cal.OperatorValue(lambda eta: _cal.exterior_derivative(algebroid, eta), 1)
    try:
        rebuilt = _cal.delta_reconstruct(algebroid.chart, algebroid.rank, delta)
    except _cal.ReconstructionError as exc:
        return 1, ["reconstruct: FAIL", str(exc)], None
    return 0, _algebroid_block(rebuilt), _algebroid_json(rebuilt)


def _dual_command(algebroid, elements, force):
    ps = _dual.dual_poisson(algebroid, force=force)
    return 0, _poisson_block(ps), _poisson_json(ps)


def _dual_verify(algebroid, elements, force):
    ps = _dual.dual_poisson(algebroid, force=force)
    jacobi = ps.verified
    hom = _dual.homogeneity_check(ps)
    residuals = _dual.transpose_anchor_check(algebroid, ps)
    hom_ok = hom.is_zero()
    map_ok = not any(residuals)
    lines = [f"jacobi: {'PASS' if jacobi else 'FAIL'}"]
    if not jacobi:
        lines += _element_lines(_poi.is_poisson(ps).residual, ps.chart)[1:]
    lines.append(f"homogeneity: {'PASS' if hom_ok else 'FAIL'}")
    if not hom_ok:
        lines += _element_lines(hom, ps.chart)[1:]
    lines.append(f"poisson-map: {'PASS' if map_ok else 'FAIL'}")
    pairs = zip(combinations(ps.chart, 2), residuals)
    lines += [f"({u},{v}) = {residual.to_text(ps.chart)}" for (u, v), residual in pairs if residual]
    code = 0 if jacobi and hom_ok and map_ok else 1
    return code, lines, {"jacobi": jacobi, "homogeneity": hom_ok, "poisson_map": map_ok}


def _cotangent(ps, elements, force):
    built = _poi.cotangent_algebroid(ps, force=True)
    return 0, _algebroid_block(built), _algebroid_json(built)


class Command(NamedTuple):
    section: str  # the model section the command runs over
    gate: str | None  # a check that must pass first unless --force
    operands: int  # number of element names
    run: Callable
    help: str


# The gated Poisson commands pass force=True to the library: execute's gate
# has already refused unverified structures unless --force was given.
COMMANDS = {
    "check": Command("algebroid", None, 0, _check, "verify the algebroid axioms"),
    "bracket": Command(
        "algebroid", None, 2, _element_op(_alg.bracket_sections), "bracket of two degree-1 multivector elements"
    ),
    "d": Command(
        "algebroid", None, 1, _element_op(_cal.exterior_derivative), "exterior derivative of a form element"
    ),
    "lie": Command(
        "algebroid", None, 2, _element_op(_lie), "Lie derivative of the second element along the first (a section)"
    ),
    "interior": Command(
        "algebroid", None, 2, _element_op(lambda algebroid, P, eta: _cal.interior_product(P, eta)),
        "interior product of a form by a multivector",
    ),
    "pair": Command("algebroid", None, 2, _pair, "pairing of a form with a multivector"),
    "wedge": Command(
        "algebroid", None, 2, _element_op(lambda algebroid, P, Q: _cal.wedge(P, Q)),
        "exterior product of two elements of the same kind",
    ),
    "schouten": Command(
        "algebroid", None, 2, _element_op(_cal.schouten_bracket), "Schouten bracket of two multivector elements"
    ),
    "poisson-check": Command("poisson", None, 0, _poisson_check, "Jacobi check of the [poisson] bivector"),
    "sharp": Command("poisson", None, 1, _element_op(_poi.sharp), "musical map applied to a form element"),
    "cotangent": Command(
        "poisson", "poisson-check", 0, _cotangent, "print the cotangent algebroid of the [poisson] structure"
    ),
    "koszul": Command(
        "poisson", "poisson-check", 2,
        _element_op(lambda ps, eta, zeta: _poi.koszul_bracket(ps, eta, zeta, force=True)),
        "Koszul bracket of two form elements",
    ),
    "lichnerowicz": Command(
        "poisson", "poisson-check", 1,
        _element_op(lambda ps, P: _poi.lichnerowicz_differential(ps, P, force=True)),
        "bracket the bivector with a multivector element",
    ),
    "dual": Command(
        "algebroid", "check", 0, _dual_command, "print the dual-bundle Poisson structure of the algebroid"
    ),
    "dual-verify": Command("algebroid", "check", 0, _dual_verify, "check the three dual-bundle properties"),
    "reconstruct": Command("algebroid", None, 0, _reconstruct, "rebuild the algebroid from its exterior derivative"),
}


def execute(command, model, operands=(), json_output=False, force=False):
    """Run one command against a loaded model. Returns (exit code, text).

    A gated command whose gate check fails prints that check's report and
    exits 1 instead, unless forced."""
    spec = COMMANDS.get(command)
    if spec is None:
        raise CommandError(f"unknown command {command!r}")
    context = getattr(model, spec.section)
    if context is None:
        raise CommandError(f"the model has no [{spec.section}] section, which this command needs")
    space = context if spec.section == "algebroid" else context.tangent()
    try:
        code = 0
        if spec.gate is not None and not force:
            code, lines, data = COMMANDS[spec.gate].run(context, (), force)
        if code == 0:
            elements = tuple(_get_element(model, name, space) for name in operands)
            code, lines, data = spec.run(context, elements, force)
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    if json_output and data is not None:
        return code, json.dumps(data, sort_keys=True, indent=2) + "\n"
    return code, "\n".join(lines) + "\n"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="algebroids",
        description="Exterior calculus and Poisson constructions over Lie algebroid model files.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", required=True, help="path to the model file")
    common.add_argument("--json", action="store_true", dest="json_output", help="emit JSON instead of text")
    common.add_argument("--force", action="store_true", help="skip verified-precondition gates")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, spec in COMMANDS.items():
        sub = subparsers.add_parser(command, parents=[common], help=spec.help)
        if spec.operands:
            sub.add_argument("names", nargs=spec.operands, metavar="name", help="element name in the model file")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        model = load_model(args.model)
        code, text = execute(
            args.command, model, tuple(getattr(args, "names", ())), json_output=args.json_output, force=args.force
        )
    except (ModelError, CommandError) as exc:
        print(f"algebroids: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
