"""End-to-end checks of the command line front end.

The golden files under tests/golden/ freeze the output format byte for
byte.  The values inside them are not trusted blindly: each one is pinned
independently by a library test (the schouten, d, dual, cotangent and
residual tables all appear in test_calculus / test_poisson /
test_dualpoisson with hand-derived expectations).
"""

import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from algebroids.cli import COMMANDS, ModelError, load_model, main, parse_model, save_model

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"


def fixture(name):
    return str(FIXTURES / name)


# (golden file, argv, expected exit code)
GOLDEN_RUNS = [
    ("check_tangent_r2.txt", ["check", "--model", fixture("tangent_r2.alg")], 0),
    ("check_so3.txt", ["check", "--model", fixture("so3.alg")], 0),
    ("check_broken.txt", ["check", "--model", fixture("broken_jacobi.alg")], 1),
    ("check_broken.json", ["check", "--model", fixture("broken_jacobi.alg"), "--json"], 1),
    ("poisson_check_so3.txt", ["poisson-check", "--model", fixture("poisson_so3.alg")], 0),
    ("poisson_check_broken.txt", ["poisson-check", "--model", fixture("poisson_r3_broken.alg")], 1),
    ("schouten_tangent_r3.txt", ["schouten", "--model", fixture("tangent_r3.alg"), "P", "Q"], 0),
    ("schouten_tangent_r3.json", ["schouten", "--model", fixture("tangent_r3.alg"), "P", "Q", "--json"], 0),
    ("d_tangent_r2_w.txt", ["d", "--model", fixture("tangent_r2.alg"), "w"], 0),
    ("d_so3_e3.txt", ["d", "--model", fixture("so3.alg"), "e3"], 0),
    ("bracket_tangent_r2.txt", ["bracket", "--model", fixture("tangent_r2.alg"), "V", "W"], 0),
    ("lie_so3_v1_e2.txt", ["lie", "--model", fixture("so3.alg"), "v1", "e2"], 0),
    ("dual_so3.txt", ["dual", "--model", fixture("so3.alg")], 0),
    ("dual_tangent_r2.txt", ["dual", "--model", fixture("tangent_r2.alg")], 0),
    ("dual_verify_so3.txt", ["dual-verify", "--model", fixture("so3.alg")], 0),
    ("dual_verify_broken_forced.txt", ["dual-verify", "--model", fixture("broken_jacobi.alg"), "--force"], 1),
    ("koszul_so3.txt", ["koszul", "--model", fixture("poisson_so3.alg"), "a", "b"], 0),
    ("koszul_r2.txt", ["koszul", "--model", fixture("poisson_r2.alg"), "a", "b"], 0),
    ("sharp_r2_a.txt", ["sharp", "--model", fixture("poisson_r2.alg"), "a"], 0),
    ("cotangent_so3.txt", ["cotangent", "--model", fixture("poisson_so3.alg")], 0),
    ("cotangent_broken_gate.txt", ["cotangent", "--model", fixture("poisson_r3_broken.alg")], 1),
    ("cotangent_broken_forced.txt", ["cotangent", "--model", fixture("poisson_r3_broken.alg"), "--force"], 0),
    ("lichnerowicz_r2.txt", ["lichnerowicz", "--model", fixture("poisson_r2.alg"), "f"], 0),
    ("reconstruct_so3.txt", ["reconstruct", "--model", fixture("so3.alg")], 0),
]


@pytest.mark.parametrize("golden,argv,code", GOLDEN_RUNS, ids=[run[0] for run in GOLDEN_RUNS])
def test_golden(golden, argv, code, capsys):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


def test_dual_gate_prints_the_axiom_report(capsys):
    # dual without --force refuses a broken algebroid with the same text
    # that check prints for it
    assert main(["dual", "--model", fixture("broken_jacobi.alg")]) == 1
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / "check_broken.txt").read_bytes()


@pytest.mark.parametrize("command", ["dual", "dual-verify"])
def test_algebroid_gate_refusal_honours_json(command, capsys):
    assert main([command, "--model", fixture("broken_jacobi.alg"), "--json"]) == 1
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "check_broken.json").read_bytes()


def test_poisson_gate_refusal_honours_json(capsys):
    model = fixture("poisson_r3_broken.alg")
    assert main(["poisson-check", "--model", model, "--json"]) == 1
    report = capsys.readouterr().out
    assert main(["cotangent", "--model", model, "--json"]) == 1
    assert capsys.readouterr().out == report
    assert json.loads(report) == {"passed": False, "residual": {"1,2,3": "2"}}


def test_json_output_is_deterministic(capsys):
    argv = ["check", "--model", fixture("broken_jacobi.alg"), "--json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["passed"] is False
    assert payload["jacobi"] == {"1,2,3": {"2": "1"}}


def test_pair_prints_a_bare_expression(capsys):
    assert main(["pair", "--model", fixture("tangent_r2.alg"), "u", "V"]) == 0
    assert capsys.readouterr().out == "x2\n"


def test_wedge_of_named_elements(capsys):
    assert main(["wedge", "--model", fixture("tangent_r2.alg"), "V", "W"]) == 0
    assert capsys.readouterr().out == "multivector\n[1,2] = x1\n"


def test_interior_prints_scalar_entries_with_empty_index(capsys):
    assert main(["interior", "--model", fixture("tangent_r2.alg"), "V", "u"]) == 0
    assert capsys.readouterr().out == "form\n[] = x2\n"


def test_module_entry_point_propagates_exit_codes():
    result = subprocess.run(
        [sys.executable, "-m", "algebroids.cli", "check", "--model", fixture("broken_jacobi.alg")],
        capture_output=True,
        cwd=str(HERE.parent),
    )
    assert result.returncode == 1
    assert result.stdout == (GOLDEN / "check_broken.txt").read_bytes()


# ---------------------------------------------------------------------------
# model files


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.alg")))
def test_save_model_round_trips(name):
    model = load_model(FIXTURES / name)
    assert parse_model(save_model(model)) == model


def test_loading_runs_no_checks():
    assert load_model(FIXTURES / "so3.alg").algebroid.verified is False
    assert load_model(FIXTURES / "poisson_so3.alg").poisson.verified is False


def test_save_model_writes_a_file(tmp_path):
    model = load_model(FIXTURES / "so3.alg")
    out = tmp_path / "copy.alg"
    save_model(model, out)
    assert load_model(out) == model


ALGEBROID_HEADER = '[algebroid]\nbase = [ "x1" ]\nrank = 2\n'

BAD_MODELS = [
    ("entry outside any section", "rank = 2\n", "outside of any section"),
    ("unterminated header", "[algebroid\nrank = 2\n", "unterminated"),
    ("duplicate algebroid section", ALGEBROID_HEADER + "[algebroid]\n", "duplicate"),
    ("unknown section header", "[spinor S]\n1 = \"1\"\n", "unknown section header"),
    ("missing equals sign", ALGEBROID_HEADER + "anchor[1][1]\n", "expected 'key = value'"),
    ("rank not an integer", '[algebroid]\nbase = [ "x1" ]\nrank = two\n', "rank must be an integer"),
    ("negative rank", '[algebroid]\nbase = [ "x1" ]\nrank = -1\n', "nonnegative"),
    ("unquoted entry", ALGEBROID_HEADER + "anchor[1][1] = x1\n", "expected a quoted string"),
    ("base not a list", '[algebroid]\nbase = "x1"\nrank = 1\n', "expected a"),
    ("unquoted base name", "[algebroid]\nbase = [ x1 ]\nrank = 1\n", "quoted coordinate names"),
    ("duplicate anchor key", ALGEBROID_HEADER + 'anchor[1][1] = "1"\nanchor[1][1] = "2"\n', "duplicate key"),
    ("anchor index out of range", ALGEBROID_HEADER + 'anchor[3][1] = "1"\n', "out of range"),
    ("diagonal structure key", ALGEBROID_HEADER + 'C[1][1][1] = "1"\n', "non-increasing or out-of-range"),
    ("reversed structure key", ALGEBROID_HEADER + 'C[1][2][1] = "1"\n', "non-increasing or out-of-range"),
    ("structure component out of range", ALGEBROID_HEADER + 'C[3][1][2] = "1"\n', "component index out of range"),
    ("undeclared coordinate", ALGEBROID_HEADER + 'anchor[1][1] = "y7"\n', "anchor"),
    ("unknown algebroid key", ALGEBROID_HEADER + "foo = 3\n", "unknown key"),
    ("reversed bivector key", '[poisson]\nbase = [ "x1", "x2" ]\nL[2][1] = "1"\n', "non-increasing or out-of-range"),
    ("unknown poisson key", '[poisson]\nbase = [ "x1" ]\nfoo = "1"\n', "unknown key"),
    ("duplicate element name", ALGEBROID_HEADER + "[form a]\n[form a]\n", "duplicate element name"),
    ("bad element index", ALGEBROID_HEADER + '[form a]\nx = "1"\n', "bad element index"),
    ("duplicate element index", ALGEBROID_HEADER + '[form a]\n1 = "1"\n1 = "2"\n', "duplicate index"),
    ("non-increasing element index", ALGEBROID_HEADER + '[form a]\n2,1 = "1"\n', "strictly increasing"),
    ("element index out of range", ALGEBROID_HEADER + '[form a]\n3 = "1"\n', "out of range"),
    ("element without a context", '[form a]\n1 = "1"\n', "element blocks need"),
    ("duplicate chart name", '[algebroid]\nbase = [ "x1", "x1" ]\nrank = 1\n', "base"),
]


@pytest.mark.parametrize("text,match", [(t, m) for _, t, m in BAD_MODELS], ids=[b[0] for b in BAD_MODELS])
def test_bad_model_raises(text, match):
    with pytest.raises(ModelError, match=match):
        parse_model(text)


# ---------------------------------------------------------------------------
# exit code 2: usage and model errors through main()


def write_model(tmp_path, text):
    path = tmp_path / "model.alg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_model_error_exits_2(tmp_path, capsys):
    path = write_model(tmp_path, ALGEBROID_HEADER + 'C[1][1][1] = "1"\n')
    assert main(["check", "--model", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("algebroids: ")
    assert "non-increasing" in err


def test_missing_model_file_exits_2(capsys):
    assert main(["check", "--model", fixture("no_such_file.alg")]) == 2
    assert "cannot read model file" in capsys.readouterr().err


def clash_model(name):
    """A verified algebroid whose base coordinate is named like a fiber
    coordinate: xi1 of its dual bundle, or zeta1 of the base's cotangent
    bundle that dual-verify builds."""
    return f'[algebroid]\nbase = [ "{name}" ]\nrank = 1\nanchor[1][1] = "1"\n'


def test_rank_above_bound_exits_2(tmp_path, capsys):
    model = write_model(tmp_path, '[algebroid]\nbase = [ ]\nrank = 65\n')
    assert main(["check", "--model", model]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"algebroids: {model}: [algebroid] rank must be nonnegative and at most 64, got 65"]


# Hypothesis lifts the recursion limit about 2,000 frames above the test, so
# only nesting this deep overflows a recursive parser in-process; the CLI's
# default limit already overflows at about 200 levels.
DEEP_MODEL = '[poisson]\nbase = [ "x1", "x2" ]\nL[1][2] = "' + "(" * 1000 + "x1" + ")" * 1000 + '"\n'


def power_model(text):
    """A Poisson model whose one entry L[1][2] is the given polynomial text."""
    return f'[poisson]\nbase = [ "x1", "x2" ]\nL[1][2] = "{text}"\n'


def test_monomial_power_in_anchor_passes_dual_verify(tmp_path, capsys):
    # dual-verify substitutes into the anchor, which raises x1 to the 1001 again;
    # a monomial with coefficient 1 is inside the power budget at any exponent.
    model = write_model(tmp_path, '[algebroid]\nbase = [ "x1" ]\nrank = 1\nanchor[1][1] = "x1^1000*x1"\n')
    assert main(["dual-verify", "--model", model]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name,command", [("xi1", "dual"), ("zeta1", "dual-verify")])
def test_fiber_name_clash_exits_2(tmp_path, capsys, name, command):
    assert main([command, "--model", write_model(tmp_path, clash_model(name))]) == 2
    err = capsys.readouterr().err
    assert err == f"algebroids: dual_poisson: fiber name '{name}' collides with a base coordinate\n"


def test_missing_element_exits_2(capsys):
    assert main(["schouten", "--model", fixture("tangent_r3.alg"), "P", "nope"]) == 2
    assert "no element named 'nope'" in capsys.readouterr().err


def test_wrong_variance_operand_exits_2(capsys):
    # V is a multivector; d only accepts forms
    assert main(["d", "--model", fixture("tangent_r2.alg"), "V"]) == 2
    assert "expected a form" in capsys.readouterr().err


def test_command_needing_poisson_section_exits_2(capsys):
    assert main(["poisson-check", "--model", fixture("so3.alg")]) == 2
    assert "[poisson] section" in capsys.readouterr().err


def test_command_needing_algebroid_section_exits_2(capsys):
    assert main(["check", "--model", fixture("poisson_r2.alg")]) == 2
    assert "[algebroid] section" in capsys.readouterr().err


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate", "--model", fixture("so3.alg")]) == 2
    capsys.readouterr()


def test_missing_model_argument_exits_2(capsys):
    assert main(["check"]) == 2
    capsys.readouterr()


def test_missing_operand_exits_2(capsys):
    assert main(["schouten", "--model", fixture("tangent_r3.alg"), "P"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# the exit-code contract on generated models

_BASES = ['[ "x1" ]', '[ "x1", "x2" ]', '[ "x1", "x2", "x3" ]', '[ "xi1", "x1" ]', '[ "x1", "zeta1" ]']
_EXPRESSIONS = st.sampled_from(['"1"', '"0"', '"x1"', '"x1^3 - 1/2*x1"', '"-2*x1 + 1"'])
# One of these, at a random line, makes a model malformed. Indices 0 and 4
# fall outside every rank in the pool.
_DEFECTS = [
    "rank = -1", "base = [ x1 ]", 'base = [ "x1", "x1" ]', "[spinor s]", "[algebroid", "anchor[1][1]",
    'anchor[4][1] = "1"', 'anchor[1][0] = "1"', 'C[1][2][1] = "1"', 'C[4][1][2] = "1"', 'L[2][1] = "1"',
    'L[1][4] = "1"', '1 = "(x1 + 2"', '1 = "1/0"', '1 = "x1 $ 2"', '1 = "y7"', "1 = x1", '2,1 = "1"', 'x = "1"',
    '4 = "1"', 'rank = "2"',
]


def _indices(draw, size, top):
    """A strictly increasing tuple of `size` indices from 1..top."""
    if size == 0:
        return ()
    return tuple(sorted(draw(st.sets(st.integers(1, top), min_size=size, max_size=size))))


def _section_lines(draw, header):
    base = draw(st.sampled_from(_BASES))
    n = base.count(",") + 1
    lines = [f"[{header}]", f"base = {base}"]
    keys = set()
    if header == "algebroid":
        rank = draw(st.integers(0, 3))
        lines.append(f"rank = {rank}")
        for _ in range(draw(st.integers(0, 3)) if rank else 0):
            if rank < 2 or draw(st.booleans()):
                keys.add("anchor[{}][{}]".format(draw(st.integers(1, rank)), draw(st.integers(1, n))))
            else:
                keys.add("C[{}][{}][{}]".format(draw(st.integers(1, rank)), *_indices(draw, 2, rank)))
    elif n >= 2:
        keys.update("L[{}][{}]".format(*_indices(draw, 2, n)) for _ in range(draw(st.integers(1, 2))))
    return lines + [f"{key} = {draw(_EXPRESSIONS)}" for key in sorted(keys)], rank if header == "algebroid" else n


@st.composite
def model_texts(draw):
    """Model text from small pools: [algebroid] and [poisson] sections whose
    bases may clash with the fiber names xi1 or zeta1, element blocks, and
    at most one malformed line."""
    lines = []
    ranks = {}
    for header in draw(st.lists(st.sampled_from(["algebroid", "poisson"]), min_size=1, max_size=2, unique=True)):
        section, ranks[header] = _section_lines(draw, header)
        lines += section
    top = ranks.get("algebroid", ranks.get("poisson"))
    for name in ("a", "b"):
        lines.append(f"[{draw(st.sampled_from(['form', 'multivector']))} {name}]")
        for size in draw(st.lists(st.integers(0, min(top, 2)), min_size=1, max_size=2, unique=True)):
            index = _indices(draw, size, top)
            lines.append(f"{','.join(map(str, index)) or 'scalar'} = {draw(_EXPRESSIONS)}")
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(_DEFECTS)))
    return "\n".join(lines) + "\n"


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    count = COMMANDS[command].operands
    names = draw(st.lists(st.sampled_from(["a", "b", "a", "b", "c"]), min_size=count, max_size=count))
    return [command, *names, *(flag for flag in ("--json", "--force") if draw(st.booleans()))]


@settings(max_examples=200, deadline=None)
@given(text=model_texts(), invocation=invocations())
@example(text=clash_model("xi1"), invocation=["dual"])
@example(text=clash_model("zeta1"), invocation=["dual-verify"])
@example(text=DEEP_MODEL, invocation=["poisson-check"])
@example(text=power_model("7^300000000"), invocation=["poisson-check"])
@example(text=power_model("(x1+x2+1)^3000"), invocation=["poisson-check"])
@example(text=power_model("x1^" + "9" * 400), invocation=["poisson-check"])
@example(text=power_model("2^" + "9" * 400), invocation=["poisson-check"])
@example(text=power_model("x1^²"), invocation=["poisson-check"])
@example(text=power_model("x1^" + "9" * 5000), invocation=["poisson-check"])
def test_exit_code_contract(text, invocation):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "model.alg"
        path.write_text(text, encoding="utf-8")
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*invocation, "--model", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("algebroids: ")
