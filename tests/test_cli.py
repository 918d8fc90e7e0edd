"""CLI surface: parsing, reports, exit codes, determinism, SVG output."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kustab.cli import ParseError, build_parser, default_collection, parse_class, run
from kustab.exact import DomainError, QuadNumber
from kustab.report import json_default
from kustab.svg import _TICK_BUDGET, render_walls_svg
from kustab.variety import ChernVector, get_preset
from kustab.walls import _SCAN_BUDGET, WallCircle

from oracles import SPELLINGS

Q3 = get_preset("q3")
P4 = get_preset("p4")
REFUSED_INTEGERS = [text for text, (k, _) in SPELLINGS.items() if k is None]
REFUSED_RATIONALS = [text for text, (_, q) in SPELLINGS.items() if q is None]
SRC = str(Path(__file__).resolve().parent.parent / "src")


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_err(capsys, *argv):
    # (exit code, stdout, stderr) of one invocation
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv, "--json")
    return code, json.loads(out)


def invoke_process(*argv, text=True):
    # one fresh "python -m kustab.cli" process, so a traceback would show
    return subprocess.run([sys.executable, "-m", "kustab.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=text)


def test_parse_class_tokens():
    assert parse_class("O(2)", Q3) == (1, 2, 2, Fraction(4, 3))
    assert parse_class("O", Q3) == (1, 0, 0, 0)
    assert parse_class("S", Q3) == (2, -1, 0, Fraction(1, 12))
    assert parse_class("2,-1,0,1/12", Q3) == (2, -1, 0, Fraction(1, 12))
    assert parse_class("2,-1,0", Q3, truncated=True) == (2, -1, 0)


def test_parse_class_errors():
    with pytest.raises(ParseError, match="wrong arity"):
        parse_class("1,0,0", Q3)
    with pytest.raises(ParseError, match="malformed"):
        parse_class("O(x)", Q3)
    with pytest.raises(ParseError, match="malformed"):
        parse_class("spinor", Q3)
    with pytest.raises(ParseError, match="unknown symbol"):
        parse_class("S", P4)


def test_default_collections():
    assert len(default_collection(Q3)) == 3
    assert len(default_collection(P4)) == 5
    assert len(default_collection(get_preset("y4"))) == 2


def test_chi_command(capsys):
    code, doc = invoke_json(capsys, "chi", "--variety", "q3", "O", "O(1)")
    assert code == 0
    assert doc["result"]["chi"] == "5/1"
    assert doc["variety"] == "Q3"


def test_gram_command_paper(capsys):
    code, doc = invoke_json(capsys, "gram", "--variety", "q3",
                            "--convention", "paper")
    assert code == 0
    top = [Fraction(x) for x in doc["result"]["matrix"][0]]
    assert top == [Fraction(1, 2), Fraction(13, 12), Fraction(3, 2), 1]


def test_orth_command(capsys):
    code, doc = invoke_json(capsys, "orth", "--variety", "q3")
    assert code == 0
    assert doc["result"]["basis"] == [["2/1", "-1/1", "0/1", "1/12"]]


def test_nowall_command_text(capsys):
    code, out = invoke(capsys, "nowall", "--variety", "q3", "2,-1,0")
    assert code == 0
    assert "certificate: true" in out
    assert "interval: (0, 2)" in out
    assert "step: 2" in out


def test_blms_fail_still_exits_zero(capsys):
    code, doc = invoke_json(capsys, "blms", "--variety", "q3",
                            "--alpha", "1/2", "--beta", "-1/2")
    assert code == 0
    assert doc["result"]["verdict"] == "FAIL"


def test_alpha_range_command(capsys):
    code, doc = invoke_json(capsys, "alpha-range", "--variety", "q3",
                            "--beta", "-1/2")
    assert code == 0
    (iv,) = doc["result"]["intervals"]
    assert iv["text"] == "(0, 1/2)"


def test_usage_errors_exit_two(capsys):
    assert run(["bogus"]) == 2
    assert run(["chi", "--variety", "q3", "O"]) == 2           # missing arg
    assert run(["chi", "--variety", "q3", "1,0,0", "O"]) == 2  # wrong arity
    assert run(["chi", "--config", "/nonexistent.json", "O", "O"]) == 2
    capsys.readouterr()
    # a zero denominator in any rational flag is a one-line usage error
    for argv in (["ztilt", "--variety", "q3", "S", "--alpha", "1/0",
                  "--beta", "0"],
                 ["walls", "--variety", "q3", "1,0,-1", "--max-c1", "1/0"],
                 ["svg", "--variety", "q3", "1,0,-1", "--beta-min", "1/0"]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.endswith("invalid rational value: '1/0'\n")
        assert err.count("\n") == 1
    # --stability-assumed is a plain flag with no negated form
    code, out, err = invoke_err(capsys, "fullness", "--variety", "q3",
                                "--no-stability-assumed")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1
    # the tilt charge and slope do not read mu, so ztilt takes no --mu
    assert invoke_err(capsys, "ztilt", "--variety", "q3", "S", "--alpha",
                      "1/4", "--beta", "-1/2", "--mu", "5") == \
        (2, "", "usage error: unrecognized arguments: --mu 5\n")


def test_domain_errors_exit_three(capsys):
    code, out, err = invoke_err(capsys, "beta0", "--variety", "q3", "1,0,0")
    assert (code, out) == (3, "")
    assert "no positive discriminant" in err
    code, _ = invoke(capsys, "chi", "--variety", "nosuch", "O", "O")
    assert code == 3
    for cmd in ("beta0", "nowall", "walls", "svg"):
        code, out, err = invoke_err(capsys, cmd, "--variety", "q3", "1/2,0,-1")
        assert (code, out, err) == (3, "", "error: class not in lattice\n")
    for cmd in ("walls", "svg"):
        code, out, err = invoke_err(capsys, cmd, "--variety", "q3", "1,0,-1",
                                    "--max-rank", "-1")
        assert (code, out, err) == (3, "", "error: negative scan bound\n")
    # a collection refuses an off-lattice member when it is built, before
    # any target is read
    for argv in (["orth"], ["project", "0,0,0,1/2"], ["classify", "S"],
                 ["fullness"]):
        code, out, err = invoke_err(capsys, argv[0], "--variety", "q3",
                                    *argv[1:], "1/4,0,0,0")
        assert (code, out, err) == (
            3, "", "error: collection member not in lattice\n"), argv


def test_oversized_scan_exits_three(capsys):
    for cmd in ("walls", "svg"):
        code, out, err = invoke_err(capsys, cmd, "--variety", "q3", "1,0,-1",
                                    "--max-rank", "1000000000")
        assert (code, out) == (3, "")
        assert err == (f"error: scan box of {(2 * 10 ** 9 + 1) * 7} lattice "
                       f"pairs exceeds the budget of {_SCAN_BUDGET}\n")


def test_alpha_range_on_a_curve_exits_three(tmp_path, capsys):
    # P1 has no c2: alpha-range refuses the block O, O(1) as blms does
    cfg = tmp_path / "p1.json"
    cfg.write_text(json.dumps({"varieties": [{
        "name": "P1", "dim": 1, "degree": 1, "index": 2, "todd": ["1", "1"],
        "denoms": [1, 1]}]}))
    for argv in (["alpha-range", "--beta", "-1/2"],
                 ["blms", "--alpha", "1/4", "--beta", "-1/2"]):
        code, out, err = invoke_err(capsys, *argv, "--config", str(cfg),
                                    "--variety", "p1")
        assert (code, out, err) == (
            3, "", "error: class needs at least coefficients c0, c1, c2\n"), argv
    # nor has it a lattice class of length three for the wall commands
    for cmd in ("beta0", "nowall", "walls", "svg"):
        code, out, err = invoke_err(capsys, cmd, "1,0,-1", "--config", str(cfg),
                                    "--variety", "p1")
        assert (code, out, err) == (3, "", "error: class not in lattice\n"), cmd


def test_alpha_range_closed_lower_end_on_a_surface(tmp_path, capsys):
    # for P2's O(2) at beta = -6 the Serre image O(-1)[1] is in case 3,
    # which needs alpha >= 5: the lower end is closed and blms passes there
    cfg = tmp_path / "p2.json"
    cfg.write_text(json.dumps({"varieties": [{
        "name": "P2", "dim": 2, "degree": 1, "index": 3,
        "todd": ["1", "3/2", "1"], "denoms": [1, 1, 2]}]}))
    flags = ("O(2)", "--config", str(cfg), "--variety", "p2", "--beta", "-6")
    code, out = invoke(capsys, "alpha-range", *flags)
    assert code == 0
    assert ("intervals: [{text=[5, 8), lo=5, hi=8, lo_open=false, "
            "hi_open=true}]\n") in out
    code, doc = invoke_json(capsys, "alpha-range", *flags)
    (iv,) = doc["result"]["intervals"]
    assert (iv["text"], iv["lo_open"], iv["hi_open"]) == ("[5, 8)", False, True)
    for alpha, verdict in (("5", "PASS"), ("49/10", "FAIL"), ("8", "FAIL")):
        code, doc = invoke_json(capsys, "blms", *flags, "--alpha", alpha)
        assert (code, doc["result"]["verdict"]) == (0, verdict), alpha


def test_report_past_the_integer_digit_limit_exits_three(tmp_path, capsys):
    # O(N) for a 2000-digit N has c3 = N^3/6, past Python's limit on
    # integer string conversion: the report is refused with exit 3
    twist = f"O({'9' * 2000})"
    message = (f"error: report needs an integer of more than "
               f"{sys.get_int_max_str_digits()} digits\n")
    target = tmp_path / "report.txt"
    for argv in (["zh", twist], ["chi", "O", twist, "--json"], ["orth", twist],
                 ["zh", twist, "--out", str(target)]):
        code, out, err = invoke_err(capsys, *argv, "--variety", "q3")
        assert (code, out, err) == (3, "", message), argv[0]
    assert not target.exists()


def test_json_hook_maps_exactly_the_exact_types():
    # json walks the containers; the hook sees only the exact types
    doc = {"q": Fraction(-3), "z": QuadNumber(1, Fraction(1, 2), 2),
           "s": frozenset({"b", "a"}), "v": ChernVector([1, 0, "1/2"])}
    assert json.loads(json.dumps(doc, default=json_default)) == {
        "q": "-3/1", "z": {"a": "1/1", "b": "1/2", "radicand": "2/1"},
        "s": ["a", "b"], "v": ["1/1", "0/1", "1/2"]}
    for obj in (object(), {1, 2}, 1j, b"x"):
        with pytest.raises(TypeError):
            json_default(obj)


def test_determinism_text_and_json(capsys):
    argv = ["walls", "--variety", "q3", "1,0,-1"]
    _, first = invoke(capsys, *argv)
    _, second = invoke(capsys, *argv)
    assert first == second
    _, jfirst = invoke(capsys, *argv, "--json")
    _, jsecond = invoke(capsys, *argv, "--json")
    assert jfirst == jsecond


def test_json_round_trip(capsys):
    code, out = invoke(capsys, "classify", "--variety", "q3", "S", "--json")
    doc = json.loads(out)
    assert json.loads(json.dumps(doc, sort_keys=True)) == doc
    assert doc["result"]["chi_self"] == "1/1"
    assert doc["result"]["serre_eigenvalue"] == "+1"


def test_fullness_command(capsys):
    code, doc = invoke_json(capsys, "fullness", "--variety", "q3",
                            "--gen", "S", "--stability-assumed")
    assert code == 0
    assert doc["result"]["verdict"] == "full-modulo-phantoms-excluded"
    code, doc = invoke_json(capsys, "fullness", "--variety", "p4")
    assert doc["result"]["verdict"] == "numerically-full"


def test_config_variety(tmp_path, capsys):
    cfg = tmp_path / "varieties.json"
    # a todd entry is a JSON integer or a [+-]digits[/digits] string
    for todd in (["1", "3/2", "13/12", "1/2"], [1, "+3/2", "13/12", "1/2"]):
        cfg.write_text(json.dumps({
            "default_variety": "qq",
            "varieties": [{
                "name": "QQ", "dim": 3, "degree": 2, "index": 3,
                "todd": todd,
                "denoms": [1, 1, 2, 12],
                "low_deg_H_generated": True,
            }]}))
        code, doc = invoke_json(capsys, "chi", "--config", str(cfg), "O", "O(1)")
        assert code == 0
        assert doc["variety"] == "QQ"
        assert doc["result"]["chi"] == "5/1"


def test_config_flag_must_be_boolean(tmp_path, capsys):
    rec = {"name": "X", "dim": 3, "degree": 2, "index": 3,
           "todd": ["1", "3/2", "13/12", "1/2"], "denoms": [1, 1, 2, 12]}
    argv = ["blms", "--variety", "x", "--alpha", "1/4", "--beta", "-1/2"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"varieties": [
        dict(rec, low_deg_H_generated=False)]}))
    code, out = invoke(capsys, *argv, "--config", str(cfg))
    assert code == 0 and "verdict: FAIL" in out
    for bad in ("false", 0, 1, None, []):
        cfg.write_text(json.dumps({"varieties": [
            dict(rec, low_deg_H_generated=bad)]}))
        code, _, err = invoke_err(capsys, *argv, "--config", str(cfg))
        assert code == 3, bad
        assert err.startswith("error: ") and "low_deg_H_generated" in err


def test_config_integer_fields_reject_floats_and_booleans(tmp_path, capsys):
    rec = {"name": "X", "dim": 3, "degree": 2, "index": 3,
           "todd": ["1", "3/2", "13/12", "1/2"], "denoms": [1, 1, 2, 12]}
    cfg = tmp_path / "cfg.json"
    argv = ["chi", "--variety", "x", "O", "O(1)", "--config", str(cfg)]
    cfg.write_text(json.dumps({"varieties": [rec]}))
    assert invoke(capsys, *argv) == (0, "command: chi\nvariety: X\n"
                                     "lhs: 1,0,0,0\nrhs: 1,1,1/2,1/6\nchi: 5\n")
    for field, bad in (("dim", 3.0), ("degree", 2.9), ("index", True),
                       ("denoms", [1, 1, 2.5, 12]), ("denoms", [1, 1, 2, False]),
                       ("dim", None), ("dim", [3]), ("dim", {})):
        cfg.write_text(json.dumps({"varieties": [dict(rec, **{field: bad})]}))
        code, _, err = invoke_err(capsys, *argv)
        assert code == 3, (field, bad)
        assert err == f"error: config field {field} must be an integer\n"


def test_config_variety_entry_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for entry in ("X", 3, ["X"], None):
        cfg.write_text(json.dumps({"varieties": [entry]}))
        code, _, err = invoke_err(capsys, "chi", "O", "O", "--config", str(cfg))
        assert code == 3, entry
        assert err == "error: config variety entry must be an object\n"


def test_config_shapes_exit_three(tmp_path, capsys):
    rec = {"name": "X", "dim": 3, "degree": 2, "index": 3,
           "todd": ["1", "3/2", "13/12", "1/2"], "denoms": [1, 1, 2, 12]}
    cfg = tmp_path / "cfg.json"
    for doc, message in (
            ({"default_variety": 3, "varieties": [rec]},
             "config field default_variety must be a string"),
            ({"varieties": 5}, "config field varieties must be a list"),
            ({"varieties": [dict(rec, todd=["1", "x", "13/12", "1/2"])]},
             "config field todd must hold rationals"),
            ({"varieties": [dict(rec, todd=["1", "3/2", "1/0", "1/2"])]},
             "config field todd must hold rationals"),
            ({"varieties": [dict(rec, todd=[True, "3/2", "13/12", "1/2"])]},
             "config field todd must hold rationals"),
            *(({"varieties": [dict(rec, todd=[one, "3/2", "13/12", "1/2"])]},
               "config field todd must hold rationals")
              for one in REFUSED_RATIONALS),
            ({"varieties": [dict(rec, todd=5)]},
             "config field todd must be a list"),
            ({"varieties": [dict(rec, denoms=7)]},
             "config field denoms must be a list")):
        cfg.write_text(json.dumps(doc))
        got = invoke_err(capsys, "chi", "O", "O", "--config", str(cfg))
        assert got == (3, "", f"error: {message}\n"), doc


_RECORD = {"name": "X", "dim": 3, "degree": 2, "index": 3,
           "todd": ["1", "3/2", "13/12", "1/2"], "denoms": [1, 1, 2, 12]}


@pytest.mark.parametrize("doc, argv, message", [
    ({"varieties": [{k: v for k, v in _RECORD.items() if k != "dim"}]}, (),
     "config variety missing field 'dim'"),
    ({"varieties": [_RECORD, dict(_RECORD, name="x")]}, (),
     "duplicate variety name: x"),
    ({"default_variety": "Z", "varieties": [_RECORD]}, (),
     "unknown default variety: z"),
    ({"varieties": [dict(_RECORD, degree=0)]}, (),
     "dimension and degree must be positive"),
    ({"varieties": [dict(_RECORD, todd=["1", "3/2", "13/12"])]}, (),
     "todd and denoms must have length dim + 1"),
    ({"varieties": [dict(_RECORD, denoms=[1, 1, 0, 12])]}, (),
     "denominators must be positive"),
    # t_2 = 1 puts 19/4 in serre's corner, not the twist's 9/2
    ({"varieties": [dict(_RECORD, name="Z", todd=["1", "3/2", "1", "1/2"])]},
     ("serre", "--variety", "z"),
     "config variety Z: todd and index break Serre duality"),
    (None, ("ztilt", "S", "--alpha", "0", "--beta", "0"),
     "alpha must be positive"),
], ids=["missing-field", "duplicate-name", "unknown-default", "degree",
        "todd-length", "denominator", "serre-duality", "alpha"])
def test_reachable_domain_errors_exit_three(doc, argv, message, tmp_path, capsys):
    # each of these errors is one line on stderr and exit 3
    argv = list(argv or ("chi", "O", "O"))
    if doc is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv += ["--config", str(cfg)]
    assert invoke_err(capsys, *argv) == (3, "", f"error: {message}\n")


def test_config_number_past_the_digit_limit_exits_three(tmp_path):
    # json.load raises a plain ValueError on a 5000-digit integer; it is a
    # one-line domain error, not a traceback
    cfg = tmp_path / "big.json"
    cfg.write_text('{"varieties": [{"name": "X", "dim": 3, "degree": '
                   + "1" * 5000 + ', "index": 3, "todd": ["1", "3/2", '
                   '"13/12", "1/2"], "denoms": [1, 1, 2, 12]}]}')
    proc = invoke_process("orth", "--config", str(cfg), "--variety", "x")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == ("error: config number has more than "
                           f"{sys.get_int_max_str_digits()} digits\n")
    assert "Traceback" not in proc.stderr


def test_svg_past_the_digit_limit_exits_three(tmp_path):
    # a beta far from the circles puts an integer past the str conversion
    # limit into a coordinate; it is a one-line domain error, and --out
    # writes no file
    limit = sys.get_int_max_str_digits()
    big, atlas = "9" * (limit - 1), tmp_path / "atlas.svg"
    proc = invoke_process("svg", "--variety", "q3", "1,0,-1", "--beta-min", big,
                          "--beta-max", big + "1/10", "--out", str(atlas))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == ("error: svg coordinate needs an integer of more "
                           f"than {limit} digits\n")
    assert not atlas.exists()


def test_twist_takes_a_sign_and_ascii_digits_only(capsys):
    for token in (f"O({text})" for text in REFUSED_INTEGERS):
        code, out, err = invoke_err(capsys, "chi", "--variety", "q3", "O", token)
        assert (code, out, err) == (
            2, "", f"usage error: malformed twist in {token!r}\n"), token[:8]
    for token, chi in (("O(1)", "5"), ("O(+1)", "5"), ("O(-1)", "0")):
        code, out = invoke(capsys, "chi", "--variety", "q3", "O", token)
        assert code == 0 and f"chi: {chi}\n" in out, token


def test_config_that_is_not_utf8_exits_two(tmp_path):
    # load_config lets UnicodeDecodeError through, so that it is not read as
    # the digit-limit error; run reports it as a usage error
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b"\xff\xfe{")
    proc = invoke_process("orth", "--config", str(cfg))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(
        "usage error: 'utf-8' codec can't decode byte 0xff")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_rational_flags_take_the_twist_integer_grammar(capsys):
    for text in REFUSED_RATIONALS:
        code, out, err = invoke_err(capsys, "ztilt", "--variety", "q3", "S",
                                    "--alpha", text, "--beta", "0")
        assert (code, out) == (2, ""), text[:8]
        assert err == ("usage error: argument --alpha: invalid rational "
                       f"value: {text!r}\n"), text[:8]
    for text, beta in (("-1/2", "-1/2"), ("+3", "3"), ("06/4", "3/2")):
        code, out = invoke(capsys, "ztilt", "--variety", "q3", "S",
                           "--alpha", "1", "--beta", text)
        assert code == 0 and f"beta: {beta}\n" in out, text
    for text in REFUSED_INTEGERS:
        code, out, err = invoke_err(capsys, "heart", "--variety", "q3", "S",
                                    "--alpha", "1/4", "--beta", "-1/2",
                                    "--shift", text)
        assert (code, out) == (2, ""), text[:8]
        assert err == ("usage error: argument --shift: invalid integer "
                       f"value: {text!r}\n"), text[:8]
    for text, shift in (("+1", "1"), ("-0", "0"), ("01", "1")):
        code, out = invoke(capsys, "ztilt", "--variety", "q3", "S",
                           "--alpha", "1", "--beta", "0", "--shift", text)
        assert code == 0 and f"shift: {shift}\n" in out, text


def test_output_independent_of_hash_seed():
    commands = (["classify", "S", "--json"], ["orth"], ["fullness"],
                ["walls", "1,0,-1", "--json"], ["alpha-range", "--beta", "-1/2"],
                ["svg", "1,0,-1"])
    for argv in commands:
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            proc = subprocess.run(
                [sys.executable, "-m", "kustab.cli", *argv, "--variety", "q3"],
                env=env, capture_output=True, check=True)
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and outs[0], argv


# every result of one seed-1 pass of the two library benchmark workloads
_LIBRARY_REPR = """
from workloads import run_survey_op, run_wall_op, survey_inputs, walls_inputs
print(repr([run_survey_op(op) for op in survey_inputs(1)]))
print(repr([run_wall_op(op) for op in walls_inputs(1)]))
"""


def test_library_output_independent_of_hash_seed():
    path = os.pathsep.join([SRC, str(Path(SRC).parent / "bench")])
    outs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", _LIBRARY_REPR], env=env,
                              capture_output=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and outs[0].count(b"\n") == 2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = run(["chi", "--variety", "q3", "O", "O", "--json",
                "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["result"]["chi"] == "1/1"


def test_svg_axes_only_for_certified_class(capsys):
    code, out = invoke(capsys, "svg", "--variety", "q3", "2,-1,0")
    assert code == 0
    assert out.count("<path") == 0
    assert out.count('class="axis"') >= 1
    assert out.startswith("<?xml")


def test_svg_single_circle(capsys):
    code, out = invoke(capsys, "svg", "--variety", "q3", "1,0,-1")
    assert code == 0
    assert out.count("<path") == 1
    # center -3/2, radius 1/2 with beta_min -4: arc runs from beta -2 to -1
    assert 'M 240.000000' in out
    assert "<title>" in out
    _, again = invoke(capsys, "svg", "--variety", "q3", "1,0,-1")
    assert out == again


def test_render_walls_svg_unit():
    empty = render_walls_svg([], {"beta_min": -2, "beta_max": 2,
                                  "alpha_max": 2})
    assert empty.count(b"<path") == 0
    one = render_walls_svg(
        [WallCircle(center_beta=Fraction(1, 2),
                    radius_sq=Fraction(1, 4),
                    witnesses=(ChernVector([1, 0, 0]),))],
        {"beta_min": -2, "beta_max": 2, "alpha_max": 2})
    assert one.count(b"<path") == 1
    assert render_walls_svg([], {"beta_min": -2, "beta_max": 2,
                                 "alpha_max": 2}) == empty


def test_svg_tick_budget(capsys):
    # one tick per integer beta in the viewport, at most _TICK_BUDGET of them
    def ticks(lo, hi):
        doc = render_walls_svg([], {"beta_min": lo, "beta_max": hi,
                                    "alpha_max": 1}).decode()
        return [int(t) for t in re.findall(r'class="tick".*>(-?\d+)<', doc)]

    assert ticks("-5/2", "7/3") == [-2, -1, 0, 1, 2]
    assert ticks("-1/2", _TICK_BUDGET - 1) == list(range(_TICK_BUDGET))
    message = (f"viewport of {_TICK_BUDGET + 1} beta ticks exceeds the "
               f"budget of {_TICK_BUDGET}")
    with pytest.raises(DomainError, match=f"^{message}$"):
        ticks(-1, _TICK_BUDGET - 1)
    with pytest.raises(ValueError, match="^empty viewport$"):
        ticks(1, 1)
    for e in (9, 30):     # 10^30 ticks do not fit a range's len()
        code, out, err = invoke_err(capsys, "svg", "--variety", "q3",
                                    "1,0,-1", "--beta-min", f"-1{'0' * e}",
                                    "--beta-max", f"1{'0' * e}")
        assert (code, out, err) == (
            3, "", f"error: viewport of {2 * 10 ** e + 1} beta ticks exceeds "
            f"the budget of {_TICK_BUDGET}\n")


def test_parser_builds_help():
    parser = build_parser()
    assert parser.format_help()


SMOKE = [
    ["chi", "O", "O(2)"],
    ["gram", "--convention", "chi"],
    ["orth", "O", "O(1)", "O(2)"],
    ["project", "0,0,0,1/2"],
    ["classify", "S"],
    ["serre"],
    ["zh", "S"],
    ["ztilt", "S", "--alpha", "1/4", "--beta", "-1/2", "--shift", "1"],
    ["heart", "O(-3)", "--shift", "2", "--alpha", "1/4", "--beta", "-1/2"],
    ["blms", "--alpha", "1/4", "--beta", "-1/2"],
    ["alpha-range", "--beta", "-1/2"],
    ["beta0", "2,-1,0"],
    ["nowall", "1,0,-1"],
    ["walls", "1,0,-1", "--max-rank", "2", "--max-c1", "2"],
    ["svg", "2,-1,0"],
    ["fullness", "--gen", "S", "--stability-assumed"],
]


def test_every_subcommand_smoke(capsys):
    for argv in SMOKE:
        code, out = invoke(capsys, *argv, "--variety", "q3")
        assert code == 0, argv
        assert out
        if argv[0] != "svg":
            code, doc = invoke_json(capsys, *argv, "--variety", "q3")
            assert code == 0 and "result" in doc


def test_one_command_parser_matches_the_full_parser(capsys):
    full = build_parser()
    for argv in SMOKE:
        one = build_parser(argv[0])
        assert one.format_help() == full.format_help()
        helps = []
        for parser in (one, full):
            with pytest.raises(SystemExit):
                parser.parse_args([argv[0], "-h"])
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1] and helps[0].startswith("usage: kustab")
        on_q3 = [*argv, "--variety", "q3"]
        assert one.parse_args(on_q3) == full.parse_args(on_q3)
    # usage errors: the same one line from either parser, and from run
    for argv in (["chi", "--variety", "q3", "O"],
                 ["gram", "--convention", "bogus"],
                 ["bogus"], [], ["ch", "O", "O"]):
        messages = []
        for parser in (build_parser(argv[0] if argv else None), full):
            with pytest.raises(ParseError) as err:
                parser.parse_args(argv)
            messages.append(str(err.value))
        assert messages[0] == messages[1], argv
        assert invoke_err(capsys, *argv) == (2, "", f"usage error: {messages[0]}\n")


def test_module_run_matches_the_in_process_run(capsysbinary):
    # the handlers import their modules with cli as __main__ too
    for argv in SMOKE:
        for mode in ((), ("--json",)) if argv[0] != "svg" else ((),):
            full = [*argv, "--variety", "q3", *mode]
            code = run(full)
            proc = invoke_process(*full, text=False)
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                code, capsysbinary.readouterr().out, b""), full


def test_cli_runs_with_docstrings_stripped():
    # python -OO drops the docstring that build_parser reads for -h
    argv = ["chi", "--variety", "q3", "O", "O"]
    proc = subprocess.run([sys.executable, "-OO", "-m", "kustab.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, invoke_process(*argv).stdout, "")
