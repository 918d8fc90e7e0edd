"""Golden CLI transcripts, compared byte for byte.

Each transcript under tests/golden/ records, for a list of invocations,
the exit code, stdout, stderr and any file written with --out.  The
README commands run on every preset and on the README config variety, in
text and --json mode, followed by svg to stdout and with --out, and the
handled error cases.  Regenerate the transcripts after an intended output
change with

    PYTHONPATH=src python tests/test_golden.py --regen
"""

import contextlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from kustab.cli import run
from kustab.exact import QuadNumber

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIG = GOLDEN / "config_x.json"

# variety key -> (selection flags, spinor-like token, point-class token)
VARIETIES = {
    "q3": (("--variety", "q3"), "S", "0,0,0,1/2"),
    "p4": (("--variety", "p4"), "2,-1,0,0,1/24", "0,0,0,0,1"),
    "y4": (("--variety", "y4"), "S", "0,0,0,1/4"),
    "y2": (("--variety", "y2"), "2,-1,0,1/12", "0,0,0,1/2"),
    "x": (("--config", "{config}", "--variety", "x"), "2,-1,0,1/12",
          "0,0,0,1/2"),
}


def _readme_commands(spinor, point):
    return [
        ("chi", "O", "O(1)"),
        ("gram", "--convention", "paper"),
        ("gram",),
        ("orth",),
        ("project", point),
        ("classify", spinor),
        ("zh", spinor),
        ("ztilt", spinor, "--alpha", "1/4", "--beta", "-1/2", "--shift", "1"),
        ("heart", spinor, "--shift", "1", "--alpha", "1/4", "--beta", "-1/2"),
        ("blms", "--alpha", "1/4", "--beta", "-1/2"),
        ("blms", "--alpha", "1/2", "--beta", "-1/2"),
        ("alpha-range", "--beta", "-1/2"),
        ("beta0", "2,-1,0"),
        ("beta0", "1,0,-1"),
        ("beta0", "3,1,-2"),
        ("nowall", "2,-1,0"),
        ("nowall", "1,0,-1"),
        ("nowall", "2,0,-1"),
        ("walls", "1,0,-1"),
        ("walls", "3,1,-2", "--max-rank", "2", "--max-c1", "4"),
        ("fullness", "--gen", spinor, "--stability-assumed"),
        ("fullness",),
    ]


def _cases():
    """(transcript name, [(argv, out file or None)]) in a fixed order."""
    out = []
    for key, (flags, spinor, point) in VARIETIES.items():
        cases = []
        for cmd in _readme_commands(spinor, point):
            for mode in ((), ("--json",)):
                cases.append(((cmd[0], *flags, *cmd[1:], *mode), None))
        svg = ("svg", *flags, "1,0,-1")
        cases.append((svg, None))
        cases.append(((*svg, "--out", "atlas.svg"), "atlas.svg"))
        cases.append(((*svg, "--out", "atlas.svg", "--json"), "atlas.svg"))
        out.append((key, cases))
    out.append(("misc", [
        (("chi", "--variety", "q3", "O"), None),
        (("gram", "--variety", "q3", "--convention", "bogus"), None),
        (("orth", "--variety", "nosuch"), None),
        (("beta0", "--variety", "q3", "1,0,0"), None),
        (("chi", "--variety", "q3", "O", "O(1)", "--out", "chi.txt"), "chi.txt"),
        (("svg", "--variety", "q3", "3,1,-2", "--beta-min", "-1",
          "--beta-max", "1", "--alpha-max", "2"), None),
    ]))
    return out


def _invoke(argv, workdir: Path):
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(list(argv))
    finally:
        os.chdir(cwd)
    return code, stdout.getvalue().encode(), stderr.getvalue().encode()


def transcript(cases) -> bytes:
    parts = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for argv, out_file in cases:
            argv = tuple(a.format(config=CONFIG) for a in argv)
            code, out, err = _invoke(argv, workdir)
            shown = " ".join(shlex.quote(a) for a in argv).replace(
                str(CONFIG), "config_x.json")
            parts.append(f"$ kustab {shown}\n==> exit {code}\n".encode())
            parts.append(b"==> stdout\n" + out)
            parts.append(b"==> stderr\n" + err)
            if out_file is not None:
                path = workdir / out_file
                parts.append(f"==> file {out_file}\n".encode() + path.read_bytes())
                path.unlink()
    return b"".join(parts)


CASES = _cases()


@pytest.mark.parametrize("name,cases", CASES, ids=[n for n, _ in CASES])
def test_golden_transcript(name, cases):
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    got = transcript(cases)
    if got != expected:
        exp_lines = expected.splitlines(keepends=True)
        got_lines = got.splitlines(keepends=True)
        i = next((i for i, (a, b) in enumerate(zip(exp_lines, got_lines))
                  if a != b), min(len(exp_lines), len(got_lines)))
        pytest.fail(f"{name}.txt differs at line {i + 1}:\n"
                    f"  expected: {exp_lines[i:i + 1]!r}\n"
                    f"  got:      {got_lines[i:i + 1]!r}")


# every QuadNumber method that computes with or compares values (a wider
# set than test_walls.QUAD_ARITHMETIC, which leaves order and floor alone)
QUAD_METHODS = ("_coerce", "_join_radicand", "__add__", "__radd__",
                "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
                "__truediv__", "sign", "_cmp", "__eq__", "__lt__", "__le__",
                "__gt__", "__ge__", "floor")


def test_src_does_no_quad_number_arithmetic(monkeypatch):
    # QuadNumbers are built and printed, never computed with: the golden
    # transcripts, the residual survey of seed 1 and AlphaInterval.contains
    # on its ranges all run with the arithmetic and order methods removed
    def refuse(*args):
        raise AssertionError("QuadNumber arithmetic")

    for name in QUAD_METHODS:
        monkeypatch.setattr(QuadNumber, name, refuse)
    for name, cases in CASES:
        assert transcript(cases) == (GOLDEN / f"{name}.txt").read_bytes(), name
    monkeypatch.syspath_prepend(str(GOLDEN.parent.parent / "bench"))
    import workloads

    for op in workloads.survey_inputs(1):
        res = workloads.run_survey_op(op)
        for (alpha, beta), passed in res.blms.items():
            assert passed == any(iv.contains(alpha)
                                 for iv in res.ranges[beta])


def _regenerate() -> None:
    for name, cases in CASES:
        (GOLDEN / f"{name}.txt").write_bytes(transcript(cases))
        print(f"wrote {GOLDEN / name}.txt")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regen")
    _regenerate()
