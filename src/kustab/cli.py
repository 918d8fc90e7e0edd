"""Command line surface.

Subcommands map one-to-one onto the library operations; every verdict is
encoded in the report (a failing check still exits 0), usage problems exit
2 and domain errors exit 3.  Reports print as stable text lines or, with
--json, as a JSON document with sorted keys; identical invocations produce
byte-identical output.

Start-up loads what every command needs; each handler imports the modules
it runs, so one invocation loads only its own subcommand's code.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .config import registry
from .exact import DomainError, integer, rat, rational
from .report import json_default, to_text_value
from .variety import (SPINOR_CLASS, SPINOR_VARIETIES, ChernVector,
                      VarietyDesc, euler_pairing, gram_matrix,
                      line_bundle_class, serre_numeric)


class ParseError(ValueError):
    """A malformed token or flag value; reported as a usage error."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # accept negative rationals ("-1/2") and class tokens ("-1,0,0")
        self._negative_number_matcher = re.compile(r"^-\d[\d/,.\-]*$")

    def error(self, message):
        raise ParseError(message)


def parse_class(token: str, x: VarietyDesc, truncated: bool = False) -> ChernVector:
    """Resolve a class token: "O", "O(k)", "S", or comma-separated rationals.

    Full classes need dim + 1 entries; with truncated=True a bare
    (c0, c1, c2) triple is also accepted.
    """
    tok = token.strip()
    if tok == "O":
        return line_bundle_class(x, 0)
    if tok.startswith("O(") and tok.endswith(")"):
        try:
            k = integer(tok[2:-1])
        except ValueError:
            raise ParseError(f"malformed twist in {token!r}") from None
        return line_bundle_class(x, k)
    if tok == "S":
        if x.name.lower() not in SPINOR_VARIETIES:
            raise ParseError(f"unknown symbol 'S' on variety {x.name}")
        return SPINOR_CLASS
    if "," in tok:
        parts = tok.split(",")
        try:
            coeffs = [rat(p) for p in parts]
        except DomainError:
            raise ParseError(f"malformed class token {token!r}") from None
        if len(coeffs) == x.dim + 1:
            return ChernVector(coeffs)
        if truncated and len(coeffs) == 3:
            return ChernVector(coeffs)
        want = f"{x.dim + 1}" + (" or 3" if truncated else "")
        raise ParseError(
            f"wrong arity: {token!r} has {len(coeffs)} entries, needs {want}")
    raise ParseError(f"malformed class token {token!r}")


def default_collection(x: VarietyDesc) -> list[ChernVector]:
    """The standard block O, O(1), ..., O(index - 1)."""
    return [line_bundle_class(x, k) for k in range(x.index)]


def _members(args, x) -> list[ChernVector]:
    return [parse_class(t, x) for t in args.members] or default_collection(x)


def _collection(args, x):
    from . import semiorth
    return semiorth.Collection(variety=x, members=_members(args, x))


def _chi(args, x):
    v = parse_class(args.lhs, x)
    w = parse_class(args.rhs, x)
    return {"lhs": v, "rhs": w, "chi": euler_pairing(x, v, w)}, []


def _gram(args, x):
    g = gram_matrix(x, args.convention)
    return {"convention": args.convention,
            "matrix": [list(g.row(i)) for i in range(g.rows)]}, \
        ["entry (i, j) is chi(H^i, H^j)"
         + ("" if args.convention == "chi" else " divided by the degree")]


def _orth(args, x):
    from . import semiorth
    c = _collection(args, x)
    basis = semiorth.right_orthogonal(x, c)
    return {"collection": list(c.members), "rank": len(basis),
            "basis": basis}, \
        ["basis rows are primitive and in Hermite normal form"]


def _project(args, x):
    from . import semiorth
    c = _collection(args, x)
    v = parse_class(args.target, x)
    proj = semiorth.sod_project(x, c, v)
    return {"target": v, "collection": list(c.members),
            "projection": proj}, \
        ["projection is chi-orthogonal to every collection member"]


def _classify(args, x):
    from . import semiorth
    c = _collection(args, x)
    v = parse_class(args.target, x)
    rep = semiorth.classify_class(x, c, v)
    eig = {1: "+1", -1: "-1", None: "none"}[rep.serre_eigenvalue]
    return {"target": v, "chi_self": rep.chi_self,
            "serre_eigenvalue": eig, "labels": frozenset(rep.labels)}, []


def _serre(args, x):
    s = serre_numeric(x)
    return {"matrix": [list(s.row(i)) for i in range(s.rows)]}, \
        ["equals the matrix of v -> (-1)^n * v * e^(-index H)"]


def _zh(args, x):
    from . import tilt
    v = parse_class(args.target, x)
    z = tilt.charge_h(x, v)
    return {"target": v, "re": z.re, "im": z.im,
            "slope": str(tilt.slope_h(x, v))}, []


def _ztilt(args, x):
    from . import tilt
    v = parse_class(args.target, x)
    p = tilt.TiltParams(args.alpha, args.beta)
    z = tilt.charge_tilt(x, v, args.shift, p)
    return {"target": v, "alpha": p.alpha, "beta": p.beta,
            "shift": args.shift, "re": z.re, "im": z.im,
            "slope": str(tilt.slope_tilt(x, v, p))}, []


def _heart(args, x):
    from . import tilt
    v = parse_class(args.target, x)
    p = tilt.TiltParams(args.alpha, args.beta, args.mu)
    verdict = tilt.heart_case(x, v, args.shift, p)
    checks = [{"name": c.name, "value": str(c.value),
               "threshold": c.threshold, "satisfied": c.satisfied}
              for c in verdict.slope_checks]
    return {"target": v, "shift": args.shift,
            "case": verdict.case_id if verdict.in_heart else "not-in-heart",
            "checks": checks}, []


def _blms(args, x):
    from . import tilt
    members = _members(args, x)
    p = tilt.TiltParams(args.alpha, args.beta, args.mu)
    rep = tilt.blms_check(x, members, p)
    items = [{"condition": i.condition, "label": i.label,
              "passed": i.passed, "detail": i.detail} for i in rep.items]
    return {"collection": members, "alpha": p.alpha,
            "beta": p.beta, "verdict": "PASS" if rep.passed else "FAIL",
            "items": items}, []


def _alpha_range(args, x):
    from . import tilt
    members = _members(args, x)
    intervals = tilt.alpha_range(x, members, args.beta)
    return {"collection": members, "beta": args.beta,
            "intervals": [{"text": i.text(), "lo": i.lo, "hi": i.hi,
                           "lo_open": i.lo_open, "hi_open": i.hi_open}
                          for i in intervals]}, []


def _beta0(args, x):
    from . import walls
    v = parse_class(args.target, x, truncated=True)
    bz = walls.beta_zero(x, v)
    return {"target": v, "F": bz.F, "beta0": bz.beta0, "bound": bz.bound}, []


def _nowall(args, x):
    from . import walls
    v = parse_class(args.target, x, truncated=True)
    bz = walls.beta_zero(x, v)
    cert = walls.nowall_certificate(x, v)
    payload = {"target": v, "certificate": cert is not None, "beta0": bz.beta0,
               "interval": f"(0, {bz.bound})"}
    if cert is not None:
        payload.update(step=cert.lattice_step, conclusion=cert.conclusion)
        return payload, []
    violation = walls.first_interval_violation(x, v)
    if violation is not None:
        c0w, c1w, value = violation
        payload["violation"] = {"c0": c0w, "c1": c1w, "value": value}
    return payload, ["no gcd obstruction; candidate values meet the interval"]


def _walls(args, x):
    from . import walls
    v = parse_class(args.target, x, truncated=True)
    found = walls.wall_scan(x, v, args.max_rank, args.max_c1)
    return {"target": v,
            "bounds": {"max_rank": args.max_rank, "max_c1": args.max_c1},
            "count": len(found),
            "walls": [{"kind": "circle", "center": w.center_beta,
                       "radius_sq": w.radius_sq,
                       "witnesses": list(w.witnesses)} for w in found]}, \
        ["candidate numerical walls; only a certificate is definitive"]


def _svg(args, x):
    from . import walls
    from .svg import render_walls_svg
    v = parse_class(args.target, x, truncated=True)
    found = walls.wall_scan(x, v, args.max_rank, args.max_c1)
    doc = render_walls_svg(found, {
        "beta_min": args.beta_min, "beta_max": args.beta_max,
        "alpha_max": args.alpha_max})
    return {"target": v, "count": len(found), "out": args.out}, [], doc


def _fullness(args, x):
    from . import semiorth
    c = _collection(args, x)
    gens = [parse_class(t, x) for t in args.gen]
    verdict = semiorth.fullness_report(x, c, gens, args.stability_assumed)
    return {"collection": list(c.members), "generators": gens,
            "collection_rank": verdict.collection_rank,
            "residual_rank": verdict.residual_rank,
            "total_rank": verdict.total_rank,
            "stability_assumed": verdict.stability_assumed,
            "checks": [{"name": n, "passed": ok} for n, ok in verdict.checks],
            "verdict": verdict.verdict}, []


# subcommand -> (help, argument names, handler); a handler returns
# (payload, notes), and svg also returns the document it rendered
_COMMANDS = {
    "chi": ("Euler pairing of two classes", ("lhs", "rhs"), _chi),
    "gram": ("Euler pairing matrix on 1, H, ..., H^n", ("--convention",),
             _gram),
    "orth": ("basis of the right orthogonal lattice", ("members",), _orth),
    "project": ("project a class onto the residual lattice",
                ("target", "members"), _project),
    "classify": ("labels of a residual class", ("target", "members"),
                 _classify),
    "serre": ("numerical Serre action matrix", (), _serre),
    "zh": ("weak charge Z_H and slope", ("target",), _zh),
    "ztilt": ("tilt charge and slope",
              ("target", "--alpha", "--beta", "--shift"), _ztilt),
    "heart": ("double-tilt heart membership case",
              ("target", "--alpha", "--beta", "--mu", "--shift"), _heart),
    "blms": ("induced stability checklist",
             ("members", "--alpha", "--beta", "--mu"), _blms),
    "alpha-range": ("exact alpha interval of the checklist at mu = 0",
                    ("members", "--beta"), _alpha_range),
    "beta0": ("discriminant line of a truncated class", ("target",), _beta0),
    "nowall": ("no-wall certificate for a truncated class", ("target",),
               _nowall),
    "walls": ("bounded scan for candidate walls",
              ("target", "--max-rank", "--max-c1"), _walls),
    "svg": ("render the wall scan as SVG",
            ("target", "--max-rank", "--max-c1", "--beta-min", "--beta-max",
             "--alpha-max"), _svg),
    "fullness": ("fullness checklist verdict",
                 ("members", "--gen", "--stability-assumed"), _fullness),
}


# every argument is declared once; subcommands list the ones they take
_ARGUMENTS = {
    "--variety": dict(help="preset or config variety name"),
    "--config": dict(help="path to a JSON variety config"),
    "--json": dict(action="store_true", help="emit a JSON report"),
    "--out": dict(help="write output to a file instead of stdout"),
    "lhs": {}, "rhs": {}, "target": {},
    "members": dict(nargs="*"),
    "--convention": dict(choices=("chi", "paper"), default="chi"),
    "--alpha": dict(type=rational, required=True),
    "--beta": dict(type=rational, required=True),
    "--mu": dict(type=rational, default=Fraction(0)),
    "--shift": dict(type=integer, default=0),
    "--max-rank": dict(type=rational, default=Fraction(3)),
    "--max-c1": dict(type=rational, default=Fraction(3)),
    "--beta-min": dict(type=rational, default=Fraction(-4)),
    "--beta-max": dict(type=rational, default=Fraction(2)),
    "--alpha-max": dict(type=rational, default=Fraction(3)),
    "--gen": dict(action="append", default=[],
                  help="residual generator token (repeatable)"),
    "--stability-assumed": dict(action="store_true"),
}
_COMMON = ("--variety", "--config", "--json", "--out")


def build_parser(command: str | None = None) -> _Parser:
    """All subcommands; arguments only for command, or for all if None."""
    # -h leaves out the docstring's loading note; -OO strips the docstring
    p = _Parser(prog="kustab",
                description=__doc__ and __doc__.rpartition("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_Parser)
    for name, (summary, arguments, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        if command in (None, name):
            for arg in _COMMON + arguments:
                sp.add_argument(arg, **_ARGUMENTS[arg])
    return p


def _render(args, variety: str, payload: dict, notes: list) -> str:
    """The report envelope, as sorted-key JSON or as text lines."""
    if args.json:
        doc = {"command": args.command, "variety": variety,
               "result": payload, "notes": notes}
        return json.dumps(doc, sort_keys=True, default=json_default) + "\n"
    lines = [f"command: {args.command}", f"variety: {variety}"]
    lines.extend(f"{key}: {to_text_value(value)}" for key, value in payload.items())
    lines.extend(f"note: {n}" for n in notes)
    return "\n".join(lines) + "\n"


def run(argv: list[str]) -> int:
    """Execute one invocation; prints the report and returns the exit code."""
    # a parser that populates one subcommand, unless argv[0] names none
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        table, default = registry(args.config)
        name = (args.variety or default).lower()
        if name not in table:
            raise DomainError(f"unknown variety: {name}")
        x = table[name]
        payload, notes, *document = _COMMANDS[args.command][2](args, x)
        try:
            report = _render(args, x.name, payload, notes)
        except ValueError:      # an integer past the str conversion limit
            raise DomainError("report needs an integer of more than "
                              f"{sys.get_int_max_str_digits()} digits") from None
        # the output is the report, or the rendered document with the report
        # as its summary on stdout when the document goes to a file
        if document:
            out, summary = document[0], report
        else:
            out, summary = report.encode("utf-8"), ""
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(out)
            sys.stdout.write(summary)
        else:
            sys.stdout.write(out.decode("utf-8"))
        return 0
    except (ParseError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
