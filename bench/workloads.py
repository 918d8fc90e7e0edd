"""Seeded inputs and single operations of the three benchmark workloads.

Inputs depend only on the seed.  Library calls go through module
attributes (``walls.wall_scan``, not a name bound here at import time) so
that the wrappers installed by ``tracing.Tracer`` see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from kustab import config, semiorth, tilt, variety, walls

PRESETS = ("q3", "p4", "y4", "y2")

# The README's config example; residual_survey and cli_cold use it as the
# user variety "X" (it carries the numerical data of Q3 under another name).
USER_CONFIG = {
    "default_variety": "q3",
    "varieties": [{"name": "X", "dim": 3, "degree": 2, "index": 3,
                   "todd": ["1", "3/2", "13/12", "1/2"],
                   "denoms": [1, 1, 2, 12],
                   "low_deg_H_generated": True}],
}

# -- walls_sweep ----------------------------------------------------------------

# Truncated base classes (c0, c1, c2), c0 > 0 and c1^2 - 2 c0 c2 > 0.  beta_0
# is the same on every preset (the degree cancels), and a certificate exists
# exactly when c1^2 - 2 c0 c2 = 1 and beta_0 is an integer.
WALL_CLASSES = (
    (2, -1, 0), (1, 0, Fraction(-1, 2)), (3, 1, 0),          # rational, certified
    (1, 0, -2), (3, 0, Fraction(-3, 2)), (3, -1, Fraction(-5, 2)),  # rational
    (2, -1, -2), (1, 1, -4),
    (1, 0, -1), (3, 1, -2), (2, 1, -1), (2, -1, Fraction(-3, 2)),   # irrational
    (1, 0, Fraction(-5, 2)), (2, 0, Fraction(-1, 2)), (3, -1, -1), (1, 1, -1),
)
WALL_BOUNDS = (4, 6, 8, 12, 16, 24, 32)
WALL_TWISTS = (-2, -1, 0, 1, 2)
# max_c1 = C1_BOX * bound.  Every witness has |c1| < |beta_0| |c0| + sqrt(D)
# with |beta_0| <= 5 here, so the c1 box never clips: the scan of a twisted
# class is then the twist of the scan of its base class, with the same work.
C1_BOX = 8


@dataclass(frozen=True)
class WallOp:
    preset: str
    base: tuple
    twist: int
    bound: int
    target: variety.ChernVector


def walls_inputs(seed: int) -> list[WallOp]:
    """Each base class at every bound, twisted by O(k) on a preset, both seeded."""
    rng = random.Random(f"walls_sweep:{seed}")
    ops = []
    for base in WALL_CLASSES:
        preset, k = rng.choice(PRESETS), rng.choice(WALL_TWISTS)
        target = variety.exp_twist(variety.ChernVector(base), k)
        ops.extend(WallOp(preset, base, k, b, target) for b in WALL_BOUNDS)
    rng.shuffle(ops)
    return ops


def run_wall_op(op: WallOp):
    x = variety.get_preset(op.preset)
    cert = walls.nowall_certificate(x, op.target)
    found = walls.wall_scan(x, op.target, op.bound, C1_BOX * op.bound)
    return cert, found


# -- residual_survey --------------------------------------------------------------

BLOCK_STARTS = range(-3, 5)


@dataclass(frozen=True)
class SurveyOp:
    variety: variety.VarietyDesc
    collection: semiorth.Collection
    target: variety.ChernVector       # seeded lattice class for sod_project
    alphas: tuple[Fraction, ...]      # seeded (alpha, beta) grid, threefolds only
    betas: tuple[Fraction, ...]


def user_variety() -> variety.VarietyDesc:
    return config.variety_from_dict(USER_CONFIG["varieties"][0])


def survey_inputs(seed: int) -> list[SurveyOp]:
    """Every block O(a), ..., O(a+m-1), -3 <= a <= 4, 1 <= m <= index."""
    rng = random.Random(f"residual_survey:{seed}")
    ops = []
    for x in [variety.get_preset(p) for p in PRESETS] + [user_variety()]:
        for a in BLOCK_STARTS:
            for m in range(1, x.index + 1):
                members = tuple(variety.line_bundle_class(x, k)
                                for k in range(a, a + m))
                coords = [0] * (x.dim + 1)
                while not any(coords):
                    coords = [rng.randint(-3, 3) for _ in coords]
                # beta in a window around [a + m - 1 - index, a), where the
                # checklist can pass, and a little beyond it on both sides
                lo = 4 * (a + m - 1 - x.index) - 2
                betas = tuple(Fraction(rng.randrange(lo, 4 * a + 2), 4)
                              for _ in range(2))
                alphas = tuple(Fraction(rng.randint(1, 24), 8)
                               for _ in range(2))
                ops.append(SurveyOp(
                    x, semiorth.Collection(variety=x, members=members),
                    variety.from_lattice_coords(x, coords), alphas, betas))
    rng.shuffle(ops)
    return ops


@dataclass
class SurveyResult:
    exceptional: bool
    basis: list
    serre: object
    classes: list
    projection: object
    fullness: object
    blms: dict          # (alpha, beta) -> passed
    ranges: dict        # beta -> list of AlphaInterval


def run_survey_op(op: SurveyOp) -> SurveyResult:
    x, c = op.variety, op.collection
    exceptional = semiorth.is_numerically_exceptional(c)
    basis = semiorth.right_orthogonal(x, c)
    serre = semiorth.serre_on_residual(x, c, basis)
    classes = [semiorth.classify_class(x, c, b) for b in basis]
    projection = semiorth.sod_project(x, c, op.target)
    fullness = semiorth.fullness_report(x, c, basis, True)
    blms, ranges = {}, {}
    if x.dim == 3:
        for beta in op.betas:
            ranges[beta] = tilt.alpha_range(x, c.members, beta)
            for alpha in op.alphas:
                rep = tilt.blms_check(x, c.members, tilt.TiltParams(alpha, beta))
                blms[(alpha, beta)] = rep.passed
    return SurveyResult(exceptional, basis, serre, classes, projection,
                        fullness, blms, ranges)


# -- cli_cold ---------------------------------------------------------------------

# Five invocations that raise a traceback and exit 1 instead of exiting 2 or 3.
# They do not depend on the seed; run.py counts them as failed.
FAULTS = (
    ("chi", "--variety", "q3", "O", "1,a,0,0"),
    ("chi", "--variety", "q3", "O", "1/0,0,0,0"),
    ("svg", "--variety", "q3", "1,0,-1", "--beta-min", "2", "--beta-max", "1"),
    ("orth", "--config", "{cfg}/bad_dim.json", "--variety", "bad"),
    ("orth", "--config", "{cfg}/top_list.json"),
)

# Malformed invocations the CLI handles today, with their exit codes.
HANDLED_ERRORS = (
    (("chi", "--variety", "q3", "O"), 2),
    (("gram", "--variety", "q3", "--convention", "bogus"), 2),
    (("orth", "--variety", "nosuch"), 3),
    (("beta0", "--variety", "q3", "1,0,0"), 3),
)

SPINOR_TOKEN = "2,-1,0,1/12"


@dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]
    kind: str                 # "command", "handled" (error) or "fault"
    expect: int | None        # exit code of a handled error
    variety: str              # registry key the invocation resolves to


def write_cli_configs(cfg_dir: Path) -> None:
    cfg_dir.mkdir(parents=True, exist_ok=True)
    bad = dict(USER_CONFIG["varieties"][0], name="bad", dim="x")
    docs = {"x.json": USER_CONFIG,
            "bad_dim.json": {"varieties": [bad]},
            "top_list.json": [USER_CONFIG["varieties"][0]]}
    for name, doc in docs.items():
        (cfg_dir / name).write_text(json.dumps(doc, sort_keys=True) + "\n")


def _class_token(c) -> str:
    return ",".join(str(Fraction(x)) for x in c)


def cli_inputs(seed: int, cfg_dir: Path) -> list[CliOp]:
    """README commands on every preset and on the config variety X.

    Each (variety, command) runs once, in a seeded one of text and --json
    modes; sixteen seeded invocations are repeated to test byte identity.
    """
    rng = random.Random(f"cli_cold:{seed}")
    cfg = str(cfg_dir)
    targets = [(p, ("--variety", p)) for p in PRESETS]
    targets.append(("x", ("--config", f"{cfg}/x.json", "--variety", "x")))
    ops = []
    for key, vflags in targets:
        x = user_variety() if key == "x" else variety.get_preset(key)
        n = x.dim + 1

        def lattice_token():
            coords = [rng.randint(-3, 3) for _ in range(n)]
            coords[0] = rng.randint(1, 3)
            return _class_token(Fraction(c, d) for c, d in zip(coords, x.denoms))

        k1, k2 = rng.randint(-3, 3), rng.randint(-3, 3)
        alpha, beta = Fraction(rng.randint(1, 16), 8), Fraction(rng.randint(-12, 4), 4)
        twist = rng.choice(WALL_TWISTS)
        spinor = SPINOR_TOKEN if n == 4 else "2,-1,0,0,1/24"
        wall_cls = _class_token(variety.exp_twist(variety.ChernVector((1, 0, -1)), twist))
        svg_cls = _class_token(variety.exp_twist(variety.ChernVector((3, 1, -2)), twist))
        box = ("--max-rank", "3", "--max-c1", str(3 * C1_BOX))
        commands = [
            ("chi", f"O({k1})", f"O({k2})"),
            ("gram", "--convention", rng.choice(("chi", "paper"))),
            ("orth",),
            ("project", lattice_token()),
            ("classify", spinor),
            ("serre",),
            ("zh", rng.choice((spinor, f"O({k1})"))),
            ("ztilt", f"O({k1})", "--alpha", str(alpha), "--beta", str(beta),
             "--shift", str(rng.randint(0, 2))),
            ("heart", f"O({k2})", "--alpha", str(alpha), "--beta", str(beta),
             "--shift", str(rng.randint(0, 2))),
            ("blms", "--alpha", str(alpha), "--beta", str(beta)),
            ("alpha-range", "--beta", str(beta)),
            ("beta0", wall_cls),
            ("nowall", wall_cls),
            ("walls", wall_cls, *box),
            ("svg", svg_cls, *box, "--beta-min", str(twist - 4),
             "--beta-max", str(twist + 2)),
            ("walls", svg_cls, *box),
            ("fullness", *(("--gen", spinor) if key in ("q3", "x") else ()),
             "--stability-assumed"),
        ]
        for cmd in commands:
            # svg prints the document itself; alpha-range stays JSON so that
            # the blms verdict can be checked against its intervals
            json_mode = (cmd[0] == "alpha-range"
                         or cmd[0] != "svg" and rng.random() < 0.5)
            argv = (cmd[0], *vflags, *cmd[1:], *(("--json",) if json_mode else ()))
            ops.append(CliOp(argv, "command", None, key))
    for argv, code in HANDLED_ERRORS:
        ops.append(CliOp(argv, "handled", code, "q3"))
    # repeats come from the commands only, so the share of faults in a pass
    # is the same for every seed
    ops.extend(rng.sample(ops, 16))
    for argv in FAULTS:
        ops.append(CliOp(tuple(a.format(cfg=cfg) for a in argv), "fault",
                         None, "q3"))
    rng.shuffle(ops)
    return ops
