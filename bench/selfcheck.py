"""Self-check of the benchmark: `python3 bench/run.py --selfcheck`.

Runs one pass of every workload with all correctness checks, shows that
traced counts repeat exactly, and then corrupts one output at a time (a
witness, a dropped circle, a residual basis vector, a projection, a CLI
exit code, a CLI chi value) to show that each corruption turns the run
red.  Exit code 0 means every step behaved as stated.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import checks
import run
from kustab.variety import ChernVector
from tracing import Tracer

SEED = 1


def _pass(workload):
    ops = run.build_inputs(workload, SEED)
    _, results = run.timed_pass(ops, run.op_runner(workload, False, SEED))
    return ops, results


def _traced_counts(workload):
    ops = run.build_inputs(workload, SEED)
    fn = run.op_runner(workload, True, SEED)
    tracer = Tracer()
    tracer.install()
    try:
        run.timed_pass(ops, fn, tracer)
    finally:
        tracer.uninstall()
    return tracer.counts()


def main() -> int:
    bad = []

    def expect(ok: bool, what: str):
        print(("ok:   " if ok else "FAIL: ") + what, flush=True)
        if not ok:
            bad.append(what)

    passes = {w: _pass(w) for w in run.WORKLOADS}
    for w, (ops, results) in passes.items():
        problems, failed = run.check_passes(w, ops, [results])
        want = len(_faults(ops)) if w == "cli_cold" else 0
        expect(not problems and failed == want,
               f"{w}: one pass of {len(ops)} operations passes every check, "
               f"{failed} failed")
        for line in problems[:5]:
            print("      ", line)
    for w in run.WORKLOADS:
        expect(_traced_counts(w) == _traced_counts(w),
               f"{w}: two traced passes give the same counts")

    # walls_sweep: a witness moved off its circle
    ops, results = passes["walls_sweep"]
    i = next(i for i, (_, found) in enumerate(results) if found)
    cert, found = results[i]
    w = found[0].witnesses[0]
    moved = ChernVector([w[0], w[1], w[2] + Fraction(1, 2)])
    circle = dataclasses.replace(found[0], witnesses=(moved,) + found[0].witnesses[1:])
    expect(bool(checks.check_wall_op(ops[i], cert, [circle] + found[1:])),
           "walls_sweep: a mutated witness is caught")
    i = next(i for i, (op, (_, found)) in enumerate(zip(ops, results))
             if found and op.bound == min(o.bound for o in ops))
    expect(bool(checks.check_against_enumeration(
               ops[i], checks.circles_of(results[i][1][1:]))),
           "walls_sweep: a circle dropped from a bound-4 scan is caught")

    # residual_survey: a wrong basis vector and a wrong projection
    ops, results = passes["residual_survey"]
    i = next(i for i, r in enumerate(results) if r.basis)
    res = results[i]
    b = list(res.basis[0])
    b[-1] += Fraction(1, ops[i].variety.denoms[-1])
    wrong = dataclasses.replace(res, basis=[b] + list(res.basis[1:]))
    expect(bool(checks.check_survey(ops[i], wrong)),
           "residual_survey: a wrong residual basis vector is caught")
    p = list(res.projection)
    p[0] += 1
    expect(bool(checks.check_survey(ops[i], dataclasses.replace(res, projection=p))),
           "residual_survey: a wrong projection is caught")

    # cli_cold: a wrong exit code, a wrong chi, a repaired fault
    ops, results = passes["cli_cold"]
    i = next(i for i, op in enumerate(ops) if op.kind == "command")
    flipped = list(results)
    flipped[i] = run.CliResult(1, results[i].stdout, b"Traceback\n")
    expect(bool(run.check_cli(ops, [flipped])[0]), "cli_cold: a wrong exit code is caught")
    i = next(i for i, op in enumerate(ops) if op.argv[0] == "chi" and op.kind == "command")
    if "--json" in ops[i].argv:
        doc = json.loads(results[i].stdout)
        doc["result"]["chi"] = str(Fraction(doc["result"]["chi"]) + 1)
        report = json.dumps(doc, sort_keys=True) + "\n"
    else:
        report = "".join(line if not line.startswith("chi: ") else
                         f"chi: {Fraction(line[5:]) + 1}\n"
                         for line in results[i].stdout.decode().splitlines(True))
    changed = list(results)
    changed[i] = run.CliResult(0, report.encode(), b"")
    expect(bool(run.check_cli(ops, [changed])[0]), "cli_cold: a wrong chi value is caught")
    i = next(i for i, op in enumerate(ops) if op.kind == "fault")
    repaired = list(results)
    repaired[i] = run.CliResult(2, b"", b"usage error: malformed\n")
    expect(run.check_cli(ops, [repaired])[1] == len(_faults(ops)) - 1,
           "cli_cold: a fault that exits 2 without a traceback stops counting as failed")
    print(f"selfcheck: {len(bad)} step(s) failed")
    return 1 if bad else 0


def _faults(ops):
    return [op for op in ops if op.kind == "fault"]
