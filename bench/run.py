"""kustab benchmark: one workload per run, a fixed amount of work per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --selfcheck

A run makes whole passes over an operation list generated from the seed;
the number of passes is round(S / nominal pass time), so the work of a run
depends on its arguments only, never on a clock.  One single-threaded
client runs the operations one after another (a closed loop).  The last
line of standard output is a JSON object with the keys correct, attempted,
failed and metrics: with --trace 0 the end-to-end metrics, measured with
tracing off; with --trace 1 the per-layer metrics of traced passes.  The
exit code is 1 when a correctness check fails and 2 when the program under
test is missing.  Spans of a traced run are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")

WORKLOADS = ("walls_sweep", "residual_survey", "cli_cold")
# Seconds one pass takes on the reference machine (see README.md).
PASS_SECONDS = {"walls_sweep": 5.0, "residual_survey": 1.9, "cli_cold": 15.0}
SETUP_PROBES = 11
IMPORT_PROBES = 5
CLI_TIMEOUT_S = 60


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true",
                   help="short runs of every workload, then show each check can fail")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "kustab" / "__init__.py").is_file():
        print(f"error: no kustab sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.probe:
        build_inputs(args.workload, args.seed)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    if args.selfcheck:
        import selfcheck
        return selfcheck.main()
    if args.workload is None:
        p.error("--workload is required")
    passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    result = run_workload(args.workload, args.seed, passes, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


# -- inputs ---------------------------------------------------------------------


def cli_dir(seed: int) -> Path:
    return OUT / f"cli_cold-s{seed}"


def build_inputs(workload: str, seed: int):
    """Everything a run needs before its first timed operation."""
    import workloads
    if workload == "walls_sweep":
        return workloads.walls_inputs(seed)
    if workload == "residual_survey":
        return workloads.survey_inputs(seed)
    import kustab.cli  # noqa: F401  (set-up includes the import every CLI call pays)
    workloads.write_cli_configs(cli_dir(seed))
    return workloads.cli_inputs(seed, cli_dir(seed))


def setup_seconds(workload: str, seed: int) -> float:
    """Time from the start of a fresh process to its inputs being built."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--probe",
         "--workload", workload, "--seed", str(seed)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT)
    line = child.stdout.readline()
    elapsed = time.perf_counter() - start
    child.stdout.close()
    if child.wait() != 0 or line != b"ready\n":
        raise RuntimeError(f"set-up probe failed: {line!r}")
    return elapsed


# -- operations ---------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int = 0


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn_cli(op, env, tmp: Path) -> CliResult:
    """One fresh `python -m kustab.cli` process; its own rusage via wait4."""
    with open(tmp / "stdout", "w+b") as out, open(tmp / "stderr", "w+b") as err:
        child = subprocess.Popen([sys.executable, "-m", "kustab.cli", *op.argv],
                                 stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                 env=env, cwd=ROOT)
        watchdog = threading.Timer(CLI_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return CliResult(child.returncode, out.read(), err.read(), usage.ru_maxrss)


def run_cli_inprocess(op) -> CliResult:
    """The same invocation through cli.run in this process (traced runs)."""
    import contextlib
    import io
    from kustab import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(op.argv))
        except Exception as exc:      # the CLI's own traceback path: exit 1
            err.write(f"Traceback (in process): {exc!r}\n")
            code = 1
    return CliResult(code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8"))


def op_runner(workload: str, traced: bool, seed: int):
    import workloads
    if workload == "walls_sweep":
        return workloads.run_wall_op
    if workload == "residual_survey":
        return workloads.run_survey_op
    if traced:
        return run_cli_inprocess
    env, tmp = cli_env(), cli_dir(seed)
    return lambda op: spawn_cli(op, env, tmp)


def timed_pass(ops, fn, tracer=None, between=None, first_id=0):
    """Run every operation once; returns (latencies, results).

    between maps an operation index to a callable run, untimed, before
    that operation.  Spans of operation i carry the id first_id + i.
    """
    between = between or {}
    latencies, results = [], []
    perf = time.perf_counter
    for i, op in enumerate(ops):
        if i in between:
            between[i]()
        if tracer is not None:
            tracer.op = first_id + i
        t0 = perf()
        results.append(fn(op))
        latencies.append(perf() - t0)
    return latencies, results


# -- a run ----------------------------------------------------------------------------


def run_workload(workload: str, seed: int, passes: int, trace: bool) -> dict:
    ops = build_inputs(workload, seed)
    fn = op_runner(workload, trace, seed)
    if trace:
        return traced_run(workload, seed, ops, fn)
    # set-up probes are spread evenly over the run, between operations, so
    # that their median spans the same stretch of time as the operations
    setup, probe = [], lambda: setup.append(setup_seconds(workload, seed))
    total = passes * len(ops)
    at = [divmod((2 * k + 1) * total // (2 * SETUP_PROBES), len(ops))
          for k in range(SETUP_PROBES)]
    latencies, results = [], []
    for p in range(passes):
        lat, res = timed_pass(ops, fn, between={i: probe for q, i in at if q == p})
        latencies.append(lat)
        results.append(res)
    # Each operation's fastest time over the passes: on a shared machine
    # interference only ever adds time, and it comes in stretches of seconds
    # that a median over passes does not average out (see README.md).
    best = [min(times) for times in zip(*latencies)]
    if workload == "cli_cold":
        peak_kb = max(r.maxrss_kb for res in results for r in res)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems, failed = check_passes(workload, ops, results)
    for line in problems[:20]:
        print("check failed:", line, file=sys.stderr)
    metrics = {
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "p50_ms": (statistics.median(best) * 1000, "ms"),
        "p90_ms": (statistics.quantiles(best, n=10)[8] * 1000, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return result_doc(not problems, passes * len(ops), failed, metrics)


def traced_run(workload, seed, ops, fn) -> dict:
    """Untraced and traced passes of the same operations, alternated twice.

    trace.overhead compares the sums of each operation's fastest time in
    the traced and in the untraced passes.
    """
    from tracing import Tracer
    if workload == "cli_cold":
        fn(ops[0])      # one-time caches (argparse's compiled patterns) fill here
    tracer = Tracer()
    plain, traced, results = [], [], []
    for k in range(2):
        lat, res = timed_pass(ops, fn)
        plain.append(lat)
        results.append(res)
        tracer.install()
        try:
            lat, res = timed_pass(ops, fn, tracer, first_id=k * len(ops))
        finally:
            tracer.uninstall()
        traced.append(lat)
        results.append(res)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload}-s{seed}.jsonl")
    problems, failed = check_passes(workload, ops, results)
    for line in problems[:20]:
        print("check failed:", line, file=sys.stderr)
    overhead = sum(map(min, zip(*traced))) / sum(map(min, zip(*plain)))
    import_ms = cli_import_ms() if workload == "cli_cold" else 0.0
    metrics = tracer.metrics(2 * len(ops), overhead, import_ms)
    return result_doc(not problems, 4 * len(ops), failed, metrics)


def cli_import_ms() -> float:
    """Median cumulative import time of kustab.cli in a fresh interpreter."""
    samples = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import kustab.cli"],
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
            env=cli_env(), cwd=ROOT, check=True)
        # the last kustab.cli line is the top-level import, with its children
        cumulative = [int(f[1]) for f in (line.split("|") for line in done.stderr.splitlines())
                      if len(f) == 3 and f[2].strip() == "kustab.cli"]
        samples.append(cumulative[-1] / 1000)
    return statistics.median(samples)


def result_doc(correct, attempted, failed, metrics) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


# -- checking -------------------------------------------------------------------------


def check_passes(workload, ops, passes) -> tuple[list[str], int]:
    """Problems found in the results of every pass, and the failed count.

    The first pass is checked in full; every later pass must repeat it.
    """
    import checks
    import workloads
    if workload == "cli_cold":
        return check_cli(ops, passes)
    first, problems = passes[0], []
    if workload == "walls_sweep":
        scans = {}
        for op, (cert, found) in zip(ops, first):
            problems += checks.check_wall_op(op, cert, found)
            scans.setdefault((op.preset, op.base), {})[op.bound] = checks.circles_of(found)
            if op.bound == workloads.WALL_BOUNDS[0]:
                problems += checks.check_against_enumeration(op, checks.circles_of(found))
        for by_bound in scans.values():
            problems += checks.check_nesting(by_bound)
        key = lambda r: checks.circles_of(r[1])
    else:
        for op, res in zip(ops, first):
            problems += checks.check_survey(op, res)
        key = lambda r: (r.basis, r.projection, r.blms)
    if any(list(map(key, res)) != list(map(key, first)) for res in passes[1:]):
        problems.append("a later pass gave other results than the first")
    return problems, 0


def check_cli(ops, passes) -> tuple[list[str], int]:
    """Exit codes, byte identity of repeated invocations, report contents."""
    import checks
    problems, failed, outputs = [], 0, {}
    for n, res in enumerate(passes):
        by_argv = {op.argv: r.stdout for op, r in zip(ops, res)}
        for op, r in zip(ops, res):
            tag = " ".join(op.argv)
            if outputs.setdefault(op.argv, (r.code, r.stdout)) != (r.code, r.stdout):
                problems.append(f"{tag}: output differs between identical invocations")
            if op.kind == "fault":
                failed += r.code not in (2, 3) or b"Traceback" in r.stderr
                continue
            want = op.expect if op.kind == "handled" else checks.expected_exit(op)
            if r.code != want:
                problems.append(f"{tag}: exit {r.code}, expected {want}: "
                                f"{r.stderr[-200:]!r}")
            elif want == 0 and n == 0:
                problems += checks.check_cli_output(op, r.stdout, by_argv)
    return problems, failed


if __name__ == "__main__":
    sys.exit(main())
