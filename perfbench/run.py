"""Seeded, single-process benchmark of the immersa library.

    python3 perfbench/run.py --workload hg-lifts --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all          # every workload, one after another

Each workload is a closed loop on one thread: op i + 1 starts when op i
returns.  The library is imported from src/ of the checkout the script
sits in.  Every op is checked against a law of the paper (see
workloads.py); an op that raises or breaks its law counts as failed, and
the first one prints its workload, seed and op index and writes its input
to perfbench/out/.

--trace 0 prints the end-to-end metrics.  Set-up (process start to the
first timed op) is measured in SETUP_RUNS fresh processes and reported as
their median; the last of them goes on to run the timed phase.

--trace 1 prints the per-layer metrics instead.  It runs the workload for
half the time untraced and half the time with spans.Tracer installed, and
reports the tracing overhead as 1 - traced / untraced ops per second.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 2 when the
library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
SETUP_RUNS = 3
# A run goes on past --seconds until it has MIN_OPS ops, so that the 90th
# percentile has at least ten samples above it; MAX_SECONDS caps that.
MIN_OPS = 100
MAX_SECONDS = 120

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Loop:
    """Outcome of a timed phase."""

    def __init__(self, durations, failed, elapsed, first_failure):
        self.durations = durations
        self.failed = failed
        self.elapsed = elapsed
        self.first_failure = first_failure

    @property
    def attempted(self):
        return len(self.durations)

    @property
    def ops_per_s(self):
        return (self.attempted - self.failed) / self.elapsed


def timed_loop(op, seconds, min_ops=1):
    """Run op(0), op(1), ... until seconds have passed and min_ops ran.

    op returns None when its checks pass and a reason otherwise.  An op that
    raises is a failed op, not the end of the run.
    """
    durations = []
    failed = 0
    first_failure = None
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        try:
            reason = op(i)
        except Exception as exc:  # a failed op is counted, the run goes on
            reason = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        durations.append(t1 - t0)
        if reason is not None:
            failed += 1
            if first_failure is None:
                first_failure = (i, reason)
        i += 1
        elapsed = t1 - start
        if (elapsed >= seconds and i >= min_ops) or elapsed >= MAX_SECONDS:
            return Loop(durations, failed, elapsed, first_failure)


# -- child process -------------------------------------------------------

def child(args):
    """Set up one workload, then run its timed phase unless role is setup."""
    # numpy is already loaded by workloads, so this times immersa alone.
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import immersa
    if Path(immersa.__file__).resolve().parent != SRC / "immersa":
        raise SystemExit(f"perfbench: imported immersa from {immersa.__file__}, not {SRC}")
    import_ms = (time.perf_counter() - started) * 1e3

    build = WORKLOADS[args.workload]
    tracer = None
    if args.child == "traced":
        tracer = spans.Tracer(immersa)
        tracer.install()
        workload = tracer.run_setup(lambda: build(immersa, args.seed))
    else:
        workload = build(immersa, args.seed)
    print("ready", flush=True)
    if args.child == "setup":
        return 0

    if tracer is None:
        loop = timed_loop(workload.op, args.seconds, args.min_ops)
    else:
        try:
            loop = timed_loop(lambda i: tracer.run_op(i, workload.op), args.seconds, args.min_ops)
        finally:
            tracer.restore()
    result = {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "ops_per_s": loop.ops_per_s,
        "durations_ms": [d * 1e3 for d in loop.durations],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if loop.first_failure is not None:
        report_failure(workload, args, *loop.first_failure)
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        layers = tracer.layer_metrics(loop.attempted)
        layers["setup.import.ms"] = (import_ms, "ms")
        layers["trace.ops"] = (loop.attempted, "count")
        result["layers"] = layers
    print(json.dumps(result), flush=True)
    return 0


def report_failure(workload, args, i, reason):
    print(f"perfbench: first failed op: workload {args.workload} seed {args.seed} "
          f"op {i}: {reason}", file=sys.stderr)
    try:
        suffix, text = workload.replay(i)
    except Exception as exc:  # the input itself may be what fails
        print(f"perfbench: could not rebuild the input of op {i}: {exc}", file=sys.stderr)
        return
    path = OUT / f"failure-{args.workload}-seed{args.seed}-op{i}{suffix}"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"perfbench: wrote its input to {path}", file=sys.stderr)


# -- parent process ------------------------------------------------------

def spawn(role, workload, seed, seconds=0.0, min_ops=1):
    """Run one child; returns (seconds from start to ready, result or None)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child", role,
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--min-ops", str(min_ops)]
    # A fixed string hash keeps set and dict orders, and so timings, the
    # same from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"perfbench: {role} process for {workload} exited with {proc.returncode}")
    return setup_s, (json.loads(rest.splitlines()[-1]) if rest.strip() else None)


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns the result object printed as JSON."""
    if not trace:
        setups = [spawn("setup", workload, seed)[0] for _ in range(SETUP_RUNS - 1)]
        setup_s, res = spawn("measure", workload, seed, seconds, MIN_OPS)
        setups.append(setup_s)
        d = res["durations_ms"]
        metrics = {
            "ops_per_s": res["ops_per_s"],
            "op_ms_p50": statistics.median(d),
            "op_ms_p90": statistics.quantiles(d, n=10)[8],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        attempted, failed = res["attempted"], res["failed"]
    else:
        _, plain = spawn("measure", workload, seed, seconds / 2)
        _, traced = spawn("traced", workload, seed, seconds / 2)
        layers = traced["layers"]
        layers["trace.overhead_frac"] = (1 - traced["ops_per_s"] / plain["ops_per_s"], "ratio")
        metrics = {name: value for name, (value, _) in layers.items()}
        units = {name: unit for name, (_, unit) in layers.items()}
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def print_table(workload, seed, result):
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload}  seed {seed}  {attempted} ops, {failed} failed")
    for name, m in result["metrics"].items():
        count = f"  (of {attempted} ops)" if name.startswith("op_ms_p") else ""
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}{count}")
    print(f"  {'failed_frac':40s} {failed / attempted:14.6g} ({failed} of {attempted})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--min-ops", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)
    if not (SRC / "immersa" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC / 'immersa'}", file=sys.stderr)
        return 2
    if not args.all and not args.workload:
        parser.error("give --workload or --all")
    names = tuple(WORKLOADS) if args.all else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        print_table(name, args.seed, results[name])
    print(json.dumps(results if args.all else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
