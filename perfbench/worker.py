"""One workload in one fresh interpreter: set up, then run ops in a closed loop.

Started by ``run.py``; not meant to be run by hand.  Modes:

  setup   set up and stop (a set-up time sample)
  run     run whole rounds of ops, untraced, for --seconds
  trace   the same, with cProfile on around each op and spans recorded
  replay  run exactly --ops ops untraced (the base of trace_overhead)

The result goes to --result as JSON.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC))

import symdyn  # noqa: E402

if Path(symdyn.__file__).resolve().parent != SRC / "symdyn":
    sys.exit(f"symdyn imported from {symdyn.__file__}, not from {SRC}")

import oracles  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OP_LIMIT_S = 15.0  # per-op wall limit; an op over it counts as failed
DIGEST_ROUNDS = 4  # result_digest covers the ops of the first rounds
MAX_FAILURES_KEPT = 20


class OpTimeout(BaseException):
    """Raised by the interval timer; not an Exception, so no handler in
    the program can swallow it."""


class Alarm:
    """A per-op wall limit from ``signal.setitimer`` in the one thread."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise OpTimeout()

    def __enter__(self):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False


def reference_kernel() -> int:
    """Fixed pure-Python work that uses no symdyn code: tuple slicing and
    comparison, dict updates, small-int and Fraction arithmetic."""
    w = tuple(range(32))
    seen = {}
    acc, q = 0, Fraction(0)
    for i in range(400):
        s = w[i % 11 : i % 11 + 7]
        seen[s] = seen.get(s, 0) + 1
        acc += s[-1] * 3 % 7
        if s == w[2:9]:
            acc += 1
        if i % 16 == 0:
            q += Fraction(i, 7)
    return acc + len(seen) + q.numerator


def reference_time() -> float:
    """Seconds the reference kernel takes now; the collector is off so the
    size of the program's heap does not change it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def execute(op, index, spans, profile, alarm):
    """Run one op; returns (seconds, outcome, result)."""
    result, outcome = None, "ok"
    try:
        with alarm:
            t0 = time.perf_counter()
            if profile is not None:
                profile.enable()
            try:
                result = spans.op(index, "op." + op.cls, op.run)
            finally:
                if profile is not None:
                    profile.disable()
                t1 = time.perf_counter()
    except OpTimeout:
        return OP_LIMIT_S, "timeout", None
    except Exception as exc:  # the op's outcome, judged against op.expect below
        outcome = type(exc).__name__
    return t1 - t0, outcome, result


def judge(op, outcome, result) -> str | None:
    """None if the op did what it should, else the reason it failed."""
    if outcome == "timeout":
        return f"exceeded the {OP_LIMIT_S:g} s op limit"
    if outcome != "ok":
        return None if outcome == op.expect else f"raised {outcome}"
    if isinstance(op.expect, str) and op.expect != "ok":
        return f"expected {op.expect}, returned normally"
    try:
        return op.check(result)
    except Exception as exc:  # an output the oracle cannot read is wrong
        return f"oracle could not read the output: {type(exc).__name__}: {exc}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace", "replay"), required=True)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="where the trace mode writes its spans")
    args = ap.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    os.chdir(workdir)  # the workload writes its spec files here
    spans = tracing.Spans(record=args.mode == "trace")
    workload = WORKLOADS[args.workload](args.seed, spans)
    ready = time.monotonic()
    out = {"ready": ready, "setup_reference": statistics.median(reference_time() for _ in range(5))}
    if args.mode != "setup":
        out.update(loop(workload, args, spans))
    Path(args.result).write_text(json.dumps(out))
    return 0


def loop(workload, args, spans) -> dict:
    plan = [cls for cls, count in workload.PLAN for _ in range(count)]
    profile = cProfile.Profile() if args.mode == "trace" else None
    alarm = Alarm(OP_LIMIT_S)
    digest = oracles.Digest()
    latencies, references, classes, failures, counters = [], [], [], [], {}
    failed = index = rounds = 0
    start = time.monotonic()
    while True:
        for cls in plan:
            op = workload.op(index, cls)
            references.append(reference_time())
            seconds, outcome, result = execute(op, index, spans, profile, alarm)
            reason = judge(op, outcome, result)
            if reason is None and outcome == "ok":
                for key, value in op.stats(result).items():
                    counters[key] = counters.get(key, 0) + value
            if reason is not None:
                failed += 1
                if len(failures) < MAX_FAILURES_KEPT:
                    failures.append((index, op.cls, reason))
            if rounds < DIGEST_ROUNDS:
                digest.add(result if outcome == "ok" else outcome)
            latencies.append(seconds)
            classes.append(op.cls)
            index += 1
        rounds += 1
        elapsed = time.monotonic() - start
        if args.mode == "replay":
            if index >= args.ops:
                break
        elif elapsed * (rounds + 1) / rounds > args.seconds:
            break  # another round would overrun the run's time
    references.append(reference_time())  # the one after the last op
    out = {
        "latencies": latencies,
        "references": references,
        "classes": classes,
        "attempted": index,
        "failed": failed,
        "failures": failures,
        "rounds": rounds,
        "loop_s": time.monotonic() - start,
        "digest": digest.hexdigest(),
        "digest_ops": digest.count,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "counters": counters,
    }
    if profile is not None:
        out["layers"] = tracing.layer_profile(profile, SRC / "symdyn", BENCH_DIR)
        if args.spans:
            spans.write(Path(args.spans))
        out["spans"] = sum(row is not None for row in spans.rows)
    return out


if __name__ == "__main__":
    sys.exit(main())
