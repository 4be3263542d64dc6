#!/usr/bin/env python3
"""The symdyn benchmark: four seeded closed-loop workloads, one client each.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ``src/symdyn`` is imported from there.
Each workload runs in fresh interpreters (``worker.py``), one after the
other: a few that only set up, for ``setup_s``, and one that runs whole
rounds of ops for ``--seconds``.  Every op is checked against an
independent oracle between ops, outside the timed region.

Times are wall-clock times scaled to a fixed host speed (see REFERENCE_S);
the unscaled values are printed beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the ops
under cProfile, then the same ops again untraced, and prints the
per-layer metrics and ``trace_overhead``.  ``--workload all`` runs every
workload.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  ``record.json`` lists the op
classes, metrics and the layer-to-metric predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("orbits", "markers", "diagrams", "cli")
LAYERS = json.loads((BENCH_DIR / "record.json").read_text())["layers"]
SETUP_SAMPLES = 7  # fresh interpreters timed to their first op; the median is setup_s
CHILD_LIMIT_S = 170.0
# A shared host's speed drifts by up to ~40% in phases lasting from a
# fraction of a second to minutes, and moves all Python code alike.  The
# workers time a fixed reference kernel before every op; reported times are
# scaled to the speed at which that kernel takes REFERENCE_S.
REFERENCE_S = 0.0005


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str, workdir: Path, ops: int = 0, spans=None) -> dict:
    """Run one worker to completion; its result, with setup_s filled in."""
    stamp = f"{mode}-{time.monotonic_ns()}"
    result = workdir / f"{stamp}.json"
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
        "--ops", str(ops),
        "--workdir", str(workdir / stamp),
        "--result", str(result),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, timeout=CHILD_LIMIT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"{workload} {mode} worker exceeded {CHILD_LIMIT_S:g} s")
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{workload} {mode} worker exited with code {proc.returncode}")
    out = json.loads(result.read_text())
    out["setup_s"] = out["ready"] - started
    return out


def percentile_ms(latencies, q: int) -> float:
    """The q-th percentile (inclusive method) in milliseconds."""
    return 1000 * statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def scaled(child: dict) -> list:
    """Op latencies at the reference speed: each op is scaled by the median
    of the five reference-kernel times taken nearest to it."""
    refs = child["references"]  # one before each op, one after the last
    return [
        t * REFERENCE_S / statistics.median(refs[max(i - 2, 0) : i + 3])
        for i, t in enumerate(child["latencies"])
    ]


def timing(lat: list) -> dict:
    return {
        "ops_per_s": (len(lat) / sum(lat), "ops/s"),
        "op_p50_ms": (percentile_ms(lat, 50), "ms"),
        "op_p95_ms": (percentile_ms(lat, 95), "ms"),
    }


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path):
    children = [spawn(workload, seed, seconds, "setup", workdir) for _ in range(SETUP_SAMPLES - 1)]
    main = spawn(workload, seed, seconds, "run", workdir)
    children.append(main)
    setup = [c["setup_s"] * REFERENCE_S / c["setup_reference"] for c in children]
    metrics = timing(scaled(main))
    metrics.update(
        {
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mib": (main["peak_rss_mib"], "MiB"),
            "error_rate": (main["failed"] / main["attempted"], "fraction"),
        }
    )
    raw = timing(main["latencies"])
    raw["setup_s"] = (statistics.median(c["setup_s"] for c in children), "s")
    main["raw"] = raw
    return main, metrics


def per_layer(workload: str, seed: int, seconds: float, workdir: Path):
    spans = BENCH_DIR / "out" / f"spans-{workload}-seed{seed}.json"
    traced = spawn(workload, seed, seconds, "trace", workdir, spans=spans)
    replay = spawn(workload, seed, seconds, "replay", workdir, ops=traced["attempted"])
    if replay["digest"] != traced["digest"]:
        raise BenchError(f"{workload}: traced and untraced runs gave different results")
    traced["failed"] += replay["failed"]
    traced["failures"] += replay["failures"]
    op_s = sum(traced["latencies"])  # raw, the base of the profile's shares
    prof = traced["layers"]
    metrics = {}
    for layer in LAYERS:
        self_s = prof["self_s"][layer]
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.self_share"] = (self_s / op_s, "fraction")
        metrics[f"{layer}.calls"] = (prof["calls"][layer], "count")
    metrics["bench.self_s"] = (prof["self_s"]["bench"], "s")
    accounted = sum(prof["self_s"][name] for name in LAYERS + ["bench"])
    metrics["trace.accounted_share"] = (accounted / op_s, "fraction")
    counters = traced["counters"]
    units = {"sft.admits_per_orbit": "ratio", "randgen.rescans_per_window": "ratio",
             "envelope.repair_iterations_per_repair": "ratio"}
    for name, value in sorted(prof["counts"].items()):
        metrics[name] = (value, units.get(name, "count"))
    orbits = counters.get("orbits", 0)
    metrics["sft.admits_per_orbit"] = (prof["counts"]["sft.admits_calls"] / orbits if orbits else 0.0, "ratio")
    trunc = counters.get("truncation_ops", 0)
    metrics["truncation.points_per_op"] = (counters.get("points", 0) / trunc if trunc else 0.0, "count")
    hall = counters.get("hall", 0)
    metrics["extension.hall_feasible_ratio"] = (counters.get("hall_feasible", 0) / hall if hall else 0.0, "ratio")
    metrics["trace_overhead"] = (sum(scaled(traced)) / sum(scaled(replay)), "ratio")
    return traced, metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workdir = BENCH_DIR / ".work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        measure = per_layer if trace else end_to_end
        return measure(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(workload: str, seed: int, child: dict, metrics: dict) -> None:
    lat = child["latencies"]
    print(f"workload {workload}  seed {seed}  ops {child['attempted']}  rounds {child['rounds']}"
          f"  failed {child['failed']}  op time {sum(lat):.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for name, (value, unit) in child.get("raw", {}).items():
        print(f"  {name + ' (unscaled)':40s} {value:14.6g} {unit}")
    for index, cls, reason in child["failures"]:
        print(f"  FAILED op {index} ({cls}): {reason}")
    print(f"  result_digest {child['digest']} over the first {child['digest_ops']} ops")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "symdyn" / "__init__.py").is_file():
        print(f"error: no symdyn sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    all_metrics = {}
    try:
        for name in names:
            child, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(name, args.seed, child, metrics)
            attempted += child["attempted"]
            failed += child["failed"]
            prefix = f"{name}." if args.workload == "all" else ""
            all_metrics.update(
                {prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k != "error_rate"}
            )  # error_rate is printed above; attempted and failed carry it
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
