#!/usr/bin/env python3
"""Minimal-length self-test of the benchmark.

    python3 perfbench/selftest.py

Runs one round of every workload untraced and traced, and checks that
every metric named in BENCHMARK.json is printed, that no op failed
(error_rate 0), and that record.json describes the op plans the
workloads actually run.  Exits 0 when all holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("orbits", "markers", "diagrams", "cli")


def run(trace: int) -> tuple[str, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "all", "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run.py --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return proc.stdout, json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads((BENCH_DIR / "record.json").read_text())
    problems = []

    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    from workloads import WORKLOADS as CLASSES

    for name in WORKLOADS:
        plan = [(c["class"], c["per_round"]) for c in record["workloads"][name]["round"]]
        if plan != list(CLASSES[name].PLAN):
            problems.append(f"record.json round of {name} differs from its PLAN")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        text, result = run(trace)
        if result["failed"] or not result["correct"]:
            problems.append(f"--trace {trace}: {result['failed']} of {result['attempted']} ops failed")
        for name in WORKLOADS:
            for metric in bench[section]:
                key = f"{name}.{metric['name']}"
                if key not in result["metrics"]:
                    problems.append(f"--trace {trace}: {key} not printed")
                elif result["metrics"][key]["unit"] != metric["unit"]:
                    problems.append(f"--trace {trace}: {key} has unit {result['metrics'][key]['unit']}")
        if trace == 0:
            rates = [line.split()[1] for line in text.splitlines() if line.strip().startswith("error_rate")]
            if rates != ["0"] * len(WORKLOADS):
                problems.append(f"error_rate lines {rates}, expected 0 for every workload")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
