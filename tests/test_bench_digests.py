"""The benchmark's pinned answers, checked by the test suite.

Each workload's `result_digest` hashes the results of its first
`DIGEST_ROUNDS` rounds of ops.  A change that keeps every answer keeps the
eight digests below, the same prefixes CI's benchmark steps pin through
`perfbench/run.py`.  Here the worker's own loop replays those rounds in
process, so the two cannot drift apart.
"""

import signal
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import worker  # noqa: E402  (it checks that symdyn comes from this checkout's src)
from workloads import WORKLOADS  # noqa: E402

DIGESTS = {
    1: {"orbits": "2979944e", "markers": "ea63f777", "diagrams": "2693fefc", "cli": "58885f35"},
    7: {"orbits": "db8dd167", "markers": "3ef10b55", "diagrams": "9dfc1bb8", "cli": "e417ed96"},
}


@pytest.mark.parametrize("seed", sorted(DIGESTS))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_result_digest_is_pinned(tmp_path, monkeypatch, name, seed):
    monkeypatch.chdir(tmp_path)  # the cli workload writes its spec files here
    alarm = signal.getsignal(signal.SIGALRM)  # the worker's per-op limit takes it over
    try:
        spans = tracing.Spans(record=False)
        workload = WORKLOADS[name](seed, spans)
        ops = worker.DIGEST_ROUNDS * sum(count for _, count in workload.PLAN)
        out = worker.loop(workload, SimpleNamespace(mode="replay", ops=ops, seconds=0), spans)
    finally:
        signal.signal(signal.SIGALRM, alarm)
    assert (out["failed"], out["failures"]) == (0, [])
    assert out["digest_ops"] == ops
    assert out["digest"][:8] == DIGESTS[seed][name]
