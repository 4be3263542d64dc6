"""Per-layer accounting for the traced run, from outside the program.

``Spans`` records one span per op and one per call the benchmark makes
into a layer (name, start, end, parent, op id), in memory, and writes
them out once at the end.  ``layer_profile`` groups the self time that
cProfile saw around the ops by module of ``src/symdyn``; time spent in
builtins and in the standard library is charged to the calling module.
"""

from __future__ import annotations

import json
import pstats
import time
from pathlib import Path

LAYERS = (
    "sft",
    "entropy",
    "dbar",
    "markers",
    "extension",
    "generator",
    "diagram",
    "envelope",
    "truncation",
    "period_tail",
    "scenarios",
    "randgen",
    "specfiles",
    "report",
    "cli",
)
BENCH = "bench"  # the benchmark's own files

# named exact counts: metric -> (module, function name as cProfile labels it)
CALL_COUNTS = {
    "sft.admits_calls": ("sft", "admits"),
    "sft.admits_cyclic_calls": ("sft", "admits_cyclic"),
    "sft.transfer_graph_calls": ("sft", "transfer_graph"),
    "markers.periodic_stretches_calls": ("markers", "periodic_stretches"),
    "diagram.feasible_calls": ("diagram", "feasible"),
    "diagram.fn_binary_calls": ("diagram", "fn_binary"),
    "diagram.node_lookups": ("diagram", "node"),
    "envelope.envelope_limit_calls": ("envelope", "envelope_limit"),
    "truncation.envelope_at_calls": ("truncation", "envelope_at"),
    "extension.hall_match_calls": ("extension", "hall_match"),
    "dbar.dbar_periodic_calls": ("dbar", "dbar_periodic"),
    "specfiles.load_spec_calls": ("specfiles", "load_spec"),
    "report.render_calls": ("report", "render"),
}


class Spans:
    """In-memory spans; ``call`` is a plain call when recording is off."""

    def __init__(self, record: bool):
        self.record = record
        self.rows = []  # (id, name, start, end, parent, op_id)
        self._stack = []
        self._op_id = None

    def op(self, op_id: int, name: str, fn):
        if not self.record:
            return fn()
        self._op_id = op_id
        return self._span(name, fn)

    def call(self, name: str, fn, *args, **kwargs):
        if not self.record:
            return fn(*args, **kwargs)
        return self._span(name, lambda: fn(*args, **kwargs))

    def _span(self, name, thunk):
        span_id = len(self.rows)
        parent = self._stack[-1] if self._stack else None
        self.rows.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return thunk()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.rows[span_id] = (span_id, name, start, end, parent, self._op_id)

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op_id")
        rows = [dict(zip(keys, r)) for r in self.rows if r is not None]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}))


def _module_of(filename: str, src: Path, bench: Path) -> str | None:
    path = Path(filename)
    if path.parent == src and path.stem in LAYERS:
        return path.stem
    if path.parent == bench:
        return BENCH
    return None


def layer_profile(profile, src: Path, bench: Path) -> dict:
    """Self seconds and calls per layer, plus the named call counts.

    A function outside every layer hands its self time to its callers in
    proportion to the time each call edge accounts for, and on up the
    stack until a layer or the benchmark takes it.
    """
    stats = pstats.Stats(profile).stats  # (file, line, name) -> (cc, nc, tt, ct, callers)
    owner = {key: _module_of(key[0], src, bench) for key in stats}
    shares = {}

    def share(key, active):
        """Distribution of responsibility for `key` over layers."""
        if owner[key] is not None:
            return {owner[key]: 1.0}
        if key in shares:
            return shares[key]
        callers = {
            c: edge for c, edge in stats[key][4].items() if c != key and c in stats and c not in active
        }
        total = sum(edge[3] for edge in callers.values())
        out = {}
        for c, edge in callers.items():
            weight = edge[3] / total if total else 1.0 / len(callers)
            for layer, part in share(c, active | {key}).items():
                out[layer] = out.get(layer, 0.0) + weight * part
        shares[key] = out = out or {"unattributed": 1.0}
        return out

    self_s = {layer: 0.0 for layer in LAYERS + (BENCH, "unattributed")}
    calls = {layer: 0 for layer in LAYERS}
    for key, (cc, nc, tt, ct, callers) in stats.items():
        layer = owner[key]
        if layer is not None:
            self_s[layer] += tt
            if layer in calls:
                calls[layer] += nc
            continue
        edges = {c: e for c, e in callers.items() if c in stats}
        edge_tt = sum(e[2] for e in edges.values())
        if not edges or edge_tt == 0:
            for target, part in share(key, frozenset()).items():
                self_s[target] += tt * part
            continue
        for c, e in edges.items():
            for target, part in share(c, frozenset({key})).items():
                self_s[target] += tt * (e[2] / edge_tt) * part

    def matching(layer, name):
        return [key for key in stats if owner[key] == layer and key[2] == name]

    def ncalls(layer, name):
        return sum(stats[key][1] for key in matching(layer, name))

    def edge_calls(callee, caller):
        """Calls of `callee` made directly from `caller`."""
        return sum(
            edge[0]
            for key in matching(*callee)
            for c, edge in stats[key][4].items()
            if (owner.get(c), c[2]) == caller
        )

    counts = {metric: ncalls(*target) for metric, target in CALL_COUNTS.items()}
    # FnOnDiagram.spec and SeqOnDiagram.spec share the label "spec"
    counts["diagram.spec_lookups"] = ncalls("diagram", "spec")
    windows = ncalls("randgen", "random_aperiodic_window")
    rescans = edge_calls(("markers", "periodic_stretches"), ("randgen", "random_aperiodic_window"))
    counts["randgen.rescans_per_window"] = rescans / windows if windows else 0.0
    repairs = ncalls("envelope", "minimal_repair")
    iterations = edge_calls(("envelope", "envelope_limit"), ("envelope", "minimal_repair"))
    counts["envelope.repair_iterations_per_repair"] = iterations / repairs if repairs else 0.0
    return {"self_s": self_s, "calls": calls, "counts": counts}
