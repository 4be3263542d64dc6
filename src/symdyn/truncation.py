"""Brute-force oracle: diagram quantities on finitely truncated point sets.

Instead of the symbolic threshold algebra, every class is instantiated over
a finite parameter box and the envelope/repair operators are evaluated
numerically point by point:

  * limsups along a family become maxima over a tail window of the family
    parameter, with inner parameters truncated far beyond outer ones so
    tail windows always dominate the evaluation horizons in use;
  * diagonal approaches to a depth-2 limit scan the outer tail window with
    the inner parameter free over its whole box;
  * pointwise limits in k are evaluated at a per-point horizon placed past
    every threshold the point itself can reach, but below the tail windows
    of the families above it.

The scan lists and horizons depend only on the space, so they are
compiled once per space; each sequence is then evaluated once per
analysis at every (scanned point, scanning horizon) pair, and every
envelope pass reads those values.  Values are exact integers: numerators
over D, the lcm of the denominators of the finite sequence values, with
the one infinity mixed in as is; only the results are divided by D.  The
oracle still evaluates every point of the box and every tail-window
point, so it stays brute force and independent of the threshold algebra.

With the truncation at least twice the largest constant threshold, the
values agree exactly with the threshold algebra on every supported
diagram; the acceptance suite checks this stabilization on the built-in
scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add

from .diagram import INF, MeasureDiagram, SeqOnDiagram
from .errors import ArgumentError


@dataclass(frozen=True)
class TruncatedSpace:
    diagram: MeasureDiagram
    truncations: dict  # node_id -> tuple of per-position parameter caps
    points: tuple  # (node_id, tuple of (param, value)) in deterministic order
    horizon_base: int


def _tau_const_budget(*seqs) -> int:
    c = 1
    for seq in seqs:
        for _, s in seq.specs:
            c = max(c, abs(s.tau.const) + 1)
    return c


def build_space(diagram: MeasureDiagram, T: int, *seqs) -> TruncatedSpace:
    """Instantiate every class over a parameter box scaled to T.

    Outer parameters run to T, inner parameters to 6T + 2C + 4 so that the
    inner tail windows clear every evaluation horizon reachable from outer
    parameter values.
    """
    if T < 4:
        raise ArgumentError("truncation too small to carry tail windows")
    C = _tau_const_budget(*seqs)
    truncs = {}
    points = []
    for node in diagram.nodes:
        caps = tuple(
            T if pos == 0 else 6 * T + 2 * C + 4 for pos in range(len(node.params))
        )
        truncs[node.node_id] = caps
        if not node.params:
            points.append((node.node_id, ()))
        elif len(node.params) == 1:
            p = node.params[0]
            for v in range(node.mins[p], caps[0] + 1):
                points.append((node.node_id, ((p, v),)))
        else:
            p0, p1 = node.params
            for v0 in range(node.mins[p0], caps[0] + 1):
                for v1 in range(node.mins[p1], caps[1] + 1):
                    points.append((node.node_id, ((p0, v0), (p1, v1))))
    return TruncatedSpace(diagram, truncs, tuple(points), C)


def _tail_window(cap: int):
    return range(cap // 2 + 1, cap + 1)


def _scaled(v, D: int):
    """The numerator of a finite value over D; INF stays INF."""
    return v if v is INF else v.numerator * (D // v.denominator)


def _exact(v, D: int):
    """A numerator over D back to its exact value; INF stays INF."""
    return v if v is INF else Fraction(v, D)


def _exact_by_point(values: list, D: int, points) -> dict:
    exact = {v: _exact(v, D) for v in set(values)}
    return dict(zip(points, map(exact.__getitem__, values)))


class TruncatedOps:
    """Numeric envelope and repair operators on a truncated space.

    The space fixes, for every point, its horizon and its scan list: the
    point itself, the tail-window points of every family into its class
    and the diagonal points of every depth-2 chain into it.  Both are
    built here once, with points as indices into ``space.points``; a
    sequence is then a list, per scanning point, of its values at the
    scanned points and the scanning point's horizon.
    """

    def __init__(self, space: TruncatedSpace):
        self.space = space
        self.diagram = space.diagram
        index = {pt: i for i, pt in enumerate(space.points)}
        self.node_ids = [nid for nid, _ in space.points]
        self.envs = [dict(env) for _, env in space.points]
        self.horizons = [space.horizon_base + 3 * sum(e.values()) + 1 for e in self.envs]
        self.scans = []
        for i, (node_id, env) in enumerate(space.points):
            scan = [i]
            pos = len(env)  # members and grandchildren extend env by one or two params
            for fam in self.diagram.families_into(node_id):
                cap = space.truncations[fam.member][pos]
                scan += [index[fam.member, env + ((fam.parameter, t),)] for t in _tail_window(cap)]
            for deep_fam, mid_fam in self.diagram.chains_into(node_id):
                grand = self.diagram.node(deep_fam.member)
                outer_cap, inner_cap = space.truncations[grand.node_id][pos : pos + 2]
                inner_p = deep_fam.parameter
                scan += [
                    index[grand.node_id, env + ((mid_fam.parameter, t0), (inner_p, t1))]
                    for t0 in _tail_window(outer_cap)
                    for t1 in range(grand.mins[inner_p], inner_cap + 1)
                ]
            self.scans.append(scan)

    def seq_values(self, seq: SeqOnDiagram, D: int, minuend=None) -> list:
        """Per scanning point, seq at (scanned point, scanning horizon) over D.

        With ``minuend`` (one numerator per point) the values are
        minuend[q] - seq(q, k) instead, subtracted entry by entry so that
        an infinite limit fails exactly where a pointwise tail would.
        """
        specs = {n.node_id: seq.spec(n.node_id) for n in self.diagram.nodes}
        lo_of = {nid: _scaled(s.lo, D) for nid, s in specs.items()}
        hi_of = {nid: _scaled(s.hi, D) for nid, s in specs.items()}
        lo = [lo_of[nid] for nid in self.node_ids]
        hi = [hi_of[nid] for nid in self.node_ids]
        tau = [specs[nid].tau.evaluate(e) for nid, e in zip(self.node_ids, self.envs)]
        if minuend is None:
            return [
                [lo[q] if k < tau[q] else hi[q] for q in scan]
                for k, scan in zip(self.horizons, self.scans)
            ]
        return [
            [minuend[q] - (lo[q] if k < tau[q] else hi[q]) for q in scan]
            for k, scan in zip(self.horizons, self.scans)
        ]

    def envelope_at(self, values: list, rows: list, i: int):
        """max over the scan of point i of values[q] + the sequence at q."""
        return max(map(add, map(values.__getitem__, self.scans[i]), rows[i]))

    def minimal_repair(self, rows: list, floor: list) -> list:
        """The least fixpoint above floor of u -> max(floor, envelope of u + seq)."""
        u = list(map(max, floor, map(max, rows)))
        for _ in range(self.diagram.depth + 1):
            nxt = [max(f, self.envelope_at(u, rows, i)) for i, f in enumerate(floor)]
            if nxt == u:
                return u
            u = nxt
        raise ArgumentError("truncated repair iteration did not stabilize")

    def analyze(self, hseq: SeqOnDiagram, perseq: SeqOnDiagram) -> dict:
        specs = [seq.spec(n.node_id) for seq in (hseq, perseq) for n in self.diagram.nodes]
        # one denominator for every finite lo and hi (each limit is a hi)
        D = lcm(*(v.denominator for s in specs for v in (s.lo, s.hi) if v is not INF))
        points = self.space.points
        h_of = {n.node_id: _scaled(hseq.spec(n.node_id).limit, D) for n in self.diagram.nodes}
        h = [h_of[nid] for nid in self.node_ids]
        tails = self.seq_values(hseq, D, minuend=h)
        u_sex = self.minimal_repair(tails, [0] * len(points))
        u1 = list(map(max, self.seq_values(perseq, D)))
        u_emb = self.minimal_repair(tails, u1)
        h_sex = list(map(add, h, u_sex))
        h_emb = list(map(add, h, u_emb))
        return {
            "h": _exact_by_point(h, D, points),
            "h_sex": _exact_by_point(h_sex, D, points),
            "u1": _exact_by_point(u1, D, points),
            "h_emb": _exact_by_point(h_emb, D, points),
            "p_star": _exact(max(u1), D),
            "sup_h_sex": _exact(max(h_sex), D),
            "sup_h_emb": _exact(max(h_emb), D),
        }


def truncated_analyze(
    diagram: MeasureDiagram, hseq: SeqOnDiagram, perseq: SeqOnDiagram, T: int
) -> dict:
    space = build_space(diagram, T, hseq, perseq)
    ops = TruncatedOps(space)
    out = ops.analyze(hseq, perseq)
    out["space"] = space
    return out


def compare_with_exact(
    diagram: MeasureDiagram,
    hseq: SeqOnDiagram,
    perseq: SeqOnDiagram,
    T: int,
    exact_report,
    safe_bound: int = 4,
) -> list:
    """Mismatches between truncated and exact values at safe points.

    Safe points are the concrete nodes and the instances whose parameters
    are at most safe_bound; the scaffolding points near the truncation
    boundary are not compared (their role is to realize the limsups).
    """
    result = truncated_analyze(diagram, hseq, perseq, T)
    mismatches = []
    for pt in result["space"].points:
        if any(v > safe_bound for _, v in pt[1]):
            continue
        env = dict(pt[1])
        for key in ("h_sex", "u1", "h_emb"):
            exact_val = exact_report.value(key, pt[0], env)
            if result[key][pt] != exact_val:
                mismatches.append((key, pt, result[key][pt], exact_val))
    for key in ("p_star", "sup_h_sex", "sup_h_emb"):
        exact_q = getattr(exact_report, key)
        if result[key] != exact_q:
            mismatches.append((key, None, result[key], exact_q))
    return mismatches
