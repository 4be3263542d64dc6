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

With the truncation at least twice the largest constant threshold, the
values agree exactly with the threshold algebra on every supported
diagram; the acceptance suite checks this stabilization on the built-in
scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import MeasureDiagram, SeqOnDiagram
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


class TruncatedOps:
    """Numeric envelope and repair operators on a truncated space.

    Sequence arguments are callables (point, k) -> value so tails and
    period tails share one code path.
    """

    def __init__(self, space: TruncatedSpace):
        self.space = space
        self.diagram = space.diagram

    def horizon(self, point) -> int:
        env = dict(point[1])
        return self.space.horizon_base + 3 * sum(env.values()) + 1

    def envelope_at(self, values: dict, seq, point, k: int):
        def val(pt):
            base = values[pt]
            return base if seq is None else base + seq(pt, k)

        node_id, env_items = point
        node = self.diagram.node(node_id)
        best = val(point)
        env = dict(env_items)
        for fam in self.diagram.families_into(node_id):
            cap = self.space.truncations[fam.member][len(node.params)]
            member = self.diagram.node(fam.member)
            for t in _tail_window(cap):
                e = dict(env)
                e[fam.parameter] = t
                pt = (fam.member, tuple((p, e[p]) for p in member.params))
                cand = val(pt)
                if cand > best:
                    best = cand
        for deep_fam, _mid in self.diagram.chains_into(node_id):
            grand = self.diagram.node(deep_fam.member)
            outer_cap = self.space.truncations[grand.node_id][len(node.params)]
            inner_cap = self.space.truncations[grand.node_id][len(node.params) + 1]
            outer_p, inner_p = grand.params[-2], grand.params[-1]
            for t0 in _tail_window(outer_cap):
                for t1 in range(grand.mins[inner_p], inner_cap + 1):
                    e = dict(env)
                    e[outer_p] = t0
                    e[inner_p] = t1
                    pt = (grand.node_id, tuple((p, e[p]) for p in grand.params))
                    cand = val(pt)
                    if cand > best:
                        best = cand
        return best

    def envelope_limit(self, values: dict, seq) -> dict:
        return {
            pt: self.envelope_at(values, seq, pt, self.horizon(pt))
            for pt in self.space.points
        }

    def u_one(self, seq) -> dict:
        zero = {pt: 0 for pt in self.space.points}
        return self.envelope_limit(zero, seq)

    def minimal_repair(self, seq, floor: dict) -> dict:
        u = {pt: max(floor[pt], v) for pt, v in self.u_one(seq).items()}
        for _ in range(self.diagram.depth + 1):
            nxt = {
                pt: max(floor[pt], v)
                for pt, v in self.envelope_limit(u, seq).items()
            }
            if nxt == u:
                return u
            u = nxt
        raise ArgumentError("truncated repair iteration did not stabilize")

    def analyze(self, hseq: SeqOnDiagram, perseq: SeqOnDiagram) -> dict:
        def tail(pt, k):
            s = hseq.spec(pt[0])
            return s.limit - s.value_at(dict(pt[1]), k)

        def per(pt, k):
            return perseq.spec(pt[0]).value_at(dict(pt[1]), k)

        h = {pt: hseq.spec(pt[0]).limit for pt in self.space.points}
        zero = {pt: 0 for pt in self.space.points}
        u_sex = self.minimal_repair(tail, zero)
        u1 = self.u_one(per)
        u_emb = self.minimal_repair(tail, u1)
        h_sex = {pt: h[pt] + u_sex[pt] for pt in self.space.points}
        h_emb = {pt: h[pt] + u_emb[pt] for pt in self.space.points}
        return {
            "h": h,
            "h_sex": h_sex,
            "u1": u1,
            "h_emb": h_emb,
            "p_star": max(u1.values()),
            "sup_h_sex": max(h_sex.values()),
            "sup_h_emb": max(h_emb.values()),
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
        env = dict(pt[1])
        if any(v > safe_bound for v in env.values()):
            continue
        for key in ("h_sex", "u1", "h_emb"):
            exact_val = exact_report.value(key, pt[0], env)
            if result[key][pt] != exact_val:
                mismatches.append((key, pt, result[key][pt], exact_val))
    for key in ("p_star", "sup_h_sex", "sup_h_emb"):
        exact_q = getattr(exact_report, key)
        if result[key] != exact_q:
            mismatches.append((key, None, result[key], exact_q))
    return mismatches
