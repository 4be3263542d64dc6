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

Each class's points form one box, listed row-major from its first index,
so the space is compiled once per class rather than once per point.  The
scan list of a point is arithmetic on the boxes of the classes that flow
into it, and thresholds and horizons are linear in a point's parameter
values, evaluated over a whole box at once.  Each sequence is evaluated
once per analysis at every (scanned point, scanning horizon) pair; a
point's own term is kept apart from the rest of its scan, which most
points lack.  The repair runs in Jacobi rounds: the first evaluates every
point, each later round only the points whose scan holds a point that the
round before changed, so the iterates, the fixpoint and the failure to
stabilize are those of full passes.  Values are exact integers: numerators
over D, the lcm of the denominators of the finite sequence values, with the
one infinity mixed in as is; only the results are divided by D, and the
comparison with the exact report reads the safe points alone.  The oracle
still evaluates every point of the box and every tail-window point, so it
stays brute force and independent of the threshold algebra.

With the truncation at least twice the largest constant threshold, the
values agree exactly with the threshold algebra on every supported
diagram; the acceptance suite checks this stabilization on the built-in
scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, count, product, repeat
from math import lcm, prod
from operator import add, ne, sub

from .diagram import INF, MeasureDiagram, SeqOnDiagram
from .errors import ArgumentError


@dataclass(frozen=True)
class TruncatedSpace:
    diagram: MeasureDiagram
    truncations: dict  # node_id -> tuple of per-position parameter caps
    points: tuple  # (node_id, tuple of (param, value)) in deterministic order
    horizon_base: int
    boxes: dict  # node_id -> (index of its first point, per-position value ranges)


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
    parameter values.  A class's points are its box, row-major.  Every
    point a scan reads must lie in a box, so a parameter may not start past
    its tail window; a member's outer parameter starts no higher than its
    limit's, as ``MeasureDiagram`` requires.
    """
    if T < 4:
        raise ArgumentError("truncation too small to carry tail windows")
    C = _tau_const_budget(*seqs)
    truncs, boxes, points = {}, {}, []
    for node in diagram.nodes:
        caps = tuple(
            T if pos == 0 else 6 * T + 2 * C + 4 for pos in range(len(node.params))
        )
        ranges = tuple(range(node.mins[p], cap + 1) for p, cap in zip(node.params, caps))
        for p, cap in zip(node.params, caps):
            if node.mins[p] > _tail_window(cap).start:
                raise ArgumentError(
                    f"{node.node_id}: parameter {p} starts past its tail window at T={T}"
                )
        truncs[node.node_id] = caps
        boxes[node.node_id] = (len(points), ranges)
        pairs = [[(p, v) for v in r] for p, r in zip(node.params, ranges)]
        points += zip(repeat(node.node_id), product(*pairs))
    return TruncatedSpace(diagram, truncs, tuple(points), C, boxes)


def _tail_window(cap: int):
    return range(cap // 2 + 1, cap + 1)


def _offset(ranges, values) -> int:
    """The row-major position of the point `values` in the box of `ranges`."""
    off = 0
    for r, v in zip(ranges, values):
        off = off * len(r) + v - r.start
    return off


def _linear(const: int, coeffs, ranges) -> list:
    """const + the sum of coeffs times values, at each point of the box of
    `ranges` in row-major order."""
    out = [const]
    for c, r in zip(coeffs, ranges):
        out = [x + c * v for x in out for v in r]
    return out


def _max(a: list, b: list) -> list:
    """The pointwise max of two lists of values."""
    return [y if y > x else x for x, y in zip(a, b)]


def _scaled(v, D: int):
    """The numerator of a finite value over D; INF stays INF."""
    return v if v is INF else v.numerator * (D // v.denominator)


def _exact(v, D: int):
    """A numerator over D back to its exact value; INF stays INF."""
    return v if v is INF else Fraction(v, D)


def _sups(values: dict, D: int) -> dict:
    return {
        "p_star": _exact(max(values["u1"]), D),
        "sup_h_sex": _exact(max(values["h_sex"]), D),
        "sup_h_emb": _exact(max(values["h_emb"]), D),
    }


class TruncatedOps:
    """Numeric envelope and repair operators on a truncated space.

    The space fixes, for every point, its horizon and its scan list: the
    point itself, the tail-window points of every family into its class
    and the diagonal points of every depth-2 chain into it.  Both are
    compiled here once per class from the boxes.  Each family or chain into
    a class is one run of consecutive indices in the box it comes from,
    which moves one row of that box per step of the class's outer
    parameter.  `wide` maps each point whose scan holds more than itself
    to the rest of its scan.  A sequence is then evaluated at each point
    and its own horizon, and at the rest of each wide point's scan and that
    point's horizon.  A repair round after the first evaluates only the
    points whose scan holds a point the round before changed (`deps` is
    the reverse of `wide`), and `safe_points` finds the points compared
    with the exact report by the same box arithmetic.
    """

    def __init__(self, space: TruncatedSpace):
        self.space = space
        self.diagram = space.diagram
        self.horizons = []
        self.wide = {}
        for node in self.diagram.nodes:
            start, ranges = space.boxes[node.node_id]
            self.horizons += _linear(space.horizon_base + 1, (3,) * len(ranges), ranges)
            runs = list(self._runs(node.node_id, ranges))
            if not runs:
                continue
            for o in range(prod(map(len, ranges))):
                rest = []
                for first, stride, length in runs:
                    rest += range(first + o * stride, first + o * stride + length)
                self.wide[start + o] = rest

    def _runs(self, node_id: str, ranges: tuple):
        """(first, stride, length) for each family and each chain into
        node_id, in scan order: the point at offset o of its box scans the
        `length` indices from first + o * stride."""
        space = self.space
        pos = len(ranges)
        lows = [r.start for r in ranges]
        for fam in self.diagram.families_into(node_id):
            first, box = space.boxes[fam.member]
            window = _tail_window(space.truncations[fam.member][pos])
            yield first + _offset(box, lows + [window.start]), len(box[-1]), len(window)
        for deep_fam in self.diagram.chains_into(node_id):
            first, box = space.boxes[deep_fam.member]
            window = _tail_window(space.truncations[deep_fam.member][pos])
            inner = box[pos + 1]
            yield first + _offset(box, lows + [window.start, inner.start]), 0, len(window) * len(inner)

    @cached_property
    def deps(self) -> dict:
        """Each point in the rest of some scan -> the points whose scan holds it."""
        deps = {}
        for i, rest in self.wide.items():
            for q in rest:
                deps.setdefault(q, []).append(i)
        return deps

    def _per_point(self, value_of) -> list:
        """value_of(node) at every point of the node's box, node by node."""
        out = []
        for node in self.diagram.nodes:
            out += [value_of(node)] * prod(map(len, self.space.boxes[node.node_id][1]))
        return out

    def seq_values(self, seq: SeqOnDiagram, D: int, minuend=None) -> tuple:
        """seq over D at each point and its own horizon, and per wide point,
        at the rest of its scan and that point's horizon.

        With ``minuend`` (one numerator per point) the values are
        minuend[q] - seq(q, k) instead, subtracted entry by entry so that
        an infinite limit fails exactly where a pointwise tail would.
        """
        tau = []
        for node in self.diagram.nodes:
            s = seq.spec(node.node_id)
            ranges = self.space.boxes[node.node_id][1]
            tau += _linear(s.tau.const, map(s.tau.coeff, node.params), ranges)
        lo = self._per_point(lambda n: _scaled(seq.spec(n.node_id).lo, D))
        hi = self._per_point(lambda n: _scaled(seq.spec(n.node_id).hi, D))
        horizons = self.horizons
        own = [a if k < t else b for k, t, a, b in zip(horizons, tau, lo, hi)]
        rows = {}
        for i, rest in self.wide.items():
            k = horizons[i]
            rows[i] = [lo[q] if k < tau[q] else hi[q] for q in rest]
        if minuend is not None:
            own = list(map(sub, minuend, own))
            for i, row in rows.items():
                rows[i] = list(map(sub, map(minuend.__getitem__, self.wide[i]), row))
        return own, rows

    def envelope_at(self, u: list, own: list, rows: dict, i: int):
        """max over the scan of point i of u[q] + the sequence at q."""
        best = u[i] + own[i]
        row = rows.get(i)
        if row is None:
            return best
        return max(best, max(map(add, map(u.__getitem__, self.wide[i]), row)))

    def envelope(self, u: list, own: list, rows: dict) -> list:
        """envelope_at every point, in one pass."""
        out = list(map(add, u, own))
        for i in rows:
            out[i] = self.envelope_at(u, own, rows, i)
        return out

    @staticmethod
    def u_one(own: list, rows: dict) -> list:
        """The envelope of zero plus the sequence: its max over each scan."""
        out = own.copy()
        for i, row in rows.items():
            out[i] = max(out[i], max(row))
        return out

    def minimal_repair(self, own: list, rows: dict, floor: list) -> list:
        """The least fixpoint above floor of u -> max(floor, envelope of u + seq).

        Round 1 evaluates every point.  A point's next value can differ
        from its last only if its scan holds a point that changed, so each
        later round evaluates just those points: the rounds give the Jacobi
        iterates of full passes, and stop or fail where they would.
        """
        u = _max(floor, self.u_one(own, rows))
        nxt = _max(floor, self.envelope(u, own, rows))
        changed = list(compress(count(), map(ne, nxt, u)))
        for _ in range(self.diagram.depth):
            if not changed:
                break
            todo = set(changed)
            for q in changed:
                todo.update(self.deps.get(q, ()))
            u, nxt = nxt, nxt.copy()
            for i in todo:
                nxt[i] = max(floor[i], self.envelope_at(u, own, rows, i))
            changed = [i for i in todo if nxt[i] != u[i]]
        if changed:
            raise ArgumentError("truncated repair iteration did not stabilize")
        return u

    def safe_points(self, bound: int) -> list:
        """The indices of the points whose parameters are all at most bound."""
        out = []
        for node in self.diagram.nodes:
            start, ranges = self.space.boxes[node.node_id]
            safe = [range(r.start, min(r.stop, bound + 1)) for r in ranges]
            out += [start + _offset(ranges, v) for v in product(*safe)]
        return out

    def analyze(self, hseq: SeqOnDiagram, perseq: SeqOnDiagram) -> tuple:
        """Per point, the numerators over D of h, h_sex, u1 and h_emb; and D."""
        specs = [seq.spec(n.node_id) for seq in (hseq, perseq) for n in self.diagram.nodes]
        # one denominator for every finite lo and hi (each limit is a hi)
        D = lcm(*(v.denominator for s in specs for v in (s.lo, s.hi) if v is not INF))
        h = self._per_point(lambda n: _scaled(hseq.spec(n.node_id).limit, D))
        tails = self.seq_values(hseq, D, minuend=h)
        u_sex = self.minimal_repair(*tails, [0] * len(h))
        u1 = self.u_one(*self.seq_values(perseq, D))
        u_emb = self.minimal_repair(*tails, u1)
        values = {
            "h": h,
            "h_sex": list(map(add, h, u_sex)),
            "u1": u1,
            "h_emb": list(map(add, h, u_emb)),
        }
        return values, D


def compare_with_exact(
    diagram: MeasureDiagram,
    hseq: SeqOnDiagram,
    perseq: SeqOnDiagram,
    T: int,
    exact_report,
) -> list:
    """Mismatches between truncated and exact values at safe points.

    Safe points are the concrete nodes and the instances whose parameters
    are at most 4; the scaffolding points near the truncation boundary are
    not compared (their role is to realize the limsups).
    """
    space = build_space(diagram, T, hseq, perseq)
    ops = TruncatedOps(space)
    values, D = ops.analyze(hseq, perseq)
    mismatches = []
    for i in ops.safe_points(4):
        pt = space.points[i]
        env = dict(pt[1])
        for key in ("h_sex", "u1", "h_emb"):
            got = _exact(values[key][i], D)
            exact_val = exact_report.value(key, pt[0], env)
            if got != exact_val:
                mismatches.append((key, pt, got, exact_val))
    for key, got in _sups(values, D).items():
        exact_q = getattr(exact_report, key)
        if got != exact_q:
            mismatches.append((key, None, got, exact_q))
    return mismatches
