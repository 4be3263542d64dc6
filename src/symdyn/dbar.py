"""Ornstein distance between periodic orbit measures, and its convexity bound.

For two periodic orbits the distance reduces to a minimum over relative
phases of the per-column disagreement density on the common period; this is
exact.  The phases are not scanned: the agreements at a phase depend on it
only modulo the gcd of the periods, through the symbol counts per residue
class, so the cost does not grow with the common period.  Between rational
mixtures of orbit measures only the optimal-coupling upper bound from the
ergodic-decomposition convexity inequality is computed, and it is reported
as a bound, not as the distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .errors import ArgumentError
from .sft import PeriodicOrbit


def dbar_periodic(a: PeriodicOrbit, b: PeriodicOrbit) -> Fraction:
    """Exact distance between the uniform measures on two periodic orbits.

    On the common period L = lcm(p, q), phase r sets letter x of a against
    letter y of b for exactly one column of L whenever y = x + r (mod g),
    g = gcd(p, q), by the Chinese remainder theorem, and never otherwise.  So
    the agreements at phase r are the sum over symbols s and residues rho of
    A[s][rho] * B[s][rho + r], where A and B count each word's symbols per
    residue class mod g: O(p + q + g^2 |A|) time, not O(L^2).
    """
    return _distance(a, b, _profile)


def _profile(w: tuple, g: int) -> tuple:
    """Whether w's symbols are tuples, and {s: counts} with counts[rho] the
    positions i = rho (mod g) with w[i] = s."""
    counts = {}
    for i, s in enumerate(w):
        if s not in counts:
            counts[s] = [0] * g
        counts[s][i % g] += 1
    return any(isinstance(s, tuple) for s in counts), counts


def _distance(a: PeriodicOrbit, b: PeriodicOrbit, profile) -> Fraction:
    """dbar_periodic from the orbits' profiles modulo g = gcd(p, q): each
    symbol's counts in a are zipped against its counts in b, doubled, from
    the phase on."""
    p, q = a.period, b.period
    g = gcd(p, q)
    (ta, A), (tb, B) = profile(a.representative, g), profile(b.representative, g)
    if ta != tb:
        raise ArgumentError("orbit alphabets are incompatible")
    rows = [(counts, B[s] * 2) for s, counts in A.items() if s in B]
    agree = max(sum(sum(map(mul, counts, doubled[r:])) for counts, doubled in rows) for r in range(g))
    L = p * q // g
    return Fraction(L - agree, L)


@dataclass(frozen=True)
class OrbitMixture:
    """A finite convex combination of periodic orbits with rational weights."""

    parts: tuple  # tuple of (PeriodicOrbit, Fraction) pairs

    def __post_init__(self):
        total = sum((w for _, w in self.parts), Fraction(0))
        if total != 1:
            raise ArgumentError(f"mixture weights sum to {total}, expected 1")
        if any(w < 0 for _, w in self.parts):
            raise ArgumentError("mixture weights must be nonnegative")


def _negative_cycle(n: int, m: int, cost, flow):
    """A negative-cost residual cycle as [(i, j, forward?), ...], or None.

    Residual edges: L_i -> R_j at cost c_ij (always usable), R_j -> L_i at
    -c_ij whenever flow[i][j] > 0.  Bellman-Ford from all nodes at once; a
    pass that updates nothing leaves every later pass quiet too, so it ends
    the search.
    """
    V = n + m  # nodes: 0..n-1 left, n..n+m-1 right
    dist = [0] * V
    pred = [None] * V  # (node, edge) with edge = (i, j, forward?)
    for _ in range(V + 1):
        last_updated = None
        for i in range(n):
            for j in range(m):
                u, v = i, n + j
                if dist[u] + cost[i][j] < dist[v]:
                    dist[v] = dist[u] + cost[i][j]
                    pred[v] = (u, (i, j, True))
                    last_updated = v
                if flow[i][j] > 0 and dist[v] - cost[i][j] < dist[u]:
                    dist[u] = dist[v] - cost[i][j]
                    pred[u] = (v, (i, j, False))
                    last_updated = u
        if last_updated is None:
            return None
    node = last_updated
    for _ in range(V):  # walk back to guarantee landing on the cycle
        node = pred[node][0]
    cycle = []
    cur = node
    while True:
        prev, edge = pred[cur]
        cycle.append(edge)
        cur = prev
        if cur == node:
            break
    return cycle


def _min_cost_transport(supply: list, demand: list, cost: list) -> Fraction:
    """Exact min-cost transportation by cycle canceling.

    supply/demand are nonnegative integers with equal totals; cost entries
    are Fractions.  The costs are scaled once by the lcm of their
    denominators, so the search runs on integers and the total comes back
    over that one scale.  Starts from the northwest-corner feasible flow and
    cancels negative residual cycles until a Bellman-Ford pass finds none;
    instances here are tiny.
    """
    n, m = len(supply), len(demand)
    scale = lcm(*(c.denominator for row in cost for c in row))
    cost = [[c.numerator * (scale // c.denominator) for c in row] for row in cost]
    left, right = list(supply), list(demand)
    flow = [[0] * m for _ in range(n)]
    i = j = 0
    while i < n and j < m:
        t = min(left[i], right[j])
        flow[i][j] += t
        left[i] -= t
        right[j] -= t
        if left[i] == 0:
            i += 1
        if right[j] == 0:
            j += 1
    while True:
        cycle = _negative_cycle(n, m, cost, flow)
        if cycle is None:
            break
        bottleneck = min(flow[i][j] for i, j, fwd in cycle if not fwd)
        for i, j, fwd in cycle:
            flow[i][j] += bottleneck if fwd else -bottleneck
    return Fraction(sum(flow[i][j] * cost[i][j] for i in range(n) for j in range(m)), scale)


def dbar_mixture(mu: OrbitMixture, nu: OrbitMixture) -> Fraction:
    """Optimal-coupling upper bound between two rational orbit mixtures.

    Returns the minimum of sum w_i v_j d(a_i, b_j) over transport plans with
    the mixture weights as marginals.  This bounds the distance from above
    by the convexity inequality; for single orbits it is the exact distance.
    Each orbit's residues are counted once per gcd its period meets, not
    once per pair.
    """
    orbits_a = [o for o, _ in mu.parts]
    orbits_b = [o for o, _ in nu.parts]
    weights_a = [w for _, w in mu.parts]
    weights_b = [w for _, w in nu.parts]
    denom = lcm(*(w.denominator for w in weights_a + weights_b))
    supply = [int(w * denom) for w in weights_a]
    demand = [int(w * denom) for w in weights_b]
    profile = lru_cache(maxsize=None)(_profile)  # each orbit's residues are counted once per gcd
    cost = [[_distance(a, b, profile) for b in orbits_b] for a in orbits_a]
    total = _min_cost_transport(supply, demand, cost)
    return total / denom
