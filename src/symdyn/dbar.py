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

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import ArgumentError
from .sft import PeriodicOrbit


def dbar_periodic(a: PeriodicOrbit, b: PeriodicOrbit) -> Fraction:
    """Exact distance between the uniform measures on two periodic orbits.

    On the common period L = lcm(p, q), phase r sets letter x of a against
    letter y of b for exactly one column of L whenever y = x + r (mod g),
    g = gcd(p, q), by the Chinese remainder theorem, and never otherwise.  So
    the agreements at phase r are the sum over residues rho and symbols s of
    A[rho][s] * B[rho + r][s], where A and B count each word's symbols per
    residue class mod g: O(p + q + g^2 |A|) time, not O(L^2).
    """
    ta = any(isinstance(s, tuple) for s in a.representative)
    tb = any(isinstance(s, tuple) for s in b.representative)
    if ta != tb:
        raise ArgumentError("orbit alphabets are incompatible")
    p, q = a.period, b.period
    g = gcd(p, q)
    A, B = _residue_counts(a.representative, g), _residue_counts(b.representative, g)
    agree = max(
        sum(n * B[(rho + r) % g][s] for rho in range(g) for s, n in A[rho].items()) for r in range(g)
    )
    L = p * q // g
    return Fraction(L - agree, L)


def _residue_counts(w: tuple, g: int) -> list:
    """counts[rho][s]: the positions i = rho (mod g) with w[i] = s."""
    counts = [Counter() for _ in range(g)]
    for i, s in enumerate(w):
        counts[i % g][s] += 1
    return counts


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
    """
    orbits_a = [o for o, _ in mu.parts]
    orbits_b = [o for o, _ in nu.parts]
    weights_a = [w for _, w in mu.parts]
    weights_b = [w for _, w in nu.parts]
    denom = lcm(*(w.denominator for w in weights_a + weights_b))
    supply = [int(w * denom) for w in weights_a]
    demand = [int(w * denom) for w in weights_b]
    cost = [[dbar_periodic(a, b) for b in orbits_b] for a in orbits_a]
    total = _min_cost_transport(supply, demand, cost)
    return total / denom
