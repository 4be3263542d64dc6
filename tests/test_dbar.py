import itertools
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from symdyn.dbar import OrbitMixture, _min_cost_transport, dbar_mixture, dbar_periodic
from symdyn.errors import ArgumentError
from symdyn.sft import PeriodicOrbit, full_shift, periodic_orbits, word
from test_sft import naive_minimal_period


def naive_dbar_periodic(a, b):
    """The phase scan dbar_periodic replaced: all L = lcm(p, q) relative
    shifts, each compared column by column, O(L^2)."""
    p, q = a.period, b.period
    L = p * q // gcd(p, q)
    wa = a.representative * (L // p)
    wb = b.representative * (L // q)
    best = None
    for r in range(L):
        mism = sum(1 for i in range(L) if wa[i] != wb[(i + r) % L])
        if best is None or mism < best:
            best = mism
            if best == 0:
                break
    return Fraction(best, L)


def orbit(text):
    return PeriodicOrbit.of(word(text))


def test_identity_is_zero():
    assert dbar_periodic(orbit("0"), orbit("0")) == 0


def test_zero_vs_alternating():
    # oracle: exhaustive over the 2 relative shifts
    assert naive_dbar_periodic(orbit("0"), orbit("01")) == Fraction(1, 2)
    assert dbar_periodic(orbit("0"), orbit("01")) == Fraction(1, 2)


def test_same_orbit_distance_zero():
    a = PeriodicOrbit.of(word("01"))
    b = PeriodicOrbit.of(word("10"))
    assert a == b  # canonical rotations coincide
    assert dbar_periodic(a, b) == 0


def _orbit_pool(max_period=6, limit=30):
    pool = []
    for n in range(1, max_period + 1):
        pool.extend(periodic_orbits(full_shift("01"), n)[n])
    return pool[:limit]


def test_pseudometric_on_pool():
    pool = _orbit_pool()
    dist = {}
    for a, b in itertools.combinations_with_replacement(range(len(pool)), 2):
        d = dbar_periodic(pool[a], pool[b])
        dist[(a, b)] = dist[(b, a)] = d
        assert d == naive_dbar_periodic(pool[a], pool[b])
        assert (d == 0) == (pool[a] == pool[b])
    for a, b, c in itertools.combinations(range(len(pool)), 3):
        assert dist[(a, c)] <= dist[(a, b)] + dist[(b, c)]


def test_mixture_examples():
    zero, one = orbit("0"), orbit("1")
    mix = OrbitMixture(((zero, Fraction(1, 2)), (one, Fraction(1, 2))))
    point = OrbitMixture(((zero, Fraction(1)),))
    assert dbar_mixture(mix, point) == Fraction(1, 2)
    assert dbar_mixture(mix, mix) == 0
    assert dbar_mixture(point, OrbitMixture(((orbit("01"), Fraction(1)),))) == dbar_periodic(
        zero, orbit("01")
    )


def brute_force_transport(supports_a, supports_b, cost):
    """Oracle: enumerate vertex transport plans via recursive splitting."""
    best = [None]

    def rec(i, remaining_b, acc):
        if i == len(supports_a):
            if all(r == 0 for r in remaining_b):
                if best[0] is None or acc < best[0]:
                    best[0] = acc
            return
        supply = supports_a[i]

        def assign(j, left, acc2):
            if j == len(remaining_b):
                if left == 0:
                    rec(i + 1, remaining_b, acc2)
                return
            for amount in range(min(left, remaining_b[j]), -1, -1):
                remaining_b[j] -= amount
                assign(j + 1, left - amount, acc2 + amount * cost[i][j])
                remaining_b[j] += amount

        assign(0, supply, acc)

    rec(0, list(supports_b), Fraction(0))
    return best[0]


def test_mixture_against_exhaustive_transport():
    rng = random.Random(7)
    pool = _orbit_pool()
    for _ in range(25):
        na, nb = rng.randint(1, 3), rng.randint(1, 3)
        orbs_a = rng.sample(pool, na)
        orbs_b = rng.sample(pool, nb)
        wa = [rng.randint(1, 3) for _ in range(na)]
        wb = [rng.randint(1, 3) for _ in range(nb)]
        scale = sum(wa) * sum(wb)
        mu = OrbitMixture(tuple((o, Fraction(w * sum(wb), scale)) for o, w in zip(orbs_a, wa)))
        nu = OrbitMixture(tuple((o, Fraction(w * sum(wa), scale)) for o, w in zip(orbs_b, wb)))
        cost = [[dbar_periodic(a, b) for b in orbs_b] for a in orbs_a]
        oracle = brute_force_transport(
            [w * sum(wb) for w in wa], [w * sum(wa) for w in wb], cost
        ) / scale
        assert dbar_mixture(mu, nu) == oracle


def test_convexity_bound_direction():
    rng = random.Random(21)
    pool = _orbit_pool()
    for _ in range(50):
        na, nb = rng.randint(1, 3), rng.randint(1, 3)
        orbs_a = rng.sample(pool, na)
        orbs_b = rng.sample(pool, nb)
        mu = OrbitMixture(tuple((o, Fraction(1, na)) for o in orbs_a))
        nu = OrbitMixture(tuple((o, Fraction(1, nb)) for o in orbs_b))
        bound = dbar_mixture(mu, nu)
        independent = sum(
            Fraction(1, na * nb) * dbar_periodic(a, b)
            for a in orbs_a
            for b in orbs_b
        )
        assert bound <= independent


def test_weight_validation():
    with pytest.raises(ArgumentError):
        OrbitMixture(((orbit("0"), Fraction(1, 2)),))


def random_orbit(rng, symbols, max_period):
    while True:
        w = tuple(rng.choice(symbols) for _ in range(rng.randint(1, max_period)))
        if naive_minimal_period(w) == len(w):
            return PeriodicOrbit.of(w)


def test_residue_counts_match_the_phase_scan():
    rng = random.Random(18)
    pairs = [(rng.choice(("01", "012")), rng.randint(1, 16)) for _ in range(1500)]
    for symbols, max_period in pairs:
        a, b = random_orbit(rng, symbols, max_period), random_orbit(rng, symbols, 16)
        assert dbar_periodic(a, b) == naive_dbar_periodic(a, b)
    product = [("0", "0"), ("0", "1"), ("1", "1")]  # symbols of a two-row alphabet
    for _ in range(100):
        a, b = random_orbit(rng, product, 9), random_orbit(rng, product, 9)
        assert dbar_periodic(a, b) == naive_dbar_periodic(a, b)


def test_coprime_single_defect_closed_form():
    # 0^(p-1)1 against 0^(q-1)1, gcd 1: every phase lines up exactly one pair
    # of 1s on the common period pq, so p + q - 2 columns disagree
    def defect(p):
        return orbit("0" * (p - 1) + "1")

    assert dbar_periodic(defect(31), defect(29)) == naive_dbar_periodic(defect(31), defect(29)) == Fraction(2, 31)
    start = time.perf_counter()
    assert dbar_periodic(defect(251), defect(241)) == Fraction(490, 60491)
    assert time.perf_counter() - start < 1.0  # the phase scan takes minutes here


def naive_negative_cycle(n, m, cost, flow):
    """The Bellman-Ford on Fractions that ran all V + 1 passes."""
    V = n + m
    dist = [Fraction(0)] * V
    pred = [None] * V
    last_updated = None
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
    for _ in range(V):
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


def naive_min_cost_transport(supply, demand, cost):
    """Cycle canceling on the Fraction costs themselves, from the
    northwest-corner flow."""
    n, m = len(supply), len(demand)
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
        cycle = naive_negative_cycle(n, m, cost, flow)
        if cycle is None:
            break
        bottleneck = min(flow[i][j] for i, j, fwd in cycle if not fwd)
        for i, j, fwd in cycle:
            flow[i][j] += bottleneck if fwd else -bottleneck
    return sum(flow[i][j] * cost[i][j] for i in range(n) for j in range(m) if flow[i][j])


def random_mixture(rng, pool, twice):
    """1-5 orbits over twelfths, some weights zero; with twice, one orbit is
    listed a second time."""
    orbits = rng.sample(pool, rng.randint(1, 4))
    if twice:
        orbits.append(orbits[0])
    cuts = sorted(rng.choice(range(13)) for _ in range(len(orbits) - 1))  # repeated cuts give zero weights
    weights = [Fraction(b - a, 12) for a, b in zip([0] + cuts, cuts + [12])]
    return OrbitMixture(tuple(zip(orbits, weights)))


def test_integer_transport_matches_the_fraction_transport():
    rng = random.Random(18)
    pool = _orbit_pool()
    kinds = set()
    for _ in range(200):
        mu, nu = random_mixture(rng, pool, rng.random() < 0.3), random_mixture(rng, pool, rng.random() < 0.3)
        supply = [int(w * 12) for _, w in mu.parts]
        demand = [int(w * 12) for _, w in nu.parts]
        cost = [[dbar_periodic(a, b) for b, _ in nu.parts] for a, _ in mu.parts]
        expected = naive_min_cost_transport(supply, demand, cost)
        assert _min_cost_transport(supply, demand, cost) == expected
        assert dbar_mixture(mu, nu) == expected / 12
        kinds.add((0 in supply + demand, len({o for o, _ in mu.parts}) < len(mu.parts)))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}
    for _ in range(200):  # costs over unrelated denominators
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        supply = [rng.randint(0, 5) for _ in range(n)]
        demand = [rng.randint(0, 5) for _ in range(m - 1)]
        gap = sum(supply) - sum(demand)  # one more entry evens the totals
        if gap >= 0:
            demand.append(gap)
        else:
            supply.append(-gap)
        cost = [[Fraction(rng.randint(0, 30), rng.randint(1, 30)) for _ in demand] for _ in supply]
        assert _min_cost_transport(supply, demand, cost) == naive_min_cost_transport(supply, demand, cost)
