"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every criterion checks exact values at its stated tolerance and
asserts its wall-clock budget.
"""

import itertools
import random
from fractions import Fraction

from conftest import Budget, bracket_contains, necklace_count
from symdyn.dbar import OrbitMixture, dbar_mixture, dbar_periodic
from symdyn.diagram import FnSpec, fn_add, fn_le, fn_on, tails_of
from symdyn.envelope import (
    analyze_diagram,
    is_repair,
    is_superenvelope,
    minimal_repair,
    u_one,
    zero_fn,
)
from symdyn.extension import HallInfeasible, hall_match, prefix_allocate
from symdyn.generator import (
    extract_generator,
    partition_to_extension,
    top_row_code,
    zero_coordinate_code,
)
from symdyn.markers import (
    MarkerSchedule,
    aperiodicize,
    place_krieger,
    subdivide_balance,
    upward_adjust,
    verify_invariants,
)
from symdyn.randgen import (
    random_aperiodic_window,
    random_candidate_envelope,
    random_diagram,
)
from symdyn.scenarios import run_scenario, scenario_data
from symdyn.sft import (
    PeriodicOrbit,
    full_shift,
    golden_mean,
    periodic_orbits,
    top_entropy,
    word,
)
from symdyn.truncation import compare_with_exact
from test_envelope import naive_is_superenvelope
from test_markers import rule_verdict

ONE = Fraction(1)


def test_criterion_01_example1_repair_values():
    with Budget("1 example1 minimal repair", 1.0):
        data = scenario_data("example1")
        D, perseq = data.diagram, data.perseq
        u1 = u_one(perseq, D)
        verdict = is_repair(u1, perseq, D)
        assert not verdict.repairs and verdict.witness_node == "mu0"
        u = minimal_repair(perseq, zero_fn(D), D)
        assert u.evaluate("mu0", {}) == Fraction(2)
        assert u.evaluate("mu_middle", {"m": 4}) == ONE
        report = run_scenario("example1")
        assert report.all_passed


def test_criterion_02_example2_quantities():
    with Budget("2 example2 h0=3/2", 1.0):
        rep = analyze_diagram(*_scenario_args("example2", Fraction(3, 2)))
        h_sex0 = rep.value("h_sex", "mu0")
        u1_0 = rep.value("u1", "mu0")
        h_emb0 = rep.value("h_emb", "mu0")
        assert h_sex0 == Fraction(3, 2)
        assert u1_0 == ONE
        assert h_emb0 == Fraction(5, 2) == h_sex0 + u1_0
        assert rep.p_star == ONE
        assert h_emb0 > max(h_sex0, rep.value("h", "mu0") + u1_0)


def _scenario_args(name, h0=None):
    data = scenario_data(name, h0)
    return data.diagram, data.hseq, data.perseq


def test_criterion_03_example3_both_h0():
    with Budget("3 example3 h0 in {1/2, 3/2}", 1.0):
        for h0 in (Fraction(1, 2), Fraction(3, 2)):
            rep = analyze_diagram(*_scenario_args("example3", h0))
            h_emb0 = rep.value("h_emb", "mu0")
            assert h_emb0 == max(h0, ONE)
            assert h_emb0 < rep.value("h_sex", "mu0") + rep.value("u1", "mu0")


def test_criterion_04_bound_inequalities_500_diagrams():
    with Budget("4 Fact-bound inequalities on 500 diagrams", 30.0):
        rng = random.Random(4040)
        for _ in range(500):
            D, hseq, perseq = random_diagram(rng)
            rep = analyze_diagram(D, hseq, perseq)
            b = rep.bounds
            assert b.lower_pointwise and b.upper_pointwise
            assert b.lower_topological and b.upper_topological


def test_criterion_05_duality_500_instances():
    with Budget("5 duality agreement on 500 instances", 30.0):
        rng = random.Random(5050)
        for _ in range(500):
            D, hseq, perseq = random_diagram(rng)
            theta = tails_of(hseq, D)
            h = hseq.limit_fn(D)
            E = random_candidate_envelope(rng, D, hseq, None)
            direct = naive_is_superenvelope(E, hseq, D).is_superenvelope
            ge = all(
                fn_le(h.spec(n.node_id), E.spec(n.node_id), n.mins) is None
                for n in D.nodes
            )
            if ge:
                diff = fn_on(
                    D,
                    {
                        n.node_id: fn_add(
                            E.spec(n.node_id),
                            FnSpec(
                                tuple(
                                    (a, -v) for a, v in h.spec(n.node_id).pieces
                                )
                            ),
                            n.mins,
                        )
                        for n in D.nodes
                    },
                )
                via_repair = is_repair(diff, theta, D).repairs
            else:
                via_repair = False
            assert direct == via_repair == is_superenvelope(E, hseq, D).is_superenvelope


def test_criterion_06_periodic_counts():
    with Budget("6 periodic counts vs necklace and Lucas oracles", 10.0):
        fs = full_shift("01")
        for n in range(1, 13):
            points = n * len(periodic_orbits(fs, n)[n])
            assert points == necklace_count(2, n)
        gm = golden_mean()
        lucas = {1: 1, 2: 3}
        for n in range(3, 17):
            lucas[n] = lucas[n - 1] + lucas[n - 2]
        counts = {n: n * len(periodic_orbits(gm, n)[n]) for n in range(1, 17)}
        for n in range(1, 17):
            # brute force: admissible cyclic words of length n
            brute = sum(
                1
                for w in itertools.product("01", repeat=n)
                if gm.admits_cyclic(tuple(w))
            )
            assert brute == lucas[n]
            assert sum(counts[d] for d in range(1, n + 1) if n % d == 0) == brute


def test_criterion_07_entropy_brackets():
    with Budget("7 entropy brackets", 5.0):
        import math

        bracket = top_entropy(golden_mean())
        phi = math.log2((1 + math.sqrt(5)) / 2)
        assert bracket.width <= Fraction(1, 100)
        assert bracket_contains(bracket, phi)
        exact = top_entropy(full_shift("01"))
        assert exact.lo == exact.hi == 1


def test_criterion_08_marker_suite_200_windows():
    with Budget("8 marker suite on 200 windows (W=400)", 60.0):
        rng = random.Random(8080)
        # separation keeps every adjustment displacement below n_k/2
        krieger_sched = MarkerSchedule((6, 30, 160))
        sub_sched = MarkerSchedule((20, 198), (4, 9))
        for trial in range(200):
            w = random_aperiodic_window(rng, 400, 4, (4, 6, 20, 30, 160, 198))
            # (A), (B) after Krieger placement plus upward adjustment
            v = w
            for k, n in enumerate(krieger_sched.n, start=1):
                v = place_krieger(v, k, n)
            v = upward_adjust(v)
            bounds = {
                k: (n // 2, 5 * n // 2 + 1)
                for k, n in enumerate(krieger_sched.n, start=1)
            }
            rep = verify_invariants(v, ("A", "B"), gap_bounds=bounds)
            assert rule_verdict(rep, "A").passed, (trial, rule_verdict(rep, "A").witnesses)
            assert rule_verdict(rep, "B").passed
            # subdivision bracket on a two-row system
            from symdyn.markers import window_from_rows

            s = window_from_rows(w.rows[:2])
            for k, n in enumerate(sub_sched.n, start=1):
                s = place_krieger(s, k, n)
            s = upward_adjust(s)
            s = subdivide_balance(s, sub_sched)
            for k in (1, 2):
                lo, hi = sub_sched.subdivided_bounds(k)
                for _, _, p in s.interior_gaps(k):
                    assert lo <= p <= hi, (trial, k, p, lo, hi)
            # the aperiodicization chain satisfies (E)
            out = aperiodicize(w)
            rep = verify_invariants(out, ("E",), max_long_per_row=1)
            assert rule_verdict(rep, "E").passed, (trial, rule_verdict(rep, "E").witnesses)


def test_criterion_09_prefix_allocation_1000_instances():
    with Budget("9 prefix allocation, 1000 enumerated instances", 30.0):
        rng = random.Random(9090)
        for _ in range(1000):
            s = rng.choice([2, 2, 2, 3, 4])
            n = rng.randint(1, {2: 16, 3: 10, 4: 8}[s])
            budget = s**n
            exponents = []
            while budget > 0 and len(exponents) < 50:
                e = rng.randint(0, n)
                if s**e <= budget:
                    exponents.append(e)
                    budget -= s**e
                if rng.random() < 0.25:
                    break
            if not exponents:
                exponents = [0]
            seen = set()
            total = 0
            for prefix, e in prefix_allocate(s, n, exponents):
                assert len(prefix) == n - e
                count = 0
                for tail in itertools.product(range(s), repeat=e):
                    w = prefix + tail
                    assert w not in seen
                    seen.add(w)
                    count += 1
                total += count
                assert count == s**e
            assert total == sum(s**e for e in exponents) <= s**n


def test_criterion_10_hall_matching_oracle_agreement():
    with Budget("10 Hall matching vs exhaustive SDR, 2000+ cases", 60.0):
        rng = random.Random(1010)
        words = [("w", str(i)) for i in range(12)]

        def sdr_exists(mapping):
            strips = sorted(mapping, key=repr)

            def rec(i, used):
                if i == len(strips):
                    return True
                for cand in sorted(mapping[strips[i]], key=repr):
                    if cand not in used:
                        used.add(cand)
                        if rec(i + 1, used):
                            return True
                        used.discard(cand)
                return False

            return rec(0, set())

        cases = 0
        feasible_cases = 0
        for _ in range(2200):
            n_strips = rng.randint(1, 8)
            dense = rng.random() < 0.5
            mapping = {
                f"s{i}": set(
                    rng.sample(words, rng.randint(1, 5 if dense else 2))
                )
                for i in range(n_strips)
            }
            expected = sdr_exists(mapping)
            try:
                match = hall_match(mapping)
                found = True
                assert len(set(match.values())) == n_strips
                for strip, chosen in match.items():
                    assert chosen in mapping[strip]
            except HallInfeasible as exc:
                found = False
                union = set()
                for strip in exc.violator:
                    union |= mapping[strip]
                assert len(union) < len(exc.violator)
            assert found == expected
            cases += 1
            feasible_cases += found
        assert cases >= 2000
        assert 0 < feasible_cases < cases  # both outcomes exercised


def test_criterion_11_dbar_suite():
    with Budget("11 dbar pseudometric and convexity", 30.0):
        pool = []
        for n in range(1, 7):
            pool.extend(periodic_orbits(full_shift("01"), n)[n])
        pool = pool[:30]
        dist = {}
        for i, j in itertools.combinations_with_replacement(range(len(pool)), 2):
            d = dbar_periodic(pool[i], pool[j])
            dist[(i, j)] = dist[(j, i)] = d
            assert (d == 0) == (pool[i] == pool[j])
        for i, j, k in itertools.combinations(range(len(pool)), 3):
            assert dist[(i, k)] <= dist[(i, j)] + dist[(j, k)]
        assert dbar_periodic(
            PeriodicOrbit.of(word("0")), PeriodicOrbit.of(word("01"))
        ) == Fraction(1, 2)
        rng = random.Random(1111)
        for _ in range(200):
            na, nb = rng.randint(1, 4), rng.randint(1, 4)
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


def test_criterion_12_generator_directions():
    with Budget("12 generator direction checks", 10.0):
        fs = full_shift("01")
        gm = golden_mean()
        rep = extract_generator(fs, zero_coordinate_code(fs), depth=8)
        assert all(m == 1 for _, m in rep.multiplicities)
        # two-row delayed-copy toy: multiplicity strictly decreasing past
        # the coding radius until it reaches one
        from test_generator import delayed_copy_system

        toy = delayed_copy_system(3)
        code = top_row_code(toy)
        rep = extract_generator(toy, code, depth=5, center_radius=1)
        mult = dict(rep.multiplicities)
        assert mult[1] == 8 and mult[2] == 4 and mult[3] == 2 and mult[4] == 1
        # round trips at depth 8 on the one-row toys, depth 6 on the toy
        img = partition_to_extension(gm, zero_coordinate_code(gm), depth=8)
        assert img.decode_consistent and img.decode_unique
        img = partition_to_extension(fs, zero_coordinate_code(fs), depth=8)
        assert img.decode_consistent and img.decode_unique
        img = partition_to_extension(toy, top_row_code(toy), depth=6)
        assert img.decode_consistent and img.decode_unique  # past the radius


def test_criterion_13_truncation_oracle_stabilizes():
    with Budget("13 truncation oracle on all scenarios", 30.0):
        cases = [
            ("example1", None),
            ("example2", Fraction(3, 2)),
            ("example3", Fraction(1, 2)),
            ("pickupsticks", None),
        ]
        for name, h0 in cases:
            data = scenario_data(name, h0)
            exact = analyze_diagram(data.diagram, data.hseq, data.perseq)
            for T in (10, 20, 40):
                mismatches = compare_with_exact(
                    data.diagram, data.hseq, data.perseq, T, exact
                )
                assert mismatches == [], (name, T, mismatches[:3])
