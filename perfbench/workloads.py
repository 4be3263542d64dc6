"""The four closed-loop workloads: seeded inputs, ops and their oracles.

A workload is a fixed round of op classes (``PLAN``), repeated until the
run's time is up.  Op ``i`` draws its inputs from ``Random(f"{seed}:{i}")``
or from pools built in setup from the seed, so the same seed gives the
same ops.  Each op has an untimed ``check`` against an oracle in
``oracles.py`` and an ``expect``ed outcome: ``"ok"``, the name of an
exception it must raise, or a CLI exit code.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import oracles
from symdyn import cli, dbar, envelope, extension, generator, markers, randgen, sft
from symdyn.diagram import INF, FnSpec, fn_add, fn_le, fn_on, tails_of
from symdyn.entropy import EntropyValue
from symdyn.period_tail import period_tail_from_system
from symdyn.scenarios import SCENARIO_NAMES, run_scenario, scenario_data
from symdyn.specfiles import load_spec, window_to_json
from symdyn.truncation import build_space, compare_with_exact


@dataclass
class Op:
    cls: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    expect: Any = "ok"
    stats: Callable[[Any], dict] = field(default=lambda result: {})


def class_ordinal(plan, index: int) -> int:
    """How many ops of op `index`'s class came before it in the run."""
    rounds, slot = divmod(index, sum(n for _, n in plan))
    for _, n in plan:
        if slot < n:
            return rounds * n + slot
        slot -= n
    raise AssertionError("slot beyond the plan")


def _differs(got, expected):
    return None if got == expected else f"{got} != {expected}"


# ---------------------------------------------------------------------------
# orbits: subshift tables, entropy, generators, tails, strips, dbar


def delayed_copy_toy(d: int = 3) -> sft.SftSpec:
    """Two binary rows, row 2 a copy of row 1 delayed by d (4**(d+1)/2 forbidden words)."""
    symbols = tuple(itertools.product("01", "01"))
    forbidden = frozenset(
        w for w in itertools.product(symbols, repeat=d + 1) if w[d][1] != w[0][0]
    )
    row = sft.Alphabet(("0", "1"))
    return sft.SftSpec(sft.Alphabet(symbols), forbidden, (row, row))


def random_sft_words(rng: random.Random, sizes=(2, 2, 3), primitive=False):
    """An alphabet of 2-3 symbols and 1-3 forbidden words of length 2-3,
    redrawn until the benchmark's own block graph has a cycle (or, with
    `primitive`, a positive power, so entropy brackets converge fast)."""
    while True:
        symbols = "012"[: rng.choice(sizes)]
        forbidden = sorted(
            {
                "".join(rng.choice(symbols) for _ in range(rng.choice((2, 3))))
                for _ in range(rng.randint(1, 3))
            }
        )
        graph = oracles.BlockGraph(symbols, forbidden)
        if graph.primitive() if primitive else graph.has_cycle():
            return symbols, forbidden, graph


def necklaces(n: int):
    """Least rotations of binary words of minimal period n."""
    out = set()
    for w in itertools.product("01", repeat=n):
        if all(w != w[d:] + w[:d] for d in range(1, n)):
            out.add(min(oracles.rotations(w)))
    return sorted(out)


class Orbits:
    """Forbidden-word scans on a few specs that every round queries again."""

    PLAN = (
        ("dbar_triple", 2),
        ("dbar_mixture", 2),
        ("strips_hall", 2),
        ("entropy_coarse", 1),
        ("table_golden", 7),
        ("table_full2", 1),
        ("table_full3", 1),
        ("table_random", 1),
        ("rotating", 1),  # entropy_fine, period_tail, generator_zero in turn
        ("generator_toy", 2),
    )
    ROTATING = ("entropy_fine", "period_tail", "generator_zero")

    def __init__(self, seed: int, spans):
        self.seed, self.spans = seed, spans
        self.golden, self.full2, self.full3 = sft.golden_mean(), sft.full_shift("01"), sft.full_shift("012")
        self.toy = delayed_copy_toy(3)
        self.toy_code = generator.top_row_code(self.toy)
        rng = random.Random(f"orbits-setup:{seed}")
        # Tables take any nonempty SFT.  Entropy brackets take binary
        # primitive ones: on others the cost ranges over 100x with the seed
        # (entropy_fine covers the depth cap).  Each round takes the next SFT
        # of a pool, so every run sees the whole pool.
        self.randoms, self.primitives = [], []
        for pool, kind in ((self.randoms, {}), (self.primitives, {"sizes": (2,), "primitive": True})):
            for _ in range(12):
                symbols, forbidden, graph = random_sft_words(rng, **kind)
                spec = sft.SftSpec(sft.Alphabet(tuple(symbols)), frozenset(tuple(f) for f in forbidden))
                pool.append((spec, graph))
        self.orbit_pool = [
            sft.PeriodicOrbit.of(w) for n in range(1, 7) for w in necklaces(n)
        ]
        self.necklaces = {n: necklaces(n) for n in (3, 4, 5, 6)}
        self.expected = {
            "table_golden": oracles.lucas_points(13),
            "table_full2": oracles.necklace_points(2, 11),
            "table_full3": oracles.necklace_points(3, 8),
        }

    def op(self, index: int, cls: str) -> Op:
        self.k = class_ordinal(self.PLAN, index)  # the pools are cycled by it
        if cls == "rotating":
            cls = self.ROTATING[self.k % len(self.ROTATING)]
        rng = random.Random(f"{self.seed}:{index}")
        return getattr(self, "_" + cls)(rng, cls)

    # period tables plus capacities
    def _table(self, cls, spec, N, expected):
        call = self.spans.call

        def run():
            table = call("sft.per_table", sft.per_table, spec, N)
            caps = call("sft.capacities", sft.capacities, table)
            return {"counts": dict(table.counts), "p_sup": caps.p_sup, "p_lim": caps.p_lim_estimate}

        def check(r):
            return oracles.check_table(r["counts"], expected) or oracles.check_capacity(
                r["p_sup"].approx(), r["counts"]
            )

        return Op(cls, run, check, stats=lambda r: {"orbits": sum(c // n for n, c in r["counts"].items())})

    def _table_golden(self, rng, cls):
        return self._table(cls, self.golden, 13, self.expected[cls])

    def _table_full2(self, rng, cls):
        return self._table(cls, self.full2, 11, self.expected[cls])

    def _table_full3(self, rng, cls):
        return self._table(cls, self.full3, 8, self.expected[cls])

    def _table_random(self, rng, cls):
        spec, graph = self.randoms[self.k % len(self.randoms)]
        N = 10 if spec.alphabet.size == 2 else 7
        expected = oracles.primitive_counts(graph.fixed_points(N))
        small = {n: graph.cyclic_brute_force(n) for n in range(1, 6)}
        op = self._table(cls, spec, N, expected)
        base = op.check

        def check(r):
            fixed = {n: sum(r["counts"][d] for d in range(1, n + 1) if n % d == 0) for n in small}
            return base(r) or (None if fixed == small else f"brute-force cyclic counts {small} != {fixed}")

        op.check = check
        return op

    # entropy brackets
    def _entropy(self, cls, spec, graph, tol):
        def run():
            return self.spans.call("sft.top_entropy", sft.top_entropy, spec, tol)

        def check(b):
            # the depth cap may stop the bracket short of tol; it must say so
            return oracles.check_bracket(b.lo, b.hi, b.tolerance_met, tol, graph.spectral_log2())

        return Op(cls, run, check)

    def _entropy_coarse(self, rng, cls):
        spec, graph = self.primitives[self.k % len(self.primitives)]
        return self._entropy(cls, spec, graph, Fraction(1, 100))

    def _entropy_fine(self, rng, cls):
        return self._entropy(cls, self.golden, oracles.BlockGraph("01", ["11"]), Fraction(1, 1000))

    # sliding-block-code generators
    def _generator_toy(self, rng, cls):
        call = self.spans.call
        toy, code = self.toy, self.toy_code

        def run():
            gen = call("generator.extract_generator", generator.extract_generator, toy, code, 3, center_radius=1)
            img = call("generator.partition_to_extension", generator.partition_to_extension, toy, code, 4)
            return {
                "multiplicities": gen.multiplicities,
                "lengths": img.lengths,
                "consistent": img.decode_consistent,
                "unique": img.decode_unique,
            }

        def check(r):
            # the name pins down row 1 one delayed cell per depth step
            if r["multiplicities"] != ((1, 8), (2, 4), (3, 2)):
                return f"multiplicities {r['multiplicities']}"
            if r["lengths"] != tuple((L, 2**L) for L in range(1, 5)):
                return f"image counts {r['lengths']}: row 1 is a free binary row"
            # depth 4 names cover 5 cells; the centre's row 2 lies 3 cells back
            return _differs((r["consistent"], r["unique"]), (True, False))

        return Op(cls, run, check)

    def _generator_zero(self, rng, cls):
        call = self.spans.call
        spec, symbols, forbidden, depth = rng.choice(
            [(self.full2, "01", [], 6), (self.golden, "01", ["11"], 7)]
        )
        code = generator.zero_coordinate_code(spec)
        graph = oracles.BlockGraph(symbols, forbidden)

        def run():
            gen = call("generator.extract_generator", generator.extract_generator, spec, code, depth)
            img = call("generator.partition_to_extension", generator.partition_to_extension, spec, code, 8)
            return {
                "multiplicities": gen.multiplicities,
                "lengths": img.lengths,
                "flags": (img.decode_consistent, img.decode_unique),
            }

        def check(r):
            if any(m != 1 for _, m in r["multiplicities"]):
                return f"zero-coordinate code multiplicities {r['multiplicities']}"
            expected = tuple((L, graph.word_count(L)) for L in range(1, 9))
            return _differs(r["lengths"], expected) or _differs(r["flags"], (True, True))

        return Op(cls, run, check)

    # period tails of the toy
    def _period_tail(self, rng, cls):
        K = rng.choice((1, 2))

        def run():
            return self.spans.call(
                "period_tail.period_tail_from_system", period_tail_from_system, self.toy, (1, 2, 3, 4, 5), K
            )

        def check(sample):
            by_period = {}
            for orbit, _ in sample.values:
                by_period.setdefault(orbit.period, []).append(orbit.representative)
            # row 1 is free and row 2 follows it: as many points as the 2-shift
            points = oracles.necklace_points(2, 5)
            for n, reps in by_period.items():
                if len(reps) * n != points[n]:
                    return f"period {n}: {len(reps)} orbits, oracle {points[n] // n}"
            for k in range(1, K + 1):
                counts = {}
                for n, reps in by_period.items():
                    counts.update(oracles.tail_counts(reps, k))
                for orbit, vals in sample.values:
                    if vals[k - 1] != EntropyValue.log2_of(counts[orbit.representative], orbit.period):
                        return f"tail of {orbit.representative} at depth {k}"
            return None

        return Op(cls, run, check)

    # strips of one period, matched to candidate words
    def _strips_hall(self, rng, cls):
        n = rng.choice((3, 4, 5, 6))
        orbits = [sft.PeriodicOrbit(rep) for rep in self.necklaces[n]]
        points = [r for rep in self.necklaces[n] for r in oracles.rotations(rep)]
        pool = [("w", i) for i in range(len(points) + rng.choice((-2, 0, 2)))]
        candidates = {p: frozenset(rng.sample(pool, rng.randint(1, 3))) for p in points}
        call = self.spans.call

        def run():
            strips, h = call("extension.build_strips", extension.build_strips, orbits, n)
            mapping = {s.columns: candidates[s.columns] for s in strips}
            try:
                match = call("extension.hall_match", extension.hall_match, mapping)
                return {"strips": len(strips), "h": h, "match": match, "violator": None}
            except extension.HallInfeasible as exc:
                return {"strips": len(strips), "h": h, "match": None, "violator": exc.violator}

        def check(r):
            if r["strips"] != len(points) or r["h"] != EntropyValue.log2_of(len(points), n):
                return f"{r['strips']} strips, oracle {len(points)}"
            return oracles.check_matching(candidates, r["match"], r["violator"])

        return Op(cls, run, check, stats=lambda r: {"hall": 1, "hall_feasible": int(r["match"] is not None)})

    # Ornstein distances
    def _dbar_triple(self, rng, cls):
        a, b, c = (rng.choice(self.orbit_pool) for _ in range(3))
        call = self.spans.call

        def run():
            return [call("dbar.dbar_periodic", dbar.dbar_periodic, x, y) for x, y in ((a, b), (b, a), (b, c), (a, c), (a, a))]

        def check(r):
            ab, ba, bc, ac, aa = r
            brute = oracles.dbar_brute(a.representative, b.representative)
            if ab != brute:
                return f"d(a,b) = {ab}, brute force {brute}"
            if aa != 0 or ab != ba or ac > ab + bc:
                return "identity, symmetry or triangle inequality fails"
            return _differs(ac, oracles.dbar_brute(a.representative, c.representative))

        return Op(cls, run, check)

    def _dbar_mixture(self, rng, cls):
        def mixture():
            orbits = rng.sample(self.orbit_pool, 4)
            cuts = sorted(rng.sample(range(1, 12), 3))
            weights = [Fraction(b - a, 12) for a, b in zip([0] + cuts, cuts + [12])]
            return list(zip(orbits, weights))

        mu, nu = mixture(), mixture()

        def run():
            return self.spans.call(
                "dbar.dbar_mixture", dbar.dbar_mixture, dbar.OrbitMixture(tuple(mu)), dbar.OrbitMixture(tuple(nu))
            )

        def check(bound):
            words = lambda m: [(o.representative, w) for o, w in m]  # noqa: E731
            return oracles.check_mixture_bound(bound, words(mu), words(nu))

        return Op(cls, run, check)


# ---------------------------------------------------------------------------
# markers: criterion-8 trials on narrow and wide windows


class Markers:
    """Krieger placement, adjustment, subdivision and aperiodicization."""

    PLAN = (("trial_narrow", 9), ("trial_wide", 1))
    WIDTHS = {"trial_narrow": 400, "trial_wide": 1600}
    SCALES = (4, 6, 20, 30, 160, 198)
    KRIEGER = markers.MarkerSchedule((6, 30, 160))
    SUBDIVIDE = markers.MarkerSchedule((20, 198), (4, 9))

    def __init__(self, seed: int, spans):
        self.seed, self.spans = seed, spans

    def op(self, index: int, cls: str) -> Op:
        width = self.WIDTHS[cls]
        seed = f"{self.seed}:{index}"
        call = self.spans.call
        krieger, sub = self.KRIEGER, self.SUBDIVIDE
        bounds = {k: (n // 2, 5 * n // 2 + 1) for k, n in enumerate(krieger.n, start=1)}

        def run():
            w = call("randgen.random_aperiodic_window", randgen.random_aperiodic_window, random.Random(seed), width, 4, self.SCALES)
            v = w
            for k, n in enumerate(krieger.n, start=1):
                v = call("markers.place_krieger", markers.place_krieger, v, k, n)
            v = call("markers.upward_adjust", markers.upward_adjust, v)
            ab = call("markers.verify_invariants", markers.verify_invariants, v, ("A", "B"), gap_bounds=bounds)
            s = call("markers.window_from_rows", markers.window_from_rows, w.rows[:2])
            for k, n in enumerate(sub.n, start=1):
                s = call("markers.place_krieger", markers.place_krieger, s, k, n)
            s = call("markers.upward_adjust", markers.upward_adjust, s)
            s = call("markers.subdivide_balance", markers.subdivide_balance, s, sub)
            out = call("markers.aperiodicize", markers.aperiodicize, w)
            e = call("markers.verify_invariants", markers.verify_invariants, out, ("E",), max_long_per_row=1)
            return {
                "rows": w.rows,
                "krieger": (v.markers, tuple((f.row, f.lo, f.hi, f.period) for f in v.flags)),
                "verdicts": tuple((x.rule, x.passed) for x in ab.verdicts + e.verdicts),
                "subdivided": s.markers,
                "aperiodic": out.markers,
            }

        def check(r):
            marks, flags = r["krieger"]
            own = (
                ("A", oracles.rule_a(marks, flags, bounds)),
                ("B", oracles.rule_b(marks)),
                ("E", oracles.rule_e(r["aperiodic"])),
            )
            if r["verdicts"] != own or not all(ok for _, ok in own):
                return f"rule verdicts {r['verdicts']}, oracle {own}"
            for k in (1, 2):
                drift = sum(sub.m[: k - 1]) + (k - 1)
                lo, hi = sub.m[k - 1] - drift, sub.m[k - 1] + 1 + drift
                if any(not lo <= p <= hi for _, _, p in oracles.gaps(r["subdivided"][k - 1])):
                    return f"row {k} subdivided gap outside [{lo}, {hi}]"
            return None

        return Op(cls, run, check)


# ---------------------------------------------------------------------------
# diagrams: exact threshold algebra, scenarios and the truncation oracle


def _le(a, b) -> bool:
    return b == INF or (a != INF and a <= b)


def _plus(a, b):
    return INF if INF in (a, b) else a + b


def _actual(entry):
    """A scenario result entry, or the actual side of a checked one."""
    return entry["actual"] if isinstance(entry, dict) and "actual" in entry else entry


# reference values of the built-in scenarios, as stated for each example
def scenario_reference(name: str, h0):
    if name in ("example1", "pickupsticks"):
        return {"p_star": 1, "sup_h_emb": 1}
    if name == "example2":
        return {"p_star": 1, "sup_h_emb": h0 + 1}
    return {"p_star": 1, "sup_h_emb": max(h0, 1)}


class Diagrams:
    """The shape of the diagram survey, plus truncation cross-checks."""

    PLAN = (("analyze", 8), ("duality", 6), ("scenario", 4), ("truncation", 2))
    H0 = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2))
    TRUNCATED = ("example1", "example2", "pickupsticks")
    T = 10
    DRAWS, PER_SHAPE = 350, 10

    def __init__(self, seed: int, spans):
        self.seed, self.spans = seed, spans
        # Analysis cost depends mostly on the diagram's shape, and the median
        # falls among analyze ops: a pool with equal numbers of each shape,
        # cycled in order, keeps the mix the same for every seed.
        rng = random.Random(f"diagrams-setup:{seed}")
        shapes = {}
        for _ in range(self.DRAWS):
            D, hseq, perseq = randgen.random_diagram(rng)
            shapes.setdefault(tuple(sorted(n.node_id for n in D.nodes)), []).append((D, hseq, perseq))
        per_shape = min(self.PER_SHAPE, *(len(v) for v in shapes.values()))
        self.pool = [shapes[sig][i] for i in range(per_shape) for sig in sorted(shapes)]

    def op(self, index: int, cls: str) -> Op:
        self.k = class_ordinal(self.PLAN, index)  # pools and scenarios are cycled by it
        rng = random.Random(f"{self.seed}:{index}")
        return getattr(self, "_" + cls)(rng, cls)

    def _analyze(self, rng, cls):
        call = self.spans.call

        D, hseq, perseq = self.pool[self.k % len(self.pool)]

        def run():
            return D, hseq, call("envelope.analyze_diagram", envelope.analyze_diagram, D, hseq, perseq)

        def check(r):
            D, hseq, rep = r
            b = rep.bounds
            if not (b.lower_pointwise and b.upper_pointwise and b.lower_topological and b.upper_topological):
                return f"bound verdicts {b}"
            if not (_le(max(rep.sup_h_sex, rep.p_star), rep.sup_h_emb) and _le(rep.sup_h_emb, _plus(rep.sup_h_sex, rep.p_star))):
                return "topological bounds fail on the reported values"
            for node in D.nodes:
                for values in itertools.product(range(1, 7), repeat=len(node.params)):
                    env = dict(zip(node.params, values))
                    if any(env[p] < m for p, m in node.mins.items()):
                        continue
                    h, hs, u1, he = (rep.value(x, node.node_id, env) for x in ("h", "h_sex", "u1", "h_emb"))
                    if not (_le(max(hs, _plus(h, u1)), he) and _le(he, _plus(hs, u1))):
                        return f"pointwise bounds fail at {node.node_id} {env}"
            return None

        return Op(cls, run, check)

    def _duality(self, rng, cls):
        call = self.spans.call

        def run():
            D, hseq, perseq = call("randgen.random_diagram", randgen.random_diagram, rng)
            E = call("randgen.random_candidate_envelope", randgen.random_candidate_envelope, rng, D, hseq, None)
            direct = call("envelope.is_superenvelope", envelope.is_superenvelope, E, hseq, D).is_superenvelope
            h = call("diagram.limit_fn", hseq.limit_fn, D)
            below = (call("diagram.fn_le", fn_le, h.spec(n.node_id), E.spec(n.node_id), n.mins) for n in D.nodes)
            if any(witness is not None for witness in below):
                return direct, False  # E below h: neither a superenvelope nor a repair
            diff = {
                n.node_id: call(
                    "diagram.fn_add",
                    fn_add,
                    E.spec(n.node_id),
                    FnSpec(tuple((a, -v) for a, v in h.spec(n.node_id).pieces)),
                    n.mins,
                )
                for n in D.nodes
            }
            theta = call("diagram.tails_of", tails_of, hseq, D)
            return direct, call("envelope.is_repair", envelope.is_repair, fn_on(D, diff), theta, D).repairs

        return Op(cls, run, lambda r: _differs(r[0], r[1]))

    # The built-in scenarios take no seeded input; every run cycles through
    # the same (scenario, h0) pairs, so their mix does not vary by seed.
    def _scenario(self, rng, cls):
        name = SCENARIO_NAMES[self.k % len(SCENARIO_NAMES)]
        h0 = self.H0[self.k // len(SCENARIO_NAMES) % len(self.H0)] if name in ("example2", "example3") else None
        ref = scenario_reference(name, h0)

        def run():
            return self.spans.call("scenarios.run_scenario", run_scenario, name, h0)

        def check(report):
            if not report.all_passed:
                return f"scenario {name} verdicts {report.verdicts}"
            got = {k: _actual(report.result[k]) for k in ref}
            return _differs(got, ref)

        return Op(cls, run, check)

    def _truncation(self, rng, cls):
        name = self.TRUNCATED[self.k % len(self.TRUNCATED)]
        h0 = self.H0[self.k // len(self.TRUNCATED) % len(self.H0)] if name == "example2" else None
        data = scenario_data(name, h0)
        D, hseq, perseq, T = data.diagram, data.hseq, data.perseq, self.T
        call = self.spans.call

        def run():
            exact = call("envelope.analyze_diagram", envelope.analyze_diagram, D, hseq, perseq)
            return call("truncation.compare_with_exact", compare_with_exact, D, hseq, perseq, T, exact)

        def stats(r):
            return {"truncation_ops": 1, "points": len(build_space(D, T, hseq, perseq).points)}

        return Op(cls, run, lambda mismatches: None if mismatches == [] else f"{mismatches[:3]}", stats=stats)


# ---------------------------------------------------------------------------
# cli: in-process `symdyn` commands on small spec files written in setup


def diagram_to_json(D, hseq, perseq) -> dict:
    def lin_json(tau):
        out = {p: c for p, c in tau.coeffs}
        if tau.const:
            out["const"] = tau.const
        return out

    def seq_json(s):
        if s.lo == s.hi:
            return str(s.lo)
        return {"lo": str(s.lo), "hi": str(s.hi), "tau": lin_json(s.tau)}

    return {
        "kind": "diagram",
        "version": 1,
        "nodes": [
            {"id": n.node_id, "params": list(n.params), "kind": n.kind, "param_mins": list(n.param_mins)}
            if n.param_mins
            else {"id": n.node_id, "params": list(n.params), "kind": n.kind}
            for n in D.nodes
        ],
        "families": [{"member": f.member, "parameter": f.parameter, "limit": f.limit} for f in D.families],
        "h": {nid: seq_json(s) for nid, s in hseq.specs},
        "ptail": {nid: seq_json(s) for nid, s in perseq.specs},
    }


def random_hierarchy(rng: random.Random) -> dict:
    """Two levels over the binary alphabet; raw budgets fit the slack-2 bound."""
    p1 = rng.randint(4, 6)
    n1 = rng.randint(2, 4)
    level1 = [f"B{i}" for i in range(1, n1 + 1)]
    words = {b: "".join(rng.choice("01") for _ in range(p1 + rng.choice((0, 0, 1)))) for b in level1}
    room = 2 ** (p1 - 2)
    budgets1 = {}
    for b in level1:
        budgets1[b] = rng.randint(1, max(1, (room - sum(budgets1.values())) // (n1 - len(budgets1))))
    rects = [{"id": b, "level": 1, "word": words[b]} for b in level1]
    budgets2 = {}
    groups = [tuple(rng.sample(level1, 2)) for _ in range(rng.randint(1, 2))]
    for g, children in enumerate(sorted(set(groups))):
        width = sum(len(words[c]) for c in children)
        allowed = budgets1[children[0]] * budgets1[children[1]]
        used = 0
        for j in range(rng.randint(1, 2)):
            rid = f"R{g}{j}"
            b = rng.randint(1, max(1, (allowed - used) // 2))
            if used + b > allowed:
                break
            used += b
            budgets2[rid] = b
            bottom = "".join(rng.choice("01") for _ in range(width))
            rects.append({"id": rid, "level": 2, "children": list(children), "bottom": bottom})
    return {
        "kind": "hierarchy",
        "version": 1,
        "alphabet_size": 2,
        "rectangles": rects,
        "oracle": {"1": budgets1, "2": budgets2},
    }


def random_hall(rng: random.Random) -> dict:
    words = ["".join(p) for p in itertools.product("abc", repeat=2)]
    return {
        "kind": "hall",
        "version": 1,
        "strips": {
            f"s{i}": sorted(rng.sample(words, rng.randint(1, 3)))
            for i in range(rng.randint(3, 8))
        },
    }


class Cli:
    """Many small, fresh inputs through ``symdyn.cli.main``."""

    PLAN = (
        ("per", 2),
        ("capacities", 1),
        ("entropy", 1),
        ("dbar_pair", 1),
        ("dbar_mixture", 1),
        ("extend_build", 1),
        ("extend_selector", 1),
        ("extend_hall", 2),
        ("extend_generator", 1),
        ("diagram_analyze", 2),
        ("scenario", 2),
        ("cap_exit", 1),
        ("bad_input", 1),
        ("markers_pipeline", 2),
    )
    POOL = 8

    def __init__(self, seed: int, spans):
        self.seed, self.spans = seed, spans
        rng = random.Random(f"cli-setup:{seed}")
        specs = Path("specs")  # relative, so reports name the same paths in every run
        specs.mkdir()
        self.files = {}

        def write(kind: str, i: int, payload: dict) -> None:
            path = specs / f"{kind}-{i}.json"
            path.write_text(json.dumps(payload))
            load_spec(str(path))  # every file parses before timing starts
            self.files.setdefault(kind, []).append(str(path))

        self.graphs = []
        for i in range(self.POOL):
            symbols, forbidden, graph = random_sft_words(rng, sizes=(2,), primitive=True)
            write("sft", i, {"kind": "sft", "version": 1, "alphabet": list(symbols), "forbidden": forbidden})
            self.graphs.append(graph)
        write("sft_full", 0, {"kind": "sft", "version": 1, "alphabet": ["0", "1"], "forbidden": []})
        write("blockcode", 0, {"kind": "blockcode", "version": 1, "radius": 0, "table": {"0": "0", "1": "1"}})
        self.hierarchies = []
        for i in range(self.POOL):
            h = random_hierarchy(rng)
            self.hierarchies.append(h)
            write("hierarchy", i, h)
        self.halls = []
        for i in range(2 * self.POOL):
            h = random_hall(rng)
            mapping = {s: {tuple(w) for w in ws} for s, ws in h["strips"].items()}
            self.halls.append(0 if oracles.sdr_exists(mapping) else 2)
            write("hall", i, h)
        for i in range(self.POOL):
            write("diagram", i, diagram_to_json(*randgen.random_diagram(rng)))
        for i in range(self.POOL // 2):
            w = randgen.random_aperiodic_window(rng, 200, 4, (1, 2, 3, 4))
            write("window", i, window_to_json(w))
        bad = specs / "bad-0.json"
        bad.write_text(json.dumps({"kind": "sft", "version": 1, "alphabet": ["0", "1"], "colour": "red"}))
        self.bad = str(bad)
        self.necklaces = [w for n in range(1, 6) for w in necklaces(n)]

    def op(self, index: int, cls: str) -> Op:
        rng = random.Random(f"{self.seed}:{index}")
        return getattr(self, "_" + cls)(rng, cls)

    def _main(self, cls, argv, expect, check):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.spans.call("cli.main", cli.main, argv)
            return code, out.getvalue()

        def full_check(r):
            code, text = r
            if code != expect:
                return f"{' '.join(argv)}: exit {code}, expected {expect}"
            if code in (0, 2):
                try:
                    body = json.loads(text)
                except json.JSONDecodeError as exc:
                    return f"{' '.join(argv)}: output is not JSON ({exc})"
                return check(body)
            return None

        return Op(cls, run, full_check, expect=expect)

    def _pick(self, rng, kind):
        i = rng.randrange(len(self.files[kind]))
        return i, self.files[kind][i]

    def _per(self, rng, cls):
        i, path = self._pick(rng, "sft")
        n = rng.randint(5, 7)
        expected = oracles.primitive_counts(self.graphs[i].fixed_points(n))

        def check(body):
            counts = {int(k): v for k, v in body["result"]["counts"].items()}
            orbits = {int(k): len(v) for k, v in body["result"]["orbits"].items()}
            return oracles.check_table(counts, expected) or _differs(
                orbits, {m: c // m for m, c in expected.items()}
            )

        op = self._main(cls, ["per", "--spec", path, "-n", str(n)], 0, check)
        op.stats = lambda r: {"orbits": sum(len(v) for v in json.loads(r[1])["result"]["orbits"].values())}
        return op

    def _capacities(self, rng, cls):
        i, path = self._pick(rng, "sft")
        expected = oracles.primitive_counts(self.graphs[i].fixed_points(8))

        def check(body):
            return oracles.check_capacity(body["result"]["p_sup"]["approx"] or 0.0, expected)

        return self._main(cls, ["capacities", "--spec", path, "-n", "8"], 0, check)

    def _entropy(self, rng, cls):
        i, path = self._pick(rng, "sft")
        h = self.graphs[i].spectral_log2()

        def check(body):
            b = body["result"]["bracket"]
            lo, hi = Fraction(b["lo"]["exact"]), Fraction(b["hi"]["exact"])
            return oracles.check_bracket(lo, hi, b["tolerance_met"], Fraction(1, 20), h)

        return self._main(cls, ["entropy", "--spec", path, "--tol", "1/20"], 0, check)

    def _dbar_pair(self, rng, cls):
        a, b = rng.choice(self.necklaces), rng.choice(self.necklaces)
        expected = str(oracles.dbar_brute(a, b))
        path = self.files["sft_full"][0]
        check = lambda body: _differs(body["result"]["distance"]["exact"], expected)  # noqa: E731
        return self._main(cls, ["dbar", "--spec", path, "--a", "".join(a), "--b", "".join(b)], 0, check)

    def _dbar_mixture(self, rng, cls):
        def mixture():
            reps = rng.sample(self.necklaces, 2)
            w = Fraction(rng.randint(1, 3), 4)
            return [(reps[0], w), (reps[1], 1 - w)]

        mu, nu = mixture(), mixture()
        text = lambda m: ",".join(f"{''.join(r)}:{w}" for r, w in m)  # noqa: E731

        def check(body):
            return oracles.check_mixture_bound(Fraction(body["result"]["bound"]["exact"]), mu, nu)

        path = self.files["sft_full"][0]
        return self._main(cls, ["dbar", "--spec", path, "--mix-a", text(mu), "--mix-b", text(nu)], 0, check)

    def _extend_build(self, rng, cls):
        i, path = self._pick(rng, "hierarchy")
        h = self.hierarchies[i]

        def check(body):
            fams = body["result"]["families"]
            for level, budgets in h["oracle"].items():
                for rid, raw in budgets.items():
                    size = fams[level][rid]["size"]
                    # normalization rounds up to the next power of two, then doubles
                    if size != 2 ** ((raw - 1).bit_length() + 1):
                        return f"family {rid} has size {size} for budget {raw}"
            return None

        return self._main(cls, ["extend", "build", "--spec", path], 0, check)

    def _extend_selector(self, rng, cls):
        i, path = self._pick(rng, "hierarchy")
        h = self.hierarchies[i]
        top = rng.choice([r for r in h["rectangles"] if r["level"] == 2])
        child = rng.choice(top["children"])
        width = len(top["bottom"])
        check = lambda body: _differs(len(body["result"]["word"]), width)  # noqa: E731
        return self._main(cls, ["extend", "selector", "--spec", path, "--path", f"{child},{top['id']}"], 0, check)

    def _extend_hall(self, rng, cls):
        i, path = self._pick(rng, "hall")
        expect = self.halls[i]

        def check(body):
            return _differs(body["result"]["feasible"], expect == 0)

        op = self._main(cls, ["extend", "hall", "--spec", path], expect, check)
        op.stats = lambda r: {"hall": 1, "hall_feasible": int(r[0] == 0)}
        return op

    def _extend_generator(self, rng, cls):
        depth = rng.randint(3, 4)
        code = self.files["blockcode"][0]
        path = self.files["sft_full"][0]

        def check(body):
            mult = body["result"]["multiplicities"]
            if any(m != 1 for m in mult.values()):
                return f"identity code multiplicities {mult}"
            return _differs(body["result"]["image_language_counts"], {str(L): 2**L for L in range(1, depth + 1)})

        return self._main(cls, ["extend", "generator", "--spec", path, "--code", code, "--depth", str(depth)], 0, check)

    def _diagram_analyze(self, rng, cls):
        _, path = self._pick(rng, "diagram")

        def check(body):
            return None if all(body["verdicts"].values()) else f"bound verdicts {body['verdicts']}"

        return self._main(cls, ["diagram", "analyze", "--spec", path], 0, check)

    def _scenario(self, rng, cls):
        name = SCENARIO_NAMES[rng.randrange(len(SCENARIO_NAMES))]
        argv = ["scenario", name]
        h0 = None
        if name in ("example2", "example3"):
            h0 = rng.choice(Diagrams.H0)
            argv += ["--h0", str(h0)]
        ref = scenario_reference(name, h0)

        def check(body):
            if not all(body["verdicts"].values()):
                return f"scenario verdicts {body['verdicts']}"
            got = {k: Fraction(_actual(body["result"][k])["exact"]) for k in ref}
            return _differs(got, ref)

        return self._main(cls, argv, 0, check)

    def _cap_exit(self, rng, cls):
        _, path = self._pick(rng, "sft")
        return self._main(cls, ["per", "--spec", path, "-n", "7", "--cap", "5"], 4, lambda body: None)

    def _bad_input(self, rng, cls):
        return self._main(cls, ["entropy", "--spec", self.bad], 3, lambda body: None)

    def _markers_pipeline(self, rng, cls):
        _, path = self._pick(rng, "window")

        def check(body):
            marks = body["result"]["window"]["markers"]
            own = {"D": oracles.rule_d(marks), "E": oracles.rule_e(marks)}
            return _differs(body["verdicts"], own)

        return self._main(cls, ["markers", "run", "--pass", "pipeline", "--spec", path, "--rules", "D,E"], 0, check)


WORKLOADS = {"orbits": Orbits, "markers": Markers, "diagrams": Diagrams, "cli": Cli}
