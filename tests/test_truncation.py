import random

import pytest

from conftest import with_drawn_mins, with_mins
from symdyn.diagram import INF, lin, seq_on, seq_step
from symdyn.envelope import analyze_diagram
from symdyn.errors import ArgumentError
from symdyn.randgen import random_diagram
from symdyn.scenarios import SCENARIO_NAMES, scenario_data
from symdyn.truncation import TruncatedOps, _exact, _sups, build_space, compare_with_exact
from fractions import Fraction

H0S = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2))


def _h0_for(name):
    return Fraction(3, 2) if name in ("example2", "example3") else None


def value_at(s, env: dict, k: int):
    """The k-th value of a threshold sequence at env, read off its definition."""
    return s.lo if k < s.tau.evaluate(env) else s.hi


def _tail_window(cap: int):
    return range(cap // 2 + 1, cap + 1)


class NaiveTruncatedOps:
    """The oracle before compilation: every envelope pass rebuilds each
    scan point by point and evaluates the sequences with Fractions."""

    def __init__(self, space):
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
        for deep_fam in self.diagram.chains_into(node_id):
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

    def analyze(self, hseq, perseq) -> dict:
        def tail(pt, k):
            s = hseq.spec(pt[0])
            return s.limit - value_at(s, dict(pt[1]), k)

        def per(pt, k):
            return value_at(perseq.spec(pt[0]), dict(pt[1]), k)

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


def truncated_analyze(diagram, hseq, perseq, T: int) -> dict:
    """Every value of the numeric operators at every point of the space."""
    space = build_space(diagram, T, hseq, perseq)
    values, D = TruncatedOps(space).analyze(hseq, perseq)
    out = {key: _exact_by_point(v, D, space.points) for key, v in values.items()}
    out.update(_sups(values, D))
    out["space"] = space
    return out


def _exact_by_point(values: list, D: int, points) -> dict:
    exact = {v: _exact(v, D) for v in set(values)}
    return dict(zip(points, map(exact.__getitem__, values)))


def naive_truncated_analyze(diagram, hseq, perseq, T: int) -> dict:
    space = build_space(diagram, T, hseq, perseq)
    return NaiveTruncatedOps(space).analyze(hseq, perseq)


def assert_matches_naive(diagram, hseq, perseq, T):
    """Every key at every point of the space, boundary points included."""
    want = naive_truncated_analyze(diagram, hseq, perseq, T)
    got = truncated_analyze(diagram, hseq, perseq, T)
    assert set(got) - {"space"} == set(want)
    for key, value in want.items():
        assert got[key] == value, key
    return got


SCENARIO_CASES = [
    (name, h0)
    for name in SCENARIO_NAMES
    for h0 in (H0S if name in ("example2", "example3") else (None,))
]


@pytest.mark.parametrize("name, h0", SCENARIO_CASES)
@pytest.mark.parametrize("T", [10, 20, 40])
def test_compiled_oracle_matches_naive_on_scenarios(name, h0, T):
    data = scenario_data(name, h0)
    assert_matches_naive(data.diagram, data.hseq, data.perseq, T)


@pytest.mark.parametrize("T", [10, 20])
def test_compiled_oracle_matches_naive_on_random_diagrams(T):
    rng = random.Random(2017)
    for _ in range(60):
        assert_matches_naive(*random_diagram(rng), T)


@pytest.mark.parametrize("T", [10, 20])
def test_compiled_oracle_matches_naive_on_shifted_boxes(T):
    # boxes that start at 0 or 3: a member's outer parameter starts no
    # higher than its limit's, and may start lower
    rng = random.Random(31)
    shapes = set()
    for _ in range(12):
        D, hseq, perseq = random_diagram(rng)
        picked = {}
        for n in sorted(D.nodes, key=lambda n: len(n.params)):
            limit = next((f.limit for f in D.families if f.member == n.node_id), None)
            highest = picked[limit][0] if len(n.params) == 2 else 3
            picked[n.node_id] = tuple(
                rng.choice([m for m in (0, 3) if pos or m <= highest])
                for pos in range(len(n.params))
            )
        shifted = with_mins(D, lambda n: picked[n.node_id])
        got = assert_matches_naive(shifted, hseq, perseq, T)
        for n in shifted.nodes:
            _, ranges = got["space"].boxes[n.node_id]
            assert [r.start for r in ranges] == list(picked[n.node_id])
            shapes.add(picked[n.node_id])
    assert {(0,), (3,), (0, 0), (0, 3), (3, 0), (3, 3)} <= shapes


def test_boxes_that_miss_a_scanned_point_are_refused():
    data = scenario_data("example1")
    args = (data.hseq, data.perseq)
    # the outer tail window at T = 10 is 6..10
    late = with_mins(data.diagram, lambda n: (7,) * len(n.params))
    with pytest.raises(ArgumentError, match="mu_bottom: parameter m starts past its tail window"):
        build_space(late, 10, *args)
    # mu_middle(1) and mu_middle(2) would scan mu_bottom(1, j) and mu_bottom(2, j),
    # which do not exist: the diagram itself is refused
    with pytest.raises(ArgumentError, match="mu_bottom: parameter m starts above its limit mu_middle's"):
        with_mins(data.diagram, lambda n: (3, 1) if len(n.params) == 2 else (1,) * len(n.params))


class _Disagrees:
    """An exact report that agrees with nothing."""

    p_star = sup_h_sex = sup_h_emb = None

    def value(self, key, node_id, env):
        return None


@pytest.mark.parametrize("bound", [2, 4, 7])
def test_compare_reads_exactly_the_safe_points(bound):
    data = scenario_data("example2", Fraction(1, 2))
    for mins in (None, (0, 3), (3, 0)):
        D = data.diagram
        if mins:
            D = with_mins(D, lambda n: mins[: len(n.params)])
        space = build_space(D, 10, data.hseq, data.perseq)
        safe = [pt for pt in space.points if all(v <= bound for _, v in pt[1])]
        assert [space.points[i] for i in TruncatedOps(space).safe_points(bound)] == safe
        # compare_with_exact reads the points whose parameters are at most 4
        mismatches = compare_with_exact(D, data.hseq, data.perseq, 10, _Disagrees())
        want = [
            (key, pt)
            for pt in space.points
            if all(v <= 4 for _, v in pt[1])
            for key in ("h_sex", "u1", "h_emb")
        ]
        assert [(key, pt) for key, pt, _, _ in mismatches[: len(want)]] == want
        assert [m[0] for m in mismatches[len(want) :]] == ["p_star", "sup_h_sex", "sup_h_emb"]


def _crafted(ops, seq):
    """The own terms and scan rows TruncatedOps.minimal_repair reads, for a
    sequence given as seq(point, k) like the naive oracle's."""
    points, horizons = ops.space.points, ops.horizons
    own = [seq(pt, k) for pt, k in zip(points, horizons)]
    rows = {i: [seq(points[q], horizons[i]) for q in rest] for i, rest in ops.wide.items()}
    return own, rows


def _example1_oracles():
    data = scenario_data("example1")
    space = build_space(data.diagram, 10, data.hseq, data.perseq)
    assert data.diagram.depth == 2
    return space, NaiveTruncatedOps(space), TruncatedOps(space)


def test_repairs_fail_to_stabilize_after_the_same_rounds():
    # a self term of -1 lowers every point by 1 a round down to the floor:
    # from -1 a floor of -3 is reached in round 2 and kept in round 3, the
    # last of depth + 1 = 3; a floor of -4 is still moving in round 3.  A
    # self term of +1 never stops.
    space, naive, ops = _example1_oracles()
    for step, bottom, stable in [(-1, -3, True), (-1, -4, False), (1, 0, False)]:
        seq = lambda pt, k: step
        floor = dict.fromkeys(space.points, bottom)
        args = _crafted(ops, seq) + ([bottom] * len(space.points),)
        if stable:
            want = naive.minimal_repair(seq, floor)
            assert set(want.values()) == {bottom}
            assert ops.minimal_repair(*args) == [want[pt] for pt in space.points]
            continue
        with pytest.raises(ArgumentError, match="^truncated repair iteration did not stabilize$"):
            naive.minimal_repair(seq, floor)
        with pytest.raises(ArgumentError, match="^truncated repair iteration did not stabilize$"):
            ops.minimal_repair(*args)


def test_repair_rounds_revisit_points_whose_scan_changed():
    # the floor lifts the bottom to 1; the middle follows in round 1, and
    # the top, which reads the bottom at -5 and the middle at 0, unchanged
    # in round 1, follows in round 2
    space, naive, ops = _example1_oracles()
    top_k = space.horizon_base + 1  # the horizon of the one parameterless point

    def seq(pt, k):
        return -5 if pt[0] == "mu_bottom" and k == top_k else 0

    floor = {pt: int(pt[0] == "mu_bottom") for pt in space.points}
    want = naive.minimal_repair(seq, floor)
    assert set(want.values()) == {1}
    got = ops.minimal_repair(*_crafted(ops, seq), [floor[pt] for pt in space.points])
    assert got == [want[pt] for pt in space.points]


class _Visits(dict):
    """Zero at every point, recording the order in which points are read."""

    def __init__(self, points):
        super().__init__((pt, 0) for pt in points)
        self.read = []

    def __getitem__(self, pt):
        self.read.append(pt)
        return super().__getitem__(pt)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scan_lists_are_the_points_the_naive_oracle_visits(name):
    # every threshold along a window parameter lies past every horizon, so
    # the values alone would not see a window off by one at either end
    data = scenario_data(name, _h0_for(name))
    rng = random.Random(name)
    for D, hseq, perseq in [(data.diagram, data.hseq, data.perseq)] + [
        random_diagram(rng) for _ in range(10)
    ]:
        space = build_space(D, 10, hseq, perseq)
        naive, ops = NaiveTruncatedOps(space), TruncatedOps(space)
        visits = _Visits(space.points)
        for i, pt in enumerate(space.points):
            visits.read = []
            naive.envelope_at(visits, None, pt, 0)
            assert visits.read == [space.points[q] for q in [i, *ops.wide.get(i, ())]], pt
            assert ops.horizons[i] == naive.horizon(pt)


def _two_level(hvals, pervals):
    D = scenario_data("example1").diagram
    return D, seq_on(D, hvals, "nondecreasing"), seq_on(D, pervals, "nonincreasing")


@pytest.mark.parametrize("T", [10, 20])
def test_compiled_oracle_matches_naive_on_mixed_denominators(T):
    # denominators 2, 3, 4 and 7: their lcm is 84, the largest only 7
    hvals = {
        "mu_bottom": seq_step(0, lin(j=1), Fraction(1, 2)),
        "mu_middle": seq_step(Fraction(1, 3), lin(m=1), Fraction(2, 3)),
        "mu0": Fraction(3, 4),
    }
    pervals = {
        "mu_bottom": seq_step(Fraction(5, 7), lin(m=1, j=1), 0),
        "mu_middle": seq_step(Fraction(1, 2), lin(m=1), 0),
        "mu0": 0,
    }
    got = assert_matches_naive(*_two_level(hvals, pervals), T)
    assert got["p_star"] == Fraction(5, 7)


def test_compiled_oracle_matches_naive_on_an_infinite_period_tail():
    pervals = {"mu_bottom": seq_step(INF, lin(j=1), 0), "mu_middle": 0, "mu0": 0}
    got = assert_matches_naive(*_two_level({"mu_bottom": 0, "mu_middle": 0, "mu0": 0}, pervals), 10)
    assert got["p_star"] is INF and got["sup_h_emb"] is INF


@pytest.mark.parametrize(
    "hvals",
    [
        {"mu_bottom": 0, "mu_middle": 0, "mu0": INF},
        {"mu_bottom": 0, "mu_middle": seq_step(0, lin(m=1), INF), "mu0": 0},
    ],
    ids=["constant", "step"],
)
def test_infinite_entropy_fails_like_the_naive_oracle(hvals):
    args = _two_level(hvals, {"mu_bottom": 0, "mu_middle": 0, "mu0": 0}) + (10,)
    for analyze in (naive_truncated_analyze, truncated_analyze):
        with pytest.raises(ArgumentError, match="^cannot subtract infinity$"):
            analyze(*args)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
@pytest.mark.parametrize("T", [10, 20, 40])
def test_truncation_matches_exact_on_scenarios(name, T):
    data = scenario_data(name, _h0_for(name))
    exact = analyze_diagram(data.diagram, data.hseq, data.perseq)
    mismatches = compare_with_exact(data.diagram, data.hseq, data.perseq, T, exact)
    assert mismatches == []


def test_truncation_matches_exact_on_random_diagrams():
    rng = random.Random(77)
    checked = 0
    for _ in range(60):
        D, hseq, perseq = random_diagram(rng)
        exact = analyze_diagram(D, hseq, perseq)
        mismatches = compare_with_exact(D, hseq, perseq, 20, exact)
        assert mismatches == []
        checked += 1
    assert checked == 60


def compare_at(D, hseq, perseq, T, exact, bound):
    """compare_with_exact at the points whose parameters are at most bound."""
    ops = TruncatedOps(build_space(D, T, hseq, perseq))
    values, den = ops.analyze(hseq, perseq)
    mismatches = []
    for i in ops.safe_points(bound):
        node_id, env = ops.space.points[i]
        for key in ("h_sex", "u1", "h_emb"):
            got, want = _exact(values[key][i], den), exact.value(key, node_id, dict(env))
            if got != want:
                mismatches.append((key, ops.space.points[i], got, want))
    for key, got in _sups(values, den).items():
        if got != getattr(exact, key):
            mismatches.append((key, None, got, getattr(exact, key)))
    return mismatches


def test_truncation_matches_exact_on_raised_minimums():
    # one minimum per parameter name, so a member starts where its limit
    # starts; the safe points reach past every minimum
    rng = random.Random(79)
    raised = 0
    for choices in ((1, 2, 3), (1, 3, 5)):
        for _ in range(40):
            D, hseq, perseq = random_diagram(rng)
            D = with_drawn_mins(rng, D, choices)
            exact = analyze_diagram(D, hseq, perseq)
            mismatches = compare_at(D, hseq, perseq, 20, exact, max(choices) + 3)
            assert mismatches == [], mismatches[:3]
            raised += any(m > 1 for n in D.nodes for m in n.mins.values())
    assert raised > 40


def test_truncation_space_shape():
    data = scenario_data("example1")
    space = build_space(data.diagram, 10, data.hseq, data.perseq)
    ids = {nid for nid, _ in space.points}
    assert ids == {n.node_id for n in data.diagram.nodes}
    # inner parameters run far beyond the outer truncation
    deep_caps = space.truncations["mu_bottom"]
    assert deep_caps[0] == 10 and deep_caps[1] > 2 * 10


def test_truncation_rejects_tiny_T():
    data = scenario_data("example1")
    with pytest.raises(ArgumentError):
        truncated_analyze(data.diagram, data.hseq, data.perseq, 2)
