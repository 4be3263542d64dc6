import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from symdyn.entropy import EntropyValue
from symdyn.errors import ArgumentError, ConstructionError
from symdyn.extension import (
    HallInfeasible,
    Rectangle,
    RectangleHierarchy,
    build_families,
    build_strips,
    embed_selector,
    extension_alphabet_report,
    hall_match,
    normalize_oracle,
    oracle_from_dict,
    prefix_allocate,
    verify_oracle,
)
from symdyn.sft import PeriodicOrbit, word


# ---------------------------------------------------------------------------
# prefix allocation


def cylinder_words(prefix, n, s):
    suffix_len = n - len(prefix)
    for tail in itertools.product(range(s), repeat=suffix_len):
        yield prefix + tail


def check_allocation_by_enumeration(alloc):
    s, n = alloc.alphabet_size, alloc.length
    seen = {}
    for prefix, e in alloc.entries:
        assert len(prefix) == n - e
        count = 0
        for w in cylinder_words(prefix, n, s):
            assert w not in seen, "cylinders overlap"
            seen[w] = prefix
            count += 1
        assert count == s**e
    assert len(seen) == sum(s**e for _, e in alloc.entries)


def test_prefix_allocate_example():
    alloc = prefix_allocate(2, 3, (2, 1, 1))
    assert [p for p, _ in alloc.entries] == [(0,), (1, 0), (1, 1)]
    check_allocation_by_enumeration(alloc)


def test_prefix_full_partition_into_singletons():
    alloc = prefix_allocate(2, 2, (0, 0, 0, 0))
    assert [p for p, _ in alloc.entries] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_prefix_whole_space():
    alloc = prefix_allocate(2, 3, (3,))
    assert alloc.entries == (((), 3),)


def test_prefix_kraft_violation_reports_deficit():
    with pytest.raises(ArgumentError, match="deficit"):
        prefix_allocate(2, 2, (2, 1))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_prefix_allocate_random_instances(data):
    s = data.draw(st.sampled_from([2, 2, 2, 3, 4]))
    n = data.draw(st.integers(1, {2: 12, 3: 7, 4: 6}[s]))
    # random Kraft-feasible exponent multiset
    exponents = []
    budget = s**n
    while budget > 0 and len(exponents) < 40:
        e = data.draw(st.integers(0, n))
        if s**e <= budget and data.draw(st.booleans()):
            exponents.append(e)
            budget -= s**e
        elif data.draw(st.integers(0, 3)) == 0:
            break
    if not exponents:
        exponents = [0]
    alloc = prefix_allocate(s, n, exponents)
    check_allocation_by_enumeration(alloc)


# ---------------------------------------------------------------------------
# oracle and families


def two_level_toy():
    rects = (
        Rectangle("B1", 1, word=(0, 1, 0, 0, 1)),
        Rectangle("B2", 1, word=(1, 1, 0, 0, 0)),
        Rectangle("R1", 2, children=("B1", "B2"), bottom=(0,) * 10),
        Rectangle("R2", 2, children=("B1", "B2"), bottom=(1,) * 10),
    )
    return RectangleHierarchy(2, rects)


def normalized_toy_oracle():
    """The two-children toy: level-1 free counts (1, 1), budgets (2, 2)."""
    from symdyn.extension import OracleTable

    raw = oracle_from_dict({1: {"B1": 2, "B2": 2}, 2: {"R1": 2, "R2": 2}})
    table = OracleTable(raw.budgets, normalized=True)
    verify_oracle(table, 2, two_level_toy(), slack=0)
    return table


def test_normalize_examples():
    h = two_level_toy()
    raw = oracle_from_dict({1: {"B1": 2, "B2": 1}, 2: {"R1": 1, "R2": 1}})
    out = normalize_oracle(raw, 2, h)
    assert out.budget(1, "B1") == 4 and out.budget(1, "B2") == 2
    assert out.budget(2, "R1") == 2 and out.budget(2, "R2") == 2
    assert out.normalized
    assert _normalized_value(2, 3) == 8
    assert _normalized_value(2, 1) == 2
    assert _normalized_value(2, 4) == 8


def _normalized_value(s, b):
    from symdyn.extension import _ceil_log

    return s ** (_ceil_log(s, b) + 1)


def test_normalize_rejects_overfull_raw_table():
    h = two_level_toy()
    raw = oracle_from_dict({1: {"B1": 8, "B2": 1}, 2: {"R1": 1, "R2": 1}})
    with pytest.raises(ConstructionError):
        normalize_oracle(raw, 2, h)  # level-1 slack bound is 2^(5-2) = 8


def test_families_single_level_partition():
    rects = (
        Rectangle("B1", 1, word=(0, 0, 0)),
        Rectangle("B2", 1, word=(1, 1, 1)),
    )
    h = RectangleHierarchy(2, rects)
    oracle = oracle_from_dict({1: {"B1": 4, "B2": 2}})
    from symdyn.extension import OracleTable

    table = build_families(h, OracleTable(oracle.budgets, normalized=True), 2)
    f1, f2 = table.family(1, "B1"), table.family(1, "B2")
    words1 = set(f1.words(2))
    words2 = set(f2.words(2))
    assert len(words1) == 4 and len(words2) == 2
    assert not words1 & words2
    # cylinder shapes: "0**" and "10*"
    assert dict(f1.fixed) == {0: 0}
    assert dict(f2.fixed) == {0: 1, 1: 0}


def test_families_two_level_toy():
    h = two_level_toy()
    oracle = normalized_toy_oracle()
    table = build_families(h, oracle, 2)
    fam1 = table.family(2, "R1")
    fam2 = table.family(2, "R2")
    # children free counts (1, 1); each level-2 family fixes one of them
    assert len(fam1.free) == 1 and len(fam2.free) == 1
    w1, w2 = set(fam1.words(2)), set(fam2.words(2))
    assert len(w1) == oracle.budget(2, "R1") == 2
    assert len(w2) == oracle.budget(2, "R2") == 2
    assert not w1 & w2
    # level-2 words are concatenations of level-1 family members
    c1 = set(table.family(1, "B1").words(2))
    c2 = set(table.family(1, "B2").words(2))
    concat = {a + b for a in c1 for b in c2}
    assert len(concat) == 4
    assert w1 <= concat and w2 <= concat and (w1 | w2) == concat


def test_families_full_budget_fixes_nothing_extra():
    rects = (Rectangle("B1", 1, word=(0, 0)),)
    h = RectangleHierarchy(2, rects)
    from symdyn.extension import OracleTable

    oracle = OracleTable(((1, (("B1", 4),)),), normalized=True)
    table = build_families(h, oracle, 2)
    fam = table.family(1, "B1")
    assert fam.fixed == () and fam.free == (0, 1)


def test_terminal_padding_with_zeros():
    rects = (
        Rectangle("B1", 1, word=(0, 0)),
        Rectangle("B2", 1, word=(1, 0, 1, 1)),  # longer than p_min = 2
    )
    h = RectangleHierarchy(2, rects)
    from symdyn.extension import OracleTable

    oracle = OracleTable(((1, (("B1", 2), ("B2", 2))),), normalized=True)
    table = build_families(h, oracle, 2)
    fam = table.family(1, "B2")
    assert dict(fam.fixed)[2] == 0 and dict(fam.fixed)[3] == 0
    assert len(fam.free) == 1


def test_embed_selector_examples():
    h = two_level_toy()
    oracle = normalized_toy_oracle()
    table = build_families(h, oracle, 2)
    w1 = embed_selector(["B1", "R1"], table, h)
    w2 = embed_selector(["B1", "R2"], table, h)
    assert w1 != w2  # distinct top rectangles give distinct words
    fam = table.family(2, "R1")
    fixed = dict(fam.fixed)
    assert all(w1[i] == fixed.get(i, 0) for i in range(len(w1)))
    with pytest.raises(ArgumentError):
        embed_selector(["B1", "B2"], table, h)  # not nested


def test_selector_injective_across_tops():
    h = two_level_toy()
    oracle = normalized_toy_oracle()
    table = build_families(h, oracle, 2)
    words = {
        rid: embed_selector(["B1", rid], table, h) for rid in ("R1", "R2")
    }
    assert words["R1"] != words["R2"]


def test_alphabet_report():
    rep = extension_alphabet_report(3, EntropyValue(1))
    assert rep == {"built_alphabet": 6, "recoding_bound": 3}


# ---------------------------------------------------------------------------
# strips


def test_build_strips_examples():
    fixed_points = [PeriodicOrbit.of(word("0")), PeriodicOrbit.of(word("1"))]
    strips, h = build_strips(fixed_points, 1)
    assert len(strips) == 2 and h == EntropyValue(1)
    two_cycles = [PeriodicOrbit.of(word("01")), PeriodicOrbit.of(word("ab"))]
    strips, h = build_strips(two_cycles, 2)
    assert len(strips) == 4 and h == EntropyValue(1)
    strips, h = build_strips([], 3)
    assert strips == [] and h == EntropyValue(0)


def test_build_strips_rejects_wrong_period():
    with pytest.raises(ArgumentError):
        build_strips([PeriodicOrbit.of(word("0"))], 2)


# ---------------------------------------------------------------------------
# Hall matching


def sdr_exists_bruteforce(words_per_strip):
    """Oracle: exhaustive search for a system of distinct representatives."""
    strips = sorted(words_per_strip, key=repr)

    def rec(i, used):
        if i == len(strips):
            return True
        for w in sorted(words_per_strip[strips[i]], key=repr):
            if w not in used:
                used.add(w)
                if rec(i + 1, used):
                    return True
                used.discard(w)
        return False

    return rec(0, set())


def test_hall_private_words():
    mapping = {f"s{i}": {(str(i),)} for i in range(5)}
    match = hall_match(mapping)
    assert match == {f"s{i}": (str(i),) for i in range(5)}


def test_hall_pigeonhole_witness():
    mapping = {"a": {("x",), ("y",)}, "b": {("x",), ("y",)}, "c": {("x",), ("y",)}}
    with pytest.raises(HallInfeasible) as exc:
        hall_match(mapping)
    assert len(exc.value.violator) == 3
    assert len(exc.value.neighborhood) == 2


def test_hall_random_against_bruteforce():
    rng = random.Random(99)
    words = [("w", str(i)) for i in range(12)]
    for _ in range(300):
        n_strips = rng.randint(1, 8)
        mapping = {
            f"s{i}": set(rng.sample(words, rng.randint(1, 5)))
            for i in range(n_strips)
        }
        expected = sdr_exists_bruteforce(mapping)
        try:
            match = hall_match(mapping)
            assert expected
            assert len(set(match.values())) == len(match) == n_strips
            for s, w in match.items():
                assert w in mapping[s]
        except HallInfeasible as exc:
            assert not expected
            union = set()
            for s in exc.violator:
                union |= mapping[s]
            assert len(union) < len(exc.violator)
            assert set(exc.neighborhood) == union


def naive_hall_match(words_per_strip: dict) -> dict:
    """The recursive augmenting-path matcher hall_match replaced, kept as
    the reference for its assignments, and for its violators through the
    alternating-reachability cut it computes from the final matching."""
    strips = sorted(words_per_strip, key=repr)
    adj = {s: sorted(words_per_strip[s], key=repr) for s in strips}
    match_word = {}

    def augment(s, seen):
        for w in adj[s]:
            if w in seen:
                continue
            seen.add(w)
            if w not in match_word or augment(match_word[w], seen):
                match_word[w] = s
                return True
        return False

    unmatched = None
    for s in strips:
        if not augment(s, set()):
            unmatched = s
            break
    if unmatched is None:
        return {s: w for w, s in match_word.items()}
    reach_strips = {unmatched}
    reach_words = set()
    grew = True
    while grew:
        grew = False
        for s in list(reach_strips):
            for w in adj[s]:
                if w not in reach_words:
                    reach_words.add(w)
                    grew = True
                    if w in match_word and match_word[w] not in reach_strips:
                        reach_strips.add(match_word[w])
    raise HallInfeasible(sorted(reach_strips, key=repr), sorted(reach_words, key=repr))


def _hall_outcome(match, mapping):
    try:
        return "match", match(mapping)
    except HallInfeasible as exc:
        return "violator", exc.violator, exc.neighborhood


def test_hall_match_agrees_with_recursive_reference():
    rng = random.Random(2024)
    words = [("w", str(i)) for i in range(30)]
    outcomes = set()
    for _ in range(400):
        mapping = {
            f"s{i}": set(rng.sample(words, rng.randint(1, 4)))
            for i in range(rng.randint(1, 24))
        }
        got = _hall_outcome(hall_match, mapping)
        assert got == _hall_outcome(naive_hall_match, mapping)
        outcomes.add(got[0])
    assert outcomes == {"match", "violator"}


def test_failed_search_violator_matches_the_reachability_cut():
    rng = random.Random(14)
    infeasible = 0
    for _ in range(5000):
        words = [("w", str(i)) for i in range(rng.randint(2, 12))]
        mapping = {
            f"s{i}": set(rng.sample(words, rng.randint(1, min(3, len(words)))))
            for i in range(rng.randint(1, 16))
        }
        got = _hall_outcome(hall_match, mapping)
        assert got == _hall_outcome(naive_hall_match, mapping)
        infeasible += got[0] == "violator"
    assert infeasible > 2500


def test_hall_match_long_augmenting_paths():
    # repr order sends augmenting paths along the whole 3000-strip path,
    # far past the interpreter's recursion limit
    mapping = {i: {i, i + 1} for i in range(3000)}
    match = hall_match(mapping)
    assert len(set(match.values())) == len(match) == 3000
    assert all(w in mapping[s] for s, w in match.items())


def test_three_level_hierarchy_families():
    rects = (
        Rectangle("B1", 1, word=(0, 0, 0, 0, 0)),
        Rectangle("B2", 1, word=(0, 1, 0, 1, 0)),
        Rectangle("B3", 1, word=(1, 0, 1, 0, 1)),
        Rectangle("B4", 1, word=(1, 1, 1, 1, 1)),
        Rectangle("R1", 2, children=("B1", "B2"), bottom=(0,) * 10),
        Rectangle("R2", 2, children=("B3", "B4"), bottom=(1,) * 10),
        Rectangle("S1", 3, children=("R1", "R2"), bottom=(0,) * 20),
        Rectangle("S2", 3, children=("R1", "R2"), bottom=(1,) * 20),
    )
    h = RectangleHierarchy(2, rects)
    raw = oracle_from_dict(
        {
            1: {"B1": 2, "B2": 2, "B3": 2, "B4": 2},
            2: {"R1": 4, "R2": 4},
            3: {"S1": 8, "S2": 8},
        }
    )
    oracle = normalize_oracle(raw, 2, h)
    assert oracle.budget(1, "B1") == 4
    assert oracle.budget(2, "R1") == 8
    assert oracle.budget(3, "S1") == 16
    table = build_families(h, oracle, 2)
    # exact sizes and disjointness at every level, by enumeration
    for level, ids in ((1, ("B1", "B2", "B3", "B4")), (2, ("R1", "R2")), (3, ("S1", "S2"))):
        seen = set()
        for rid in ids:
            fam = table.family(level, rid)
            words = set(fam.words(2))
            assert len(words) == oracle.budget(level, rid)
            assert not words & seen
            seen |= words
    # level-3 families refine the concatenations of their children families
    c1 = set(table.family(2, "R1").words(2))
    c2 = set(table.family(2, "R2").words(2))
    concat = {a + b for a in c1 for b in c2}
    w3 = set(table.family(3, "S1").words(2)) | set(table.family(3, "S2").words(2))
    assert w3 <= concat
    # the distinguished words at depth 3 are distinct and members
    w_s1 = embed_selector(["B1", "R1", "S1"], table, h)
    w_s2 = embed_selector(["B1", "R1", "S2"], table, h)
    assert w_s1 != w_s2
    assert w_s1 in set(table.family(3, "S1").words(2))
    assert w_s2 in set(table.family(3, "S2").words(2))


def test_keyed_lookups_keep_scan_order_and_messages():
    from symdyn.extension import FamilyTable, OracleTable

    h = two_level_toy()
    assert h.get("R2").bottom == (1,) * 10 and h.width("R1") == 10
    with pytest.raises(ArgumentError, match=r"^unknown rectangle 'X'$"):
        h.get("X")
    # a level listed twice: the first entry for a key wins, later ones still answer
    oracle = OracleTable(((1, (("B1", 2),)), (1, (("B1", 4), ("B2", 8)))))
    assert oracle.budget(1, "B1") == 2 and oracle.budget(1, "B2") == 8
    with pytest.raises(ArgumentError, match=r"^no budget for level 2 rectangle 'B1'$"):
        oracle.budget(2, "B1")
    table = build_families(h, normalized_toy_oracle(), 2)
    assert table.family(2, "R1").rect_id == "R1"
    with pytest.raises(ArgumentError, match=r"^no family for level 1 rectangle 'R1'$"):
        table.family(1, "R1")
    twice = FamilyTable(2, ((1, (table.family(1, "B1"),)), (1, (table.family(1, "B2"),))))
    assert twice.family(1, "B2") is table.family(1, "B2")
