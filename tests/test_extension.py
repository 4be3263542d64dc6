import itertools
import math
import random
import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from symdyn.entropy import EntropyValue
from symdyn.errors import ArgumentError, ConstructionError
from symdyn.extension import (
    HallInfeasible,
    OracleTable,
    Rectangle,
    RectangleHierarchy,
    build_families,
    build_strips,
    embed_selector,
    hall_match,
    normalize_oracle,
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


def check_allocation_by_enumeration(entries, s, n):
    seen = {}
    for prefix, e in entries:
        assert len(prefix) == n - e
        count = 0
        for w in cylinder_words(prefix, n, s):
            assert w not in seen, "cylinders overlap"
            seen[w] = prefix
            count += 1
        assert count == s**e
    assert len(seen) == sum(s**e for _, e in entries)


def test_prefix_allocate_example():
    entries = prefix_allocate(2, 3, (2, 1, 1))
    assert type(entries) is tuple
    assert entries == (((0,), 2), ((1, 0), 1), ((1, 1), 1))
    check_allocation_by_enumeration(entries, 2, 3)


def test_prefix_full_partition_into_singletons():
    entries = prefix_allocate(2, 2, (0, 0, 0, 0))
    assert entries == (((0, 0), 0), ((0, 1), 0), ((1, 0), 0), ((1, 1), 0))


def test_prefix_whole_space():
    assert prefix_allocate(2, 3, (3,)) == (((), 3),)


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
    check_allocation_by_enumeration(prefix_allocate(s, n, exponents), s, n)


# ---------------------------------------------------------------------------
# oracle and families


def family_words(fam, s):
    """Every word of the family: its fixed digits, and each digit string of
    an s-letter alphabet on its free positions."""
    base = [None] * fam.width
    for pos, d in fam.fixed:
        base[pos] = d
    for combo in itertools.product(range(s), repeat=len(fam.free)):
        w = list(base)
        for pos, d in zip(fam.free, combo):
            w[pos] = d
        yield tuple(w)


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
    table = OracleTable({"B1": 2, "B2": 2, "R1": 2, "R2": 2}, normalized=True)
    verify_oracle(table, 2, two_level_toy(), slack=0)
    return table


def test_normalize_examples():
    h = two_level_toy()
    raw = OracleTable({"B1": 2, "B2": 1, "R1": 1, "R2": 1})
    out = normalize_oracle(raw, 2, h)
    assert out.budget("B1") == 4 and out.budget("B2") == 2
    assert out.budget("R1") == 2 and out.budget("R2") == 2
    assert out.normalized
    assert _normalized_value(2, 3) == 8
    assert _normalized_value(2, 1) == 2
    assert _normalized_value(2, 4) == 8


def _normalized_value(s, b):
    from symdyn.extension import _ceil_log

    return s ** (_ceil_log(s, b) + 1)


def test_normalize_rejects_overfull_raw_table():
    h = two_level_toy()
    raw = OracleTable({"B1": 8, "B2": 1, "R1": 1, "R2": 1})
    with pytest.raises(ConstructionError):
        normalize_oracle(raw, 2, h)  # level-1 slack bound is 2^(5-2) = 8


def test_families_single_level_partition():
    rects = (
        Rectangle("B1", 1, word=(0, 0, 0)),
        Rectangle("B2", 1, word=(1, 1, 1)),
    )
    h = RectangleHierarchy(2, rects)
    table = build_families(h, OracleTable({"B1": 4, "B2": 2}, normalized=True), 2)
    f1, f2 = table.family("B1"), table.family("B2")
    words1 = set(family_words(f1, 2))
    words2 = set(family_words(f2, 2))
    assert len(words1) == 4 and len(words2) == 2
    assert not words1 & words2
    # cylinder shapes: "0**" and "10*"
    assert dict(f1.fixed) == {0: 0}
    assert dict(f2.fixed) == {0: 1, 1: 0}


def test_families_two_level_toy():
    h = two_level_toy()
    oracle = normalized_toy_oracle()
    table = build_families(h, oracle, 2)
    fam1 = table.family("R1")
    fam2 = table.family("R2")
    # children free counts (1, 1); each level-2 family fixes one of them
    assert len(fam1.free) == 1 and len(fam2.free) == 1
    w1, w2 = set(family_words(fam1, 2)), set(family_words(fam2, 2))
    assert len(w1) == oracle.budget("R1") == 2
    assert len(w2) == oracle.budget("R2") == 2
    assert not w1 & w2
    # level-2 words are concatenations of level-1 family members
    c1 = set(family_words(table.family("B1"), 2))
    c2 = set(family_words(table.family("B2"), 2))
    concat = {a + b for a in c1 for b in c2}
    assert len(concat) == 4
    assert w1 <= concat and w2 <= concat and (w1 | w2) == concat


def test_families_full_budget_fixes_nothing_extra():
    rects = (Rectangle("B1", 1, word=(0, 0)),)
    h = RectangleHierarchy(2, rects)
    oracle = OracleTable({"B1": 4}, normalized=True)
    table = build_families(h, oracle, 2)
    fam = table.family("B1")
    assert fam.fixed == () and fam.free == (0, 1)


def test_terminal_padding_with_zeros():
    rects = (
        Rectangle("B1", 1, word=(0, 0)),
        Rectangle("B2", 1, word=(1, 0, 1, 1)),  # longer than p_min = 2
    )
    h = RectangleHierarchy(2, rects)
    oracle = OracleTable({"B1": 2, "B2": 2}, normalized=True)
    table = build_families(h, oracle, 2)
    fam = table.family("B2")
    assert dict(fam.fixed)[2] == 0 and dict(fam.fixed)[3] == 0
    assert len(fam.free) == 1


def test_embed_selector_examples():
    h = two_level_toy()
    oracle = normalized_toy_oracle()
    table = build_families(h, oracle, 2)
    w1 = embed_selector(["B1", "R1"], table, h)
    w2 = embed_selector(["B1", "R2"], table, h)
    assert w1 != w2  # distinct top rectangles give distinct words
    fam = table.family("R1")
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
    raw = OracleTable({"B1": 2, "B2": 2, "B3": 2, "B4": 2, "R1": 4, "R2": 4, "S1": 8, "S2": 8})
    oracle = normalize_oracle(raw, 2, h)
    assert oracle.budget("B1") == 4
    assert oracle.budget("R1") == 8
    assert oracle.budget("S1") == 16
    table = build_families(h, oracle, 2)
    # exact sizes and disjointness at every level, by enumeration
    for level, ids in ((1, ("B1", "B2", "B3", "B4")), (2, ("R1", "R2")), (3, ("S1", "S2"))):
        seen = set()
        for rid in ids:
            fam = table.family(rid)
            words = set(family_words(fam, 2))
            assert len(words) == oracle.budget(rid)
            assert not words & seen
            seen |= words
    # level-3 families refine the concatenations of their children families
    c1 = set(family_words(table.family("R1"), 2))
    c2 = set(family_words(table.family("R2"), 2))
    concat = {a + b for a in c1 for b in c2}
    w3 = set(family_words(table.family("S1"), 2)) | set(family_words(table.family("S2"), 2))
    assert w3 <= concat
    # the distinguished words at depth 3 are distinct and members
    w_s1 = embed_selector(["B1", "R1", "S1"], table, h)
    w_s2 = embed_selector(["B1", "R1", "S2"], table, h)
    assert w_s1 != w_s2
    assert w_s1 in set(family_words(table.family("S1"), 2))
    assert w_s2 in set(family_words(table.family("S2"), 2))


def test_keyed_lookups_keep_scan_order_and_messages():
    h = two_level_toy()
    assert h.get("R2").bottom == (1,) * 10 and h.width("R1") == 10
    with pytest.raises(ArgumentError, match=r"^unknown rectangle 'X'$"):
        h.get("X")
    oracle = OracleTable({"B1": 2, "B2": 8})
    assert oracle.budget("B1") == 2 and oracle.budget("B2") == 8
    with pytest.raises(ArgumentError, match=r"^no budget for rectangle 'R1'$"):
        oracle.budget("R1")
    table = build_families(h, normalized_toy_oracle(), 2)
    assert table.family("R1").rect_id == "R1"
    assert list(table.families) == ["B1", "B2", "R1", "R2"]  # level by level, as built
    with pytest.raises(ArgumentError, match=r"^no family for rectangle 'X'$"):
        table.family("X")


def test_hierarchy_indexes_levels_and_sibling_groups():
    rects = (
        Rectangle("R2", 2, children=("B1", "B2"), bottom=(0,) * 5),
        Rectangle("B2", 1, word=(1, 1, 0)),
        Rectangle("R1", 2, children=("B2", "B1"), bottom=(1,) * 5),
        Rectangle("B1", 1, word=(0, 1)),
        Rectangle("R0", 2, children=("B1", "B2"), bottom=(1,) * 5),
    )
    h = RectangleHierarchy(2, rects)
    by_id = {r.rect_id: r for r in rects}
    assert h.depth == 2 and h.base_width == 2
    assert h.level_rects(1) == (by_id["B2"], by_id["B1"])  # input order
    assert h.level_rects(2) == (by_id["R2"], by_id["R1"], by_id["R0"])
    assert h.level_rects(3) == () and h.sibling_groups(3) == {}
    groups = h.sibling_groups(2)
    assert list(groups) == [("B1", "B2"), ("B2", "B1")]  # first listed first
    assert groups[("B1", "B2")] == [by_id["R0"], by_id["R2"]]  # id order
    assert groups[("B2", "B1")] == [by_id["R1"]]


@pytest.mark.parametrize(
    "rects, message",
    [
        ((), "a hierarchy needs at least one rectangle"),
        (
            (Rectangle("B1", 1, word=(0, 1), children=("B2", "B2")), Rectangle("B2", 1, word=(1, 1))),
            "B1: a level-1 rectangle takes no children or bottom",
        ),
        ((Rectangle("B1", 1, word=(0, 1), bottom=(0, 1)),), "B1: a level-1 rectangle takes no children or bottom"),
        (
            (
                Rectangle("B1", 1, word=(0, 1)),
                Rectangle("R1", 2, word=(0, 0), children=("B1", "B1"), bottom=(0,) * 4),
            ),
            "R1: a level-2 rectangle takes no word",
        ),
        # a parent listed before a child without a word: children are checked first
        (
            (Rectangle("R1", 2, children=("B1", "B1"), bottom=(0,) * 4), Rectangle("B1", 1)),
            "B1: level-1 rectangle needs a word",
        ),
    ],
)
def test_hierarchy_refuses_fields_that_do_not_apply(rects, message):
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        RectangleHierarchy(2, rects)


# ---------------------------------------------------------------------------
# the level-keyed tables and builder the id-keyed ones replaced, kept as the
# reference: every entry keyed by (level, id), levels listed as tuples, and
# lookups through a first-entry-wins index


@dataclass(frozen=True)
class NaiveOracleTable:
    budgets: tuple  # tuple of (level, tuple of (rect_id, budget))
    normalized: bool = False

    def budget(self, level, rect_id):
        index = {}
        for lv, entries in self.budgets:
            for rid, b in entries:
                index.setdefault((lv, rid), b)
        return index[level, rect_id]


def naive_oracle_from_dict(d: dict, normalized: bool = False) -> NaiveOracleTable:
    return NaiveOracleTable(tuple((lv, tuple(sorted(d[lv].items()))) for lv in sorted(d)), normalized)


@dataclass(frozen=True)
class NaiveFamilyTable:
    alphabet_size: int
    families: tuple  # (level, tuple of Family)


def naive_build_families(hierarchy, oracle: NaiveOracleTable, s: int) -> NaiveFamilyTable:
    from symdyn.extension import Family, _exact_log

    assert oracle.normalized

    def level_rects(level):
        return [r for r in hierarchy.rects if r.level == level]

    lvl1 = level_rects(1)
    p1 = min(len(r.word) for r in lvl1)
    exps = [_exact_log(s, oracle.budget(1, r.rect_id)) for r in lvl1]
    levels = []
    fams = []
    for r, (prefix, e) in zip(lvl1, prefix_allocate(s, p1, exps)):
        width = len(r.word)
        fixed = [(i, d) for i, d in enumerate(prefix)]
        fixed += [(i, 0) for i in range(p1, width)]
        free = [i for i in range(len(prefix), p1)]
        fams.append(Family(r.rect_id, width, tuple(fixed), tuple(free)))
    levels.append((1, tuple(fams)))
    table = {(1, f.rect_id): f for f in fams}
    for level in range(2, max(r.level for r in hierarchy.rects) + 1):
        groups = {}
        for r in level_rects(level):
            groups.setdefault(r.children, []).append(r)
        fams = []
        for children, rects in sorted(groups.items()):
            offset = 0
            fixed = []
            free = []
            for c in children:
                child = table[(level - 1, c)]
                fixed += [(offset + i, d) for i, d in child.fixed]
                free += [offset + i for i in child.free]
                offset += child.width
            rects = sorted(rects, key=lambda r: r.rect_id)
            exps = [_exact_log(s, oracle.budget(level, r.rect_id)) for r in rects]
            for r, (prefix, e) in zip(rects, prefix_allocate(s, len(free), exps)):
                newly_fixed = [(free[i], d) for i, d in enumerate(prefix)]
                fams.append(Family(r.rect_id, offset, tuple(sorted(fixed + newly_fixed)), tuple(free[len(prefix) :])))
        levels.append((level, tuple(fams)))
        for f in fams:
            table[(level, f.rect_id)] = f
    return NaiveFamilyTable(s, tuple(levels))


def random_hierarchy(rng: random.Random, depth: int):
    """A shuffled hierarchy of `depth` levels over 2 or 3 symbols, with raw
    budgets by level that fit the slack-2 level-1 bound and every product
    bound; ids are drawn so that id order, input order and level order differ."""
    s = rng.choice((2, 2, 3))
    p1 = rng.randint(4, 6) if s == 2 else rng.randint(3, 4)
    room = s ** (p1 - 2)
    names = rng.sample([a + b for a in "ABCDEFGH" for b in "xyz"], 24)
    lvl = [names.pop() for _ in range(rng.randint(2, min(4, room)))]
    width = {rid: p1 + rng.choice((0, 0, 1, 2)) for rid in lvl}
    rects = [Rectangle(rid, 1, word=tuple(rng.randrange(s) for _ in range(width[rid]))) for rid in lvl]
    budgets = {1: {}}
    for i, rid in enumerate(lvl):
        left = room - sum(budgets[1].values()) - (len(lvl) - i - 1)
        budgets[1][rid] = rng.randint(1, max(1, left // 2 if i < len(lvl) - 1 else left))
    for level in range(2, depth + 1):
        budgets[level] = {}
        below, lvl = lvl, []
        for _ in range(rng.randint(1, 3)):
            children = tuple(rng.choices(below, k=rng.choice((2, 2, 3))))
            allowed = math.prod(budgets[level - 1][c] for c in children)
            used = sum(budgets[level][r.rect_id] for r in rects if r.children == children)
            for _ in range(rng.randint(1, 3)):
                if used >= allowed:
                    break
                rid = names.pop()
                budgets[level][rid] = b = rng.randint(1, max(1, (allowed - used) // 2))
                used += b
                width[rid] = sum(width[c] for c in children)
                bottom = tuple(rng.randrange(s) for _ in range(width[rid]))
                rects.append(Rectangle(rid, level, children=children, bottom=bottom))
                lvl.append(rid)
    rng.shuffle(rects)
    return RectangleHierarchy(s, tuple(rects)), budgets


@pytest.mark.parametrize("depth", [2, 3])
def test_families_match_level_keyed_reference(depth):
    for seed in range(200):
        h, raw = random_hierarchy(random.Random(f"families:{depth}:{seed}"), depth)
        s = h.alphabet_size
        flat = {rid: b for level in raw.values() for rid, b in level.items()}
        oracle = normalize_oracle(OracleTable(flat), s, h)
        normalized = {lv: {rid: _normalized_value(s, b) for rid, b in d.items()} for lv, d in raw.items()}
        assert oracle.budgets == {rid: b for d in normalized.values() for rid, b in d.items()}
        naive = naive_build_families(h, naive_oracle_from_dict(normalized, normalized=True), s)
        expect = {f.rect_id: f for _, fams in naive.families for f in fams}
        table = build_families(h, oracle, s)
        assert table.families == expect
        assert list(table.families) == list(expect)  # the order `extend build` prints
        for level, fams in naive.families:
            assert all(h.get(f.rect_id).level == level for f in fams)
