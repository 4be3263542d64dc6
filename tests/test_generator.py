import itertools
import json
import random
import time
from collections import Counter
from dataclasses import astuple

import pytest

from symdyn import generator
from symdyn.cli import main
from symdyn.errors import ArgumentError, ResourceCapError
from symdyn.generator import (
    block_code,
    extract_generator,
    partition_to_extension,
    top_row_code,
    zero_coordinate_code,
)
from symdyn.specfiles import load_spec
from symdyn.sft import Alphabet, SftSpec, count_words, full_shift, golden_mean, words_of_length, words_up_to


def delayed_copy_system(d: int) -> SftSpec:
    """Two binary rows with row 2 the row-1 content delayed by d."""
    rows = (Alphabet(("0", "1")), Alphabet(("0", "1")))
    symbols = tuple(itertools.product("01", "01"))
    forbidden = set()
    # forbid windows of length d+1 where row2[i+d] != row1[i]
    for w in itertools.product(symbols, repeat=d + 1):
        if w[d][1] != w[0][0]:
            forbidden.add(w)
    return SftSpec(Alphabet(symbols), frozenset(forbidden), rows)


def test_identity_extension_multiplicity_one():
    code = zero_coordinate_code(full_shift("01"))
    report = extract_generator(full_shift("01"), code, depth=5)
    assert report.multiplicities == tuple((n, 1) for n in range(6))


def test_golden_mean_zero_coordinate():
    gm = golden_mean()
    report = extract_generator(gm, zero_coordinate_code(gm), depth=5)
    assert all(m == 1 for _, m in report.multiplicities)


def test_delayed_copy_multiplicity_decreases_past_radius():
    d = 3
    sft = delayed_copy_system(d)
    code = top_row_code(sft)
    report = extract_generator(sft, code, depth=6, center_radius=1)
    mult = dict(report.multiplicities)
    # center block spans row-2 cells fed by row-1 positions -4..-2; the
    # name reveals them one at a time from n = 2 onward
    assert mult[1] == 8
    assert mult[2] == 4
    assert mult[3] == 2
    assert mult[4] == 1
    assert mult[5] == 1
    mults = [m for _, m in report.multiplicities]
    assert all(a >= b for a, b in zip(mults, mults[1:]))


def test_multiplicity_nonincreasing_other_codes():
    gm = golden_mean()
    # a lossy code: both symbols label 'x' -> names carry no information
    lossy = block_code(0, {("0",): "x", ("1",): "x"})
    report = extract_generator(gm, lossy, depth=4)
    mults = [m for _, m in report.multiplicities]
    assert all(a >= b for a, b in zip(mults, mults[1:]))


def test_partial_code_rejected():
    gm = golden_mean()
    partial = block_code(0, {("0",): "0"})
    with pytest.raises(ArgumentError, match="uncovered"):
        extract_generator(gm, partial, depth=2)


def naive_check_total(code, sft):
    """The old totality check: every window of length 2r+1 walked and each
    uncovered one listed.  The outcome is None or the refusal's message."""
    table = code.as_dict()
    missing = [w for w in words_of_length(sft, 2 * code.radius + 1) if w not in table]
    if missing:
        return f"code not total on the language; uncovered: {missing[:5]}" + ("..." if len(missing) > 5 else "")
    return None


def check_total_outcome(code, sft):
    try:
        extract_generator(sft, code, depth=code.radius)
    except ArgumentError as exc:
        return str(exc)
    return None


def test_totality_matches_the_walk_on_random_codes():
    rng = random.Random(12)
    systems = [full_shift("01"), full_shift("012"), golden_mean(), delayed_copy_system(2)]
    seen = set()
    for _ in range(300):
        sft = rng.choice(systems)
        r = rng.randint(0, 2)
        windows = list(itertools.product(sft.alphabet.symbols, repeat=2 * r + 1))
        admissible = [w for w in windows if sft.admits(w)]
        # drop none, a few or many admissible windows; add inadmissible ones
        keep = [w for w in admissible if rng.random() >= rng.choice((0, 0, 0.02, 0.5))]
        extra = [w for w in windows if not sft.admits(w) and rng.random() < 0.3]
        code = block_code(r, {w: rng.choice("ab") for w in keep + extra})
        outcome = naive_check_total(code, sft)
        assert check_total_outcome(code, sft) == outcome
        seen.add(None if outcome is None else outcome.endswith("..."))
    assert seen == {None, True, False}  # total, more than five and at most five missing


def test_a_total_code_is_decided_without_walking_the_windows(monkeypatch):
    def refuse(sft, n):
        raise AssertionError("the totality check walked the windows")

    monkeypatch.setattr(generator, "words_of_length", refuse)
    gm = golden_mean()
    # every admissible window of length 3, and one inadmissible key that must not count
    table = {w: w[1] for w in itertools.product("01", repeat=3) if gm.admits(w)}
    table[("1", "1", "0")] = "x"
    report = extract_generator(gm, block_code(1, table), depth=3)
    assert len(report.multiplicities) == 4


def test_bad_depth_and_center_rejected():
    gm = golden_mean()
    code = zero_coordinate_code(gm)
    for depth, center in ((-1, 0), (4, -1), (2, 5)):
        with pytest.raises(ArgumentError, match="^(depth|center radius) must"):
            extract_generator(gm, code, depth, center_radius=center)
    with pytest.raises(ArgumentError, match="^depth must be >= 0, got -1$"):
        partition_to_extension(gm, code, -1)


def test_decode_check_length_obeys_the_word_cap():
    # the set cap counts the decode check's sets too.  The full 2-shift at
    # depth 2 spends 13: its one node; at level 1 two sets after the root,
    # one held, two before it, one held, and the decode check's one pair with
    # a centre table of two (state, block) pairs, counted when it is built
    # and when it is combined; at level 2 one set held
    fs = full_shift("01")
    code = zero_coordinate_code(fs)
    assert partition_to_extension(fs, code, depth=2, set_cap=13).decode_unique
    with pytest.raises(ResourceCapError, match="^more than 12 reachable sets stepped by level 2$"):
        partition_to_extension(fs, code, depth=2, set_cap=12)
    with pytest.raises(ResourceCapError, match="^more than 11 reachable sets stepped by level 1$"):
        partition_to_extension(fs, code, depth=2, set_cap=11)


def test_the_set_cap_refuses_deep_and_wide_checks_quickly():
    fs = full_shift("01")
    code = zero_coordinate_code(fs)
    start = time.perf_counter()
    assert {m for _, m in extract_generator(fs, code, 2000).multiplicities} == {1}
    # the refusal at depth 10**7 is checked through the command line, in
    # test_generator_set_cap_refuses_depth_ten_million_in_time
    # a name that says nothing leaves 2**31 centre blocks of 31 symbols
    lossy = block_code(0, {("0",): "x", ("1",): "x"})
    with pytest.raises(ResourceCapError, match="^more than 1000000 reachable sets stepped by level 0$"):
        extract_generator(fs, lossy, 15, center_radius=15)
    assert time.perf_counter() - start < 10


def test_negative_radius_refused():
    # windows have 2r + 1 >= 1 symbols
    with pytest.raises(ArgumentError, match="^code radius must be >= 0, got -1$"):
        block_code(-1, {})


def spend_trace(monkeypatch, run):
    """Run a generator check and return its spends toward the set cap, as
    (level, running count) pairs."""
    trace = []
    real = generator._Subsets.spend

    def spend(self, n):
        real(self, n)
        trace.append((self.level, self.spent))

    with monkeypatch.context() as patched:
        patched.setattr(generator._Subsets, "spend", spend)
        run()
    return trace


def traced(monkeypatch, run):
    """A check's result, or "cap: " and its refusal's message, and its
    spends toward the set cap."""
    found = []

    def attempt():
        try:
            found.append(run())
        except ResourceCapError as exc:
            found.append(f"cap: {exc}")

    trace = spend_trace(monkeypatch, attempt)
    return found[0], trace


def refusal_at(trace, cap):
    """The refusal a cap of cap gives a run with this uncapped trace: at the
    first level where the running count passes the cap, or None."""
    for level, spent in trace:
        if spent > cap:
            return f"more than {cap} reachable sets stepped by level {level}"
    return None


def test_image_language_identity():
    fs = full_shift("01")
    rep = partition_to_extension(fs, zero_coordinate_code(fs), depth=5)
    assert rep.lengths == tuple((L, 2**L) for L in range(1, 6))
    assert rep.decode_consistent and rep.decode_unique


def test_image_language_golden_mean():
    gm = golden_mean()
    rep = partition_to_extension(gm, zero_coordinate_code(gm), depth=6)
    assert rep.lengths == tuple((L, count_words(gm, L)) for L in range(1, 7))
    assert rep.decode_consistent and rep.decode_unique


def test_image_language_top_row_projection():
    d = 3
    sft = delayed_copy_system(d)
    rep = partition_to_extension(sft, top_row_code(sft), depth=3)
    # the top row ranges over the full binary shift
    assert rep.lengths == tuple((L, 2**L) for L in range(1, 4))
    assert rep.decode_consistent
    # at this depth the delayed row-2 center cell reads row-1 outside the
    # name window, so the decode cannot be unique
    assert not rep.decode_unique


def test_roundtrip_name_decode():
    # wherever extract_generator reports multiplicity 1, the name block
    # determines the center symbol; re-derive the decode map and verify it
    # on every admissible word (finite-depth selector-after-name identity)
    d = 2
    sft = delayed_copy_system(d)
    code = top_row_code(sft)
    table = code.as_dict()
    depth = 4
    report = extract_generator(sft, code, depth=depth)
    mult = dict(report.multiplicities)
    assert mult[depth] == 1
    decode = {}
    for w in words_of_length(sft, 2 * depth + 1):
        name = tuple(table[w[i : i + 1]] for i in range(2 * depth + 1))
        decode.setdefault(name, set()).add(w[depth])
    assert all(len(v) == 1 for v in decode.values())
    for name, centers in decode.items():
        assert len(centers) == 1


def naive_names(sft, code):
    """The integer coding of the word enumerations below: a word is the
    base-|A| number of its symbol indices, and a name (l_1, ..., l_m) the
    number with base-B digits code(l_1) ... code(l_m), where the codes run
    1..B-1.  Returns |A|, the window width, B and {window: label code}."""
    index = {s: k for k, s in enumerate(sft.alphabet.symbols)}
    labels = dict.fromkeys(label for _, label in code.table)
    label_code = {label: i for i, label in enumerate(labels, 1)}
    size, width = len(index), 2 * code.radius + 1
    window_code = {}
    for w, label in code.table:
        if all(s in index for s in w):
            wid = 0
            for s in w:
                wid = wid * size + index[s]
            window_code[wid] = label_code[label]
    return size, width, len(labels) + 1, window_code


def naive_levels(sft, code, n):
    """The word enumeration the subset steps replaced: (L, words, names) for
    L = 1..n, every admissible word of length L, dead ends included, and in
    the same order its name, which codes the labels of its windows left to
    right (0 while L < width).  Each level grows from the one before along
    the automaton's edges, in symbol order, and replaces it."""
    size, width, base, window_code = naive_names(sft, code)
    span = size**width
    succ = sft._automaton.succ
    states, words, names = [0], [0], [0]  # the empty word at the root
    for L in range(1, n + 1):
        if L >= width:
            names = [
                m * base + window_code[(w * size + k) % span]
                for s, w, m in zip(states, words, names)
                for k in succ[s]
            ]
        words = [w * size + k for s, w in zip(states, words) for k in succ[s]]
        if L < width:
            names = [0] * len(words)
        states = [t for s in states for t in succ[s].values()]
        yield L, words, names


def naive_multiplicity(words, names, shift, block):
    """The most distinct center blocks, the digits word // shift % block,
    under one name."""
    pairs = {m * block + w // shift % block: m for w, m in zip(words, names)}
    return max(Counter(pairs.values()).values(), default=0)


def naive_extract_generator(sft, code, depth, c):
    """extract_generator on the word enumeration; no argument checks and no
    cap."""
    size = sft.alphabet.size
    lengths = range(2 * c + 1, 2 * depth + 2, 2)
    mult = []
    for L, words, names in naive_levels(sft, code, 2 * depth + 1):
        if L in lengths:  # the center block: letters L//2 - c .. L//2 + c
            mult.append((L // 2, naive_multiplicity(words, names, size ** (L // 2 - c), size ** (2 * c + 1))))
    return (tuple(mult),)


def naive_partition_to_extension(sft, code, depth):
    """partition_to_extension on the word enumeration; no argument checks
    and no cap."""
    r = code.radius
    check_len = (depth + 2 * r) | 1
    sizes = []
    for L, words, names in naive_levels(sft, code, check_len):
        if 2 * r < L <= depth + 2 * r:
            sizes.append((L - 2 * r, len(set(names))))
    size = sft.alphabet.size
    unique = naive_multiplicity(words, names, size ** (check_len // 2), size) <= 1
    return tuple(sizes), True, unique


def naive_walk(sft, code, n):
    """The depth-first walk the level frontier replaced: (L, path, name) for
    every admissible word of length L = 1..n in words_up_to's order, where
    path[:L] holds the word's symbol indices."""
    size, width, base, window_code = naive_names(sft, code)
    index = {s: k for k, s in enumerate(sft.alphabet.symbols)}
    keep = size ** (width - 1)
    path = [0] * n
    tail = [0] * (n + 1)  # tail[L]: the last min(L, width) symbols as a number
    named = [0] * (n + 1)
    for w in words_up_to(sft, n):
        L, k = len(w), index[w[-1]]
        path[L - 1] = k
        tail[L] = wid = tail[L - 1] % keep * size + k
        named[L] = named[L - 1] * base + window_code[wid] if L >= width else 0
        yield L, path, named[L]


def walk_extract_generator(sft, code, depth, c):
    """extract_generator on the depth-first walk, with (name, center) tuples
    kept per length; no argument checks and no cap."""
    lengths = range(2 * c + 1, 2 * depth + 2, 2)
    pairs = [set() if L in lengths else None for L in range(2 * depth + 2)]
    for L, path, name in naive_walk(sft, code, 2 * depth + 1):
        if pairs[L] is not None:
            n = L // 2
            pairs[L].add((name, tuple(path[n - c : n + c + 1])))
    mult = tuple((L // 2, max(Counter(name for name, _ in pairs[L]).values(), default=0)) for L in lengths)
    return (mult,)


def walk_partition_to_extension(sft, code, depth):
    """partition_to_extension on the depth-first walk; no argument checks and
    no cap."""
    r = code.radius
    check_len = (depth + 2 * r) | 1
    image = [set() for _ in range(depth + 1)]
    centers = set()
    for L, path, name in naive_walk(sft, code, check_len):
        if 2 * r < L <= depth + 2 * r:
            image[L - 2 * r].add(name)
        if L == check_len:
            centers.add((name, path[L // 2]))
    sizes = tuple((L, len(image[L])) for L in range(1, depth + 1))
    unique = len(centers) == len({name for name, _ in centers})
    return sizes, True, unique


def random_specs(rng, count):
    """Specs over 2-3 symbols with 1-4 forbidden words of length 1-4: among
    them dead ends, since a forbidden word may cut every extension of a
    word without forbidding the word itself."""
    specs = []
    for _ in range(count):
        symbols = rng.choice(("01", "012"))
        forbidden = {
            tuple(rng.choice(symbols) for _ in range(rng.randint(1, 4))) for _ in range(rng.randint(1, 4))
        }
        specs.append(SftSpec(Alphabet(tuple(symbols)), frozenset(forbidden)))
    return specs


def random_total_code(rng, sft, radius):
    labels = "xyz"[: rng.randint(1, 3)]
    windows = itertools.product(sft.alphabet.symbols, repeat=2 * radius + 1)
    return block_code(radius, {w: rng.choice(labels) for w in windows})


def test_level_frontier_matches_the_depth_first_walk():
    """The subset steps, the word enumeration they replaced and the
    depth-first walk before it give the same tables."""
    rng = random.Random(18)
    specs = random_specs(rng, 60) + [delayed_copy_system(2), delayed_copy_system(3)]
    dead_ends = [s for s in specs if 0 < len(s._core.states) < len(s._automaton.states)]
    assert len(dead_ends) >= 5
    for sft in specs:
        max_depth = 3 if sft.alphabet.size > 2 else 4
        for radius in (0, 1):
            code = random_total_code(rng, sft, radius)
            for depth in range(max_depth + 1):
                for c in range(depth + 1):
                    expected = naive_extract_generator(sft, code, depth, c)
                    assert walk_extract_generator(sft, code, depth, c) == expected
                    assert astuple(extract_generator(sft, code, depth, c)) == expected
                expected = naive_partition_to_extension(sft, code, depth)
                assert walk_partition_to_extension(sft, code, depth) == expected
                assert astuple(partition_to_extension(sft, code, depth)) == expected


def test_radius_two_codes_match_the_enumeration():
    # a radius-2 code's nodes carry tails of 1, 2, 3 and 4 symbols before
    # its first label
    rng = random.Random(22)
    specs = random_specs(rng, 25) + [full_shift("01"), golden_mean()]
    for sft in specs:
        if sft.alphabet.size > 2:
            continue
        code = random_total_code(rng, sft, 2)
        for depth in range(6):
            for c in (0, 1):
                if c <= depth:
                    expected = naive_extract_generator(sft, code, depth, c)
                    assert astuple(extract_generator(sft, code, depth, c)) == expected
            assert astuple(partition_to_extension(sft, code, depth)) == naive_partition_to_extension(sft, code, depth)


def dead_end_spec():
    """Symbols 0-4: 0 and 1 follow each other and go to 2, then 2 -> 3 -> 4,
    and 4 has no successor; its points are those of the full 2-shift on
    {0, 1}, but the tables count the words that run into 2, 3 and 4 too."""
    allowed = {("0", "0"), ("0", "1"), ("0", "2"), ("1", "0"), ("1", "1"), ("1", "2"), ("2", "3"), ("3", "4")}
    pairs = itertools.product("01234", repeat=2)
    return SftSpec(Alphabet(tuple("01234")), frozenset(p for p in pairs if p not in allowed))


def test_dead_end_spec_matches_the_enumeration():
    sft = dead_end_spec()
    code = block_code(0, {(s,): "a" if s == "0" else "b" for s in "01234"})
    assert extract_generator(sft, code, 4).multiplicities == ((0, 4), (1, 3), (2, 2), (3, 1), (4, 1))
    assert not partition_to_extension(sft, code, 4).decode_unique
    rng = random.Random(10)
    codes = [code, zero_coordinate_code(sft), random_total_code(rng, sft, 0), random_total_code(rng, sft, 1)]
    for code in codes:
        for depth in range(4):
            for c in (0, 1):
                if c <= depth:
                    expected = naive_extract_generator(sft, code, depth, c)
                    assert astuple(extract_generator(sft, code, depth, c)) == expected
            assert astuple(partition_to_extension(sft, code, depth)) == naive_partition_to_extension(sft, code, depth)


def test_extend_generator_counts_the_dead_ends(tmp_path, capsys):
    # reading off "is it 0" leaves 4 centres under one name at depth 0; with
    # its two neighbours read too, 5 centres at depth 0 and a unique decode
    sft = dead_end_spec()
    forbidden = ["".join(w) for w in sorted(sft.forbidden)]
    spec = write_spec(tmp_path, "dead.json", {"kind": "sft", "alphabet": list("01234"), "forbidden": forbidden})
    tables = {
        0: {s: "a" if s == "0" else "b" for s in "01234"},
        1: {"".join(w): "ab"[w[1] != "0"] for w in itertools.product("01234", repeat=3)},
    }
    for radius, multiplicities, unique in ((0, [4, 3, 2, 1, 1], False), (1, [5, 3, 2, 1, 1], True)):
        code = write_spec(tmp_path, f"dead{radius}.json", {"kind": "blockcode", "radius": radius, "table": tables[radius]})
        assert main(["extend", "generator", "--spec", spec, "--code", code, "--depth", "4"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert list(result["multiplicities"].values()) == multiplicities
        assert result["decode_unique"] is unique


def test_known_tables_past_the_old_word_cap():
    # at depth 30 the enumeration would list 2**61 words of the full 2-shift
    fs, gm = full_shift("01"), golden_mean()
    for sft in (fs, gm):
        code = zero_coordinate_code(sft)
        assert extract_generator(sft, code, 30).multiplicities == tuple((n, 1) for n in range(31))
        assert partition_to_extension(sft, code, 30).decode_unique
    assert partition_to_extension(fs, zero_coordinate_code(fs), 30).lengths == tuple((L, 2**L) for L in range(1, 31))
    fib = [1, 2]  # words of the golden mean of length 0 and 1
    while len(fib) <= 30:
        fib.append(fib[-1] + fib[-2])
    assert partition_to_extension(gm, zero_coordinate_code(gm), 30).lengths == tuple((L, fib[L]) for L in range(1, 31))


def test_a_cached_graph_still_counts_its_nodes():
    """The labelled graph is built once per spec, code and cap, and every
    call charges its nodes at level 0, so a refusal keeps its message and
    its level whether the graph was built or found."""
    toy = delayed_copy_system(2)
    code = top_row_code(toy)
    graph = generator._labelled_graph
    graph.cache_clear()
    expected = extract_generator(toy, code, 3, 1)
    nodes = len(graph(toy, code, generator.DEFAULT_SET_CAP)[0])
    assert nodes > 1
    for cap in (0, nodes - 1):  # below the node count: the build refuses, every time
        for _ in range(2):
            with pytest.raises(ResourceCapError, match=f"^more than {cap} reachable sets stepped by level 0$"):
                extract_generator(toy, code, 3, 1, set_cap=cap)
    for _ in range(2):  # at the node count: built once, and charged on each call
        with pytest.raises(ResourceCapError, match=f"^more than {nodes} reachable sets stepped by level 1$"):
            partition_to_extension(toy, code, 4, set_cap=nodes)
    assert extract_generator(toy, code, 3, 1) == expected
    # hits, misses: the four refused builds are not cached, and one graph is kept,
    # so the default cap's graph is built again after the cap-nodes one
    assert graph.cache_info()[:2] == (2, 7)
    assert graph.cache_info().currsize == 1


def test_the_subset_memo_stays_within_its_cap(monkeypatch):
    """Under a cap each of three checks fits but the steps of all three do
    not: run in turn on one graph, they flush its memo, the costs kept, at
    least one per entry, never pass the cap, and every answer and spend
    trace is the cold run's.  A refused build still caches nothing."""
    toy = delayed_copy_system(2)
    code = top_row_code(toy)
    graph = generator._labelled_graph
    checks = [
        lambda cap: extract_generator(toy, code, 3, 1, cap),
        lambda cap: partition_to_extension(toy, code, 4, cap),
        lambda cap: extract_generator(toy, code, 4, 0, cap),
    ]
    spent = []
    for check in checks:
        graph.cache_clear()
        spent.append(spend_trace(monkeypatch, lambda: check(generator.DEFAULT_SET_CAP))[-1][1])
    cap = max(spent)
    cold = []
    for check in checks:
        graph.cache_clear()
        cold.append(traced(monkeypatch, lambda: check(cap)))
    assert not any(isinstance(result, str) for result, _ in cold)
    graph.cache_clear()
    kept, flushed = set(), False
    for _ in range(3):
        for check, expected in zip(checks, cold):
            assert traced(monkeypatch, lambda: check(cap)) == expected
            memo = graph(toy, code, cap)[3]
            tables = (memo.after, memo.before, memo.centres, memo.most)
            entries = {(i, key): costs for i, table in enumerate(tables) for key, (_, costs) in table.items()}
            assert memo.stored == sum(max(1, sum(costs)) for costs in entries.values()) <= cap
            flushed |= not kept <= entries.keys()
            kept = set(entries)
    assert flushed
    nodes = len(graph(toy, code, cap)[0])
    partial = block_code(0, {(s,): "a" for s in toy.alphabet.symbols[1:]})
    graph.cache_clear()
    with pytest.raises(ResourceCapError, match="by level 0$"):
        extract_generator(toy, code, 3, 1, nodes - 1)
    with pytest.raises(ArgumentError, match="^code not total"):
        partition_to_extension(toy, partial, 4, cap)
    assert graph.cache_info().currsize == 0


def test_a_code_that_is_not_total_is_refused_on_every_call():
    gm = golden_mean()
    partial = block_code(0, {("0",): "0"})
    generator._labelled_graph.cache_clear()
    for _ in range(2):
        for run in (extract_generator, partition_to_extension):
            with pytest.raises(ArgumentError, match=r"^code not total on the language; uncovered: \[\('1',\)\]$"):
                run(gm, partial, 2)
    assert generator._labelled_graph.cache_info().currsize == 0


def write_spec(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps({"version": 1, **body}))
    return str(path)


def test_one_extend_generator_builds_the_graph_once(tmp_path, capsys):
    spec = write_spec(tmp_path, "gm.json", {"kind": "sft", "alphabet": ["0", "1"], "forbidden": ["11"]})
    table = {"000": "a", "001": "b", "010": "a", "100": "b", "101": "a"}
    code = write_spec(tmp_path, "code.json", {"kind": "blockcode", "radius": 1, "table": table})
    generator._labelled_graph.cache_clear()
    assert main(["extend", "generator", "--spec", spec, "--code", code, "--depth", "4", "--center", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["image_language_counts"]
    info = generator._labelled_graph.cache_info()
    assert (info.misses, info.hits) == (1, 1)  # the multiplicities build it, the image counts find it


def test_equal_specs_loaded_twice_share_one_build(tmp_path):
    spec = write_spec(tmp_path, "spec.json", {"kind": "sft", "alphabet": ["0", "1", "2"], "forbidden": ["00", "12"]})
    table = {"0": "a", "1": "b", "2": "b"}
    code = write_spec(tmp_path, "code.json", {"kind": "blockcode", "radius": 0, "table": table})
    (s1, c1), (s2, c2) = [(load_spec(spec)["payload"], load_spec(code)["payload"]) for _ in range(2)]
    assert s1 == s2 and s1 is not s2 and c1 == c2 and c1 is not c2
    generator._labelled_graph.cache_clear()
    assert astuple(extract_generator(s1, c1, 3)) == naive_extract_generator(s1, c1, 3, 0)
    assert astuple(partition_to_extension(s2, c2, 3)) == naive_partition_to_extension(s2, c2, 3)
    info = generator._labelled_graph.cache_info()
    assert (info.misses, info.hits) == (1, 1)
