import itertools
import random
from collections import Counter
from dataclasses import astuple

import pytest

from symdyn import generator
from symdyn.errors import ArgumentError, ResourceCapError
from symdyn.generator import (
    block_code,
    extract_generator,
    partition_to_extension,
    top_row_code,
    zero_coordinate_code,
)
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
    # the image lengths 1 and 2 have 2 and 4 words; the decode check at length 3 has 8
    fs = full_shift("01")
    code = zero_coordinate_code(fs)
    assert partition_to_extension(fs, code, depth=2, word_cap=8).decode_unique
    with pytest.raises(ResourceCapError, match="^more than 4 admissible words of length 3$"):
        partition_to_extension(fs, code, depth=2, word_cap=4)


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


def naive_walk(names, n):
    """The depth-first walk the level frontier replaced: (L, path, name) for
    every admissible word of length L = 1..n in words_up_to's order, where
    path[:L] holds the word's symbol indices."""
    size, width, base, window_code = names.size, names.width, names.base, names.window_code
    index = {s: k for k, s in enumerate(names.sft.alphabet.symbols)}
    keep = size ** (width - 1)
    path = [0] * n
    tail = [0] * (n + 1)  # tail[L]: the last min(L, width) symbols as a number
    named = [0] * (n + 1)
    for w in words_up_to(names.sft, n):
        L, k = len(w), index[w[-1]]
        path[L - 1] = k
        tail[L] = wid = tail[L - 1] % keep * size + k
        named[L] = named[L - 1] * base + window_code[wid] if L >= width else 0
        yield L, path, named[L]


def naive_extract_generator(sft, code, depth, c):
    """extract_generator on the depth-first walk, with (name, center) tuples
    kept per length; no argument checks and no word cap."""
    lengths = range(2 * c + 1, 2 * depth + 2, 2)
    pairs = [set() if L in lengths else None for L in range(2 * depth + 2)]
    for L, path, name in naive_walk(generator._Names(sft, code), 2 * depth + 1):
        if pairs[L] is not None:
            n = L // 2
            pairs[L].add((name, tuple(path[n - c : n + c + 1])))
    mult = tuple((L // 2, max(Counter(name for name, _ in pairs[L]).values(), default=0)) for L in lengths)
    return c, mult


def naive_partition_to_extension(sft, code, depth):
    """partition_to_extension on the depth-first walk; no argument checks and
    no word cap."""
    r = code.radius
    check_len = (depth + 2 * r) | 1
    names = generator._Names(sft, code)
    image = [set() for _ in range(depth + 1)]
    centers = set()
    for L, path, name in naive_walk(names, check_len):
        if 2 * r < L <= depth + 2 * r:
            image[L - 2 * r].add(name)
        if L == check_len:
            centers.add((name, path[L // 2]))
    sizes = tuple((L, len(image[L])) for L in range(1, depth + 1))
    unique = len(centers) == len({name for name, _ in centers})
    return sizes, depth, True, unique


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
                    assert astuple(extract_generator(sft, code, depth, c)) == expected
                expected = naive_partition_to_extension(sft, code, depth)
                assert astuple(partition_to_extension(sft, code, depth)) == expected
