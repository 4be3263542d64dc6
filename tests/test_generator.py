import itertools
import random

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
from symdyn.sft import Alphabet, SftSpec, full_shift, golden_mean, words_of_length


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
    for L, words in rep.words_by_length:
        assert set(words) == {
            tuple("".join(w)) for w in itertools.product("01", repeat=L)
        }
    assert rep.decode_consistent and rep.decode_unique


def test_image_language_golden_mean():
    gm = golden_mean()
    rep = partition_to_extension(gm, zero_coordinate_code(gm), depth=6)
    for L, words in rep.words_by_length:
        expected = {w for w in words_of_length(gm, L)}
        assert set(words) == expected
    assert rep.decode_consistent and rep.decode_unique


def test_image_language_top_row_projection():
    d = 3
    sft = delayed_copy_system(d)
    rep = partition_to_extension(sft, top_row_code(sft), depth=3)
    # the top row ranges over the full binary shift
    for L, words in rep.words_by_length:
        assert len(words) == 2**L
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
