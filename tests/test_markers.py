import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symdyn.errors import ArgumentError, ConstructionError
from symdyn.markers import (
    ArrayWindow,
    LongGapFlag,
    MarkerSchedule,
    aperiodicize,
    decompose_gap,
    leftward_stretch,
    periodic_markers,
    periodic_stretches,
    place_krieger,
    subdivide_balance,
    upward_adjust,
    upward_stretch,
    verify_invariants,
    window_from_rows,
)
from symdyn.randgen import random_aperiodic_window


def rand_row(rng, width):
    return "".join(rng.choice("01") for _ in range(width))


# ---------------------------------------------------------------------------
# reference passes: linear scans over the whole marker set, the way the
# passes were first written; the bisect-based passes must match them


def naive_upward_adjust(w):
    cur = w
    notes = []
    flags = list(w.flags)
    for k in range(2, w.depth + 1):
        above = cur.row_markers(k - 1)
        moved = []
        relocation = {}
        for c in cur.row_markers(k):
            target = next((a for a in above if a >= c), None)
            if target is None:
                notes.append(f"row {k}: marker at {c} dropped (no anchor to the right)")
                relocation[c] = None
            else:
                moved.append(target)
                relocation[c] = target
        cur = cur.with_markers(k, moved)
        for idx, f in enumerate(flags):
            if f is None or f.row != k:
                continue
            lo = f.lo if f.lo == -1 else relocation.get(f.lo, f.lo)
            hi = relocation.get(f.hi, f.hi)
            if lo is None or hi is None:
                flags[idx] = None
                notes.append(f"row {k}: long-gap flag dropped with its marker")
            else:
                flags[idx] = LongGapFlag(k, lo, hi, f.period)
    cur = replace(cur, flags=tuple(f for f in flags if f is not None))
    for note in notes:
        cur = cur.with_note(note)
    return cur


def naive_subdivide_balance(w, schedule):
    if not schedule.m or len(schedule.m) < w.depth:
        raise ArgumentError("schedule must provide m_k for every row")
    cur = w
    for k in range(1, w.depth + 1):
        m = schedule.m[k - 1]
        for a, b, p in w.interior_gaps(k):
            try:
                decompose_gap(p, m)
            except ArgumentError:
                raise ArgumentError(
                    f"row {k} gap ({a}, {b}] of length {p} has no a*{m}+b*{m + 1} split"
                )
        new_cols = []
        for a, b, p in cur.interior_gaps(k):
            na, nb = decompose_gap(p, m)
            pos = a
            for _ in range(na):
                pos += m
                new_cols.append(pos)
            for _ in range(nb):
                pos += m + 1
                new_cols.append(pos)
            new_cols.pop()
        if k == 1:
            cur = cur.with_markers(1, cur.row_markers(1) + tuple(new_cols))
        else:
            above = cur.row_markers(k - 1)
            adjusted = []
            for c in new_cols:
                target = next((x for x in above if x >= c), None)
                if target is None:
                    cur = cur.with_note(
                        f"row {k}: subdivision marker at {c} dropped (no anchor)"
                    )
                else:
                    adjusted.append(target)
            cur = cur.with_markers(k, cur.row_markers(k) + tuple(adjusted))
    return cur


def naive_periodic_markers(w, row):
    flagged = [f for f in w.flags if f.row == row]
    flagged_spans = [(f.lo, f.hi) for f in flagged]
    for a, b, length in w.interior_gaps(row):
        if length > 2 * row + 1 and (a, b) not in flagged_spans:
            raise ConstructionError(
                f"row {row} gap ({a}, {b}] is long but carries no period flag"
            )
    cur = w
    for f in flagged:
        p = f.period
        if p < 1 or p >= row:
            raise ConstructionError(f"flag period {p} inconsistent with row {row}")
        existing = set(cur.row_markers(p))
        added = []
        for c in range(f.lo + 1, f.hi + 1, p):
            if all(abs(c - e) >= p for e in existing):
                existing.add(c)
                added.append(c)
        if added:
            cur = cur.with_markers(p, cur.row_markers(p) + tuple(added))
    return cur


def naive_upward_stretch(w):
    marks = [set(ms) for ms in w.markers]
    for k in range(w.depth, 1, -1):
        for c in sorted(set(w.row_markers(k))):
            for l in range(k - 1, 0, -1):
                if any(abs(c - e) <= l for e in marks[l - 1]):
                    break
                marks[l - 1].add(c)
    cur = w
    for k in range(1, w.depth + 1):
        cur = cur.with_markers(k, tuple(sorted(marks[k - 1])))
    return cur


def naive_leftward_stretch(w):
    cur = w
    for k in range(1, w.depth + 1):
        marks = set(cur.row_markers(k))
        for i in sorted(set(cur.row_markers(k))):
            c = i - k
            while c >= 0 and all(abs(c - e) >= k for e in marks):
                marks.add(c)
                c -= k
        cur = cur.with_markers(k, tuple(sorted(marks)))
    return cur


def naive_aperiodicize(w):
    cur = w
    for k in range(1, w.depth + 1):
        cur = place_krieger(cur, k, k) if cur.width > 2 * k + 1 else cur
    for k in range(2, w.depth + 1):
        cur = naive_periodic_markers(cur, k)
    return naive_leftward_stretch(naive_upward_stretch(cur))


def naive_periodic_stretches(w, depth, max_period, min_len):
    """Reference: compare every column with the one p to its right, for
    every p, on fingerprints built one cell at a time."""

    def column(i):
        syms = tuple(w.rows[r][i] for r in range(depth))
        marks = tuple(i in w.markers[r] for r in range(depth - 1))
        return (syms, marks)

    W = w.width
    cols = [column(i) for i in range(W)]
    out = []
    for p in range(1, max_period):
        i = 0
        while i < W - p:
            if cols[i] != cols[i + p]:
                i += 1
                continue
            start = i
            while i < W - p and cols[i] == cols[i + p]:
                i += 1
            end = i - 1 + p
            if end - start + 1 > min_len:
                out.append((start, end, p))
            i += 1
    out.sort()
    return out


def naive_place_krieger(w, row, n):
    """Reference: map every column to its covering stretch reaching furthest
    right (the first in (a, b, p) order on ties), then place greedily."""
    if w.boundary != "open":
        raise ArgumentError("marker passes require an open boundary")
    if not (1 <= row <= w.depth):
        raise ArgumentError(f"row {row} out of range")
    if w.width <= 2 * n + 1:
        raise ArgumentError(f"window of width {w.width} too narrow for n={n}")
    blocked = {}
    for a, b, p in naive_periodic_stretches(w, row, n, 2 * n + 1):
        for c in range(a, b + 1):
            if c not in blocked or b > blocked[c][1]:
                blocked[c] = (a, b, p)
    cols = []
    flags = []
    last = None
    i = 0
    W = w.width
    while i < W:
        if i in blocked:
            a, b, p = blocked[i]
            if b + 1 >= W:
                flags.append(LongGapFlag(row, -1 if last is None else last, W - 1, p))
                break
            nxt = b + 1
            flags.append(LongGapFlag(row, -1 if last is None else last, nxt, p))
            cols.append(nxt)
            last = nxt
            i = nxt + n
        else:
            cols.append(i)
            last = i
            i += n
    merged = tuple(sorted(set(w.row_markers(row)) | set(cols)))
    out = w.with_markers(row, merged)
    return replace(out, flags=out.flags + tuple(flags))


def outcome(fn, *args):
    """Everything a pass hands back, notes included, or its error."""
    try:
        out = fn(*args)
    except (ArgumentError, ConstructionError) as exc:
        return type(exc).__name__, str(exc)
    return out.rows, out.markers, out.flags, out.notes


def dense_window(rng, width, depth):
    """Random rows, markers at per-row densities up to 1/2, and long-gap
    flags on random interior gaps (and the leading boundary gap) with
    periods below their row, so every branch of the passes is reached."""
    rows = [rand_row(rng, width) for _ in range(depth)]
    markers = [
        sorted(rng.sample(range(width), rng.randint(0, width // rng.choice((2, 4, 8, 16)))))
        for _ in range(depth)
    ]
    flags = []
    for k, ms in enumerate(markers, start=1):
        if k < 2 or len(ms) < 2:
            continue
        spans = [(-1, ms[0])] + list(zip(ms, ms[1:]))
        for lo, hi in rng.sample(spans, rng.randint(0, min(3, len(spans)))):
            flags.append(LongGapFlag(k, lo, hi, rng.randrange(1, k + 1)))
        if rng.random() < 0.3:  # a trailing flag running to the window edge
            flags.append(LongGapFlag(k, ms[-1], width - 1, rng.randrange(1, k)))
    return replace(window_from_rows(rows, markers), flags=tuple(flags))


def long_gaps_flagged(w, row):
    """w with a flag on every long row-`row` gap, periods below the row."""
    rng = random.Random(row * 1000 + len(w.flags))
    extra = tuple(
        LongGapFlag(row, a, b, rng.randrange(1, row))
        for a, b, p in w.interior_gaps(row)
        if p > 2 * row + 1
    )
    return replace(w, flags=w.flags + extra)


def test_passes_match_reference_scans_on_dense_windows():
    rng = random.Random(43)
    seen = set()  # which branches the random windows reached
    for trial in range(150):
        w = dense_window(rng, rng.choice((12, 30, 80, 160)), rng.randint(1, 6))
        got = outcome(upward_adjust, w)
        assert got == outcome(naive_upward_adjust, w)
        seen.update(
            kind for kind in ("no anchor", "flag dropped") if any(kind in n for n in got[3])
        )
        sched = MarkerSchedule(tuple(range(1, w.depth + 1)), tuple(rng.choice((1, 2, 3)) for _ in range(w.depth)))
        for v in (w, upward_adjust(w)):
            got = outcome(subdivide_balance, v, sched)
            assert got == outcome(naive_subdivide_balance, v, sched)
            seen.add("subdivide error" if got[0] == "ArgumentError" else "subdivided")
            if got[0] != "ArgumentError" and any("(no anchor)" in n for n in got[3]):
                seen.add("subdivision dropped")
        for row in range(2, w.depth + 1):
            for v in (w, long_gaps_flagged(w, row)):
                got = outcome(periodic_markers, v, row)
                assert got == outcome(naive_periodic_markers, v, row)
                seen.add(got[0] if isinstance(got[0], str) else "filled")
        assert outcome(upward_stretch, w) == outcome(naive_upward_stretch, w)
        assert outcome(leftward_stretch, w) == outcome(naive_leftward_stretch, w)
    assert seen >= {
        "no anchor",
        "flag dropped",
        "subdivide error",
        "subdivided",
        "subdivision dropped",
        "ConstructionError",
        "filled",
    }


def test_pass_chains_match_reference_scans():
    rng = random.Random(47)
    for _ in range(12):
        depth = rng.randint(2, 5)
        w = random_aperiodic_window(rng, rng.choice((40, 120)), depth, depth)
        rows = list(w.rows)
        # plant periodic blocks so the chain flags and fills long gaps
        for k in range(depth - rng.randint(0, 1)):
            a = rng.randrange(0, len(rows[k]) // 2)
            pattern = (rng.choice(("01", "011", "0")) * 40)[: len(rows[k]) // 3]
            rows[k] = rows[k][:a] + pattern + rows[k][a + len(pattern) :]
        w = window_from_rows(rows)
        assert outcome(aperiodicize, w) == outcome(naive_aperiodicize, w)
        placed = w
        for k in range(1, depth + 1):
            if placed.width > 2 * k + 1:
                placed = place_krieger(placed, k, k)
        sched = MarkerSchedule(tuple(range(1, depth + 1)), (1,) * depth)
        assert outcome(upward_adjust, placed) == outcome(naive_upward_adjust, placed)
        adjusted = upward_adjust(placed)
        assert outcome(subdivide_balance, adjusted, sched) == outcome(
            naive_subdivide_balance, adjusted, sched
        )


# ---------------------------------------------------------------------------
# periodic stretches: the sampled scan and the sweep against the full scans


def planted(row, at, length, pattern):
    """row with `pattern` repeated over columns at..at+length-1."""
    block = (pattern * (length // len(pattern) + 1))[:length]
    return row[:at] + block + row[at + length :]


@st.composite
def stretch_windows(draw):
    """Windows of width 1-80 and depth 1-3: random rows, often with one block
    planted at a common offset in every row (periods 1-8, their own pattern
    per row) and markers repeating with the block's period."""
    width = draw(st.integers(1, 80))
    depth = draw(st.integers(1, 3))
    rows = [draw(st.text("01", min_size=width, max_size=width)) for _ in range(depth)]
    markers = [
        draw(st.lists(st.integers(0, width - 1), max_size=width // 3 + 1, unique=True))
        for _ in range(depth)
    ]
    if draw(st.booleans()):
        q = draw(st.integers(1, 8))
        at = draw(st.integers(0, width - 1))
        length = draw(st.integers(1, width - at))
        for r in range(depth):
            rows[r] = planted(rows[r], at, length, draw(st.text("01", min_size=q, max_size=q)))
            if draw(st.booleans()):  # markers with the block's period
                phase = draw(st.integers(0, q - 1))
                inside = set(range(at + phase, at + length, q))
                markers[r] = sorted(set(markers[r]) - set(range(at, at + length)) | inside)
    return window_from_rows(rows, markers)


@given(stretch_windows(), st.data())
@settings(max_examples=500, deadline=None)
def test_sampled_scan_matches_full_scan(w, data):
    # min_len and max_period run past the width; with min_len below p (and
    # below 2p) runs of every length are reported, down to a single pair
    depth = data.draw(st.integers(1, w.depth))
    max_period = data.draw(st.integers(1, w.width + 2))
    min_len = data.draw(st.integers(0, w.width + 2))
    assert periodic_stretches(w, depth, max_period, min_len) == naive_periodic_stretches(
        w, depth, max_period, min_len
    )


@given(stretch_windows(), st.data())
@settings(max_examples=300, deadline=None)
def test_sweep_placement_matches_column_map(w, data):
    row = data.draw(st.integers(1, w.depth))
    n = data.draw(st.integers(1, max(1, w.width // 2)))
    assert outcome(place_krieger, w, row, n) == outcome(naive_place_krieger, w, row, n)


def test_scan_and_sweep_match_on_seeded_windows():
    rng = random.Random(53)
    reported = 0
    for _ in range(200):
        width = rng.choice((12, 40, 80, 160, 400))
        depth = rng.randint(1, 4)
        rows = [rand_row(rng, width) for _ in range(depth)]
        for _ in range(rng.randint(0, 3)):  # overlapping plants of periods 1-9
            at = rng.randrange(width)
            length = rng.randint(1, width - at)
            pattern = rand_row(rng, rng.randint(1, 9))
            for r in range(rng.randint(1, depth)):
                rows[r] = planted(rows[r], at, length, pattern)
        markers = [sorted(rng.sample(range(width), rng.randint(0, width // 4))) for _ in range(depth)]
        w = window_from_rows(rows, markers)
        for d in range(1, depth + 1):
            for max_period, min_len in ((d + 1, 2 * d + 3), (rng.randint(1, 12), rng.randint(0, 30))):
                got = periodic_stretches(w, d, max_period, min_len)
                assert got == naive_periodic_stretches(w, d, max_period, min_len)
                reported += len(got)
            n = rng.randint(1, 12)
            assert outcome(place_krieger, w, d, n) == outcome(naive_place_krieger, w, d, n)
        placed = w
        for k in range(1, depth + 1):
            if placed.width > 2 * k + 1:
                assert outcome(place_krieger, placed, k, k) == outcome(naive_place_krieger, placed, k, k)
                placed = place_krieger(placed, k, k)
    assert reported > 1000  # the plants make the scans report stretches


# ---------------------------------------------------------------------------
# place_krieger


def test_krieger_gaps_on_aperiodic_row():
    rng = random.Random(2)
    w = random_aperiodic_window(rng, 100, 1, 10)
    out = place_krieger(w, 1, 10)
    report = verify_invariants(out, ("A",), gap_bounds={1: (10, 21)})
    assert report.verdict("A").passed
    assert not out.flags


def test_krieger_constant_row_single_flagged_gap():
    w = window_from_rows(["0" * 60])
    out = place_krieger(w, 1, 5)
    assert len(out.flags) == 1
    assert out.flags[0].period == 1
    assert not out.row_markers(1)  # the whole window is one long stretch


def test_krieger_periodic_middle_block():
    rng = random.Random(3)
    left = random_aperiodic_window(rng, 18, 1, 6).rows[0]
    right = random_aperiodic_window(rng, 18, 1, 6).rows[0]
    w = window_from_rows([left + "01" * 12 + right])
    out = place_krieger(w, 1, 6)
    assert len(out.flags) == 1
    flag = out.flags[0]
    assert flag.period == 2
    # normal gaps outside the stretch stay within [6, 13]
    exempt = {(flag.lo, flag.hi)}
    for a, b, p in out.interior_gaps(1):
        if (a, b) in exempt:
            assert p > 13
        else:
            assert 6 <= p <= 13


def test_krieger_narrow_window_rejected():
    with pytest.raises(ArgumentError):
        place_krieger(window_from_rows(["0101"]), 1, 5)


# ---------------------------------------------------------------------------
# upward adjustment


def test_upward_adjust_nearest_right():
    w = window_from_rows(["0" * 40, "0" * 40], [[0, 10, 20, 30], [3, 17]])
    out = upward_adjust(w)
    assert out.row_markers(2) == (10, 20)


def test_upward_adjust_idempotent_and_nested():
    rng = random.Random(11)
    for _ in range(30):
        rows = [rand_row(rng, 80) for _ in range(3)]
        markers = [
            sorted(rng.sample(range(80), rng.randint(2, 10))) for _ in range(3)
        ]
        w = window_from_rows(rows, markers)
        once = upward_adjust(w)
        twice = upward_adjust(once)
        assert once == twice
        assert verify_invariants(once, ("B",)).verdict("B").passed


def test_upward_adjust_drops_unanchored_marker():
    w = window_from_rows(["0" * 20, "0" * 20], [[2], [10]])
    out = upward_adjust(w)
    assert out.row_markers(2) == ()
    assert any("dropped" in n for n in out.notes)


def test_adjustment_displacement_bound():
    # displacement of each row-k marker is at most n_1 + ... + n_{k-1}
    rng = random.Random(5)
    sched = MarkerSchedule((4, 12, 40))
    for _ in range(20):
        w = random_aperiodic_window(rng, 400, 3, 4)
        for k, n in enumerate(sched.n, start=1):
            w = place_krieger(w, k, n)
        out = upward_adjust(w)
        for k in (2, 3):
            before = set(w.row_markers(k))
            after = set(out.row_markers(k))
            for c in before:
                moved = min((a for a in after if a >= c), default=None)
                if moved is not None:
                    assert moved - c <= sched.displacement_bound(k)
        assert verify_invariants(out, ("B",)).verdict("B").passed


# ---------------------------------------------------------------------------
# decompose and subdivide


def test_decompose_examples():
    assert decompose_gap(12, 3) == (4, 0)
    assert decompose_gap(13, 3) == (3, 1)
    assert decompose_gap(7, 2) == (2, 1)


@given(st.integers(1, 40), st.integers(0, 10**4))
@settings(max_examples=300, deadline=None)
def test_decompose_maximal(m, p):
    # oracle: exhaustive over b
    feasible = [
        ((p - b * (m + 1)) // m, b)
        for b in range(0, p // (m + 1) + 1)
        if (p - b * (m + 1)) % m == 0 and p - b * (m + 1) >= 0
    ]
    if not feasible:
        with pytest.raises(ArgumentError):
            decompose_gap(p, m)
        return
    a, b = decompose_gap(p, m)
    assert a * m + b * (m + 1) == p
    assert a == max(x for x, _ in feasible)
    if p >= m * (m + 1):
        assert feasible  # guaranteed solvable region


def test_subdivide_single_row_gap_13():
    w = window_from_rows(["0" * 14], [[0, 13]])
    out = subdivide_balance(w, MarkerSchedule((99,), (3,)))
    gaps = [p for _, _, p in out.interior_gaps(1)]
    assert gaps == [3, 3, 3, 4]


def test_subdivide_idle_when_gap_equals_base():
    w = window_from_rows(["0" * 13], [[0, 12]])
    out = subdivide_balance(w, MarkerSchedule((99,), (3,)))
    assert out.row_markers(1) == (0, 3, 6, 9, 12)
    w2 = window_from_rows(["0" * 4], [[0, 3]])
    out2 = subdivide_balance(w2, MarkerSchedule((99,), (3,)))
    assert out2.row_markers(1) == (0, 3)


def test_subdivide_two_row_bracket():
    # m = (5, 40): post-subdivision row-2 gaps lie in [34, 47]
    sched = MarkerSchedule((30, 1640), (5, 40))
    assert sched.subdivided_bounds(2) == (34, 47)
    assert Fraction(34, 47) == Fraction(40 - 5 - 1, 41 + 5 + 1)
    rng = random.Random(17)
    w = random_aperiodic_window(rng, 4000, 2, 8)
    w = place_krieger(w, 1, 30)
    w = place_krieger(w, 2, 1640)
    w = upward_adjust(w)
    out = subdivide_balance(w, sched)
    lo1, hi1 = sched.subdivided_bounds(1)
    for _, _, p in out.interior_gaps(1):
        assert lo1 <= p <= hi1
    lo2, hi2 = sched.subdivided_bounds(2)
    row2 = [p for _, _, p in out.interior_gaps(2)]
    assert row2 and all(lo2 <= p <= hi2 for p in row2)
    assert min(Fraction(min(row2), max(row2)), Fraction(1)) >= Fraction(34, 47)


def test_subdivide_precondition_error():
    w = window_from_rows(["0" * 10], [[0, 5]])
    with pytest.raises(ArgumentError):
        subdivide_balance(w, MarkerSchedule((99,), (3,)))  # 5 < 3*4


# ---------------------------------------------------------------------------
# periodic markers / stretches


def test_periodic_markers_fill_flagged_gap():
    # hand-built: row 6 flags a 2-periodic stretch, row 2 starts empty
    from dataclasses import replace
    from symdyn.markers import LongGapFlag

    w = window_from_rows(["01" * 20] * 6, [[], [], [], [], [], [2, 36]])
    w = replace(w, flags=(LongGapFlag(6, 2, 36, 2),))
    out = periodic_markers(w, 6)
    added = out.row_markers(2)
    assert added == tuple(range(3, 37, 2))  # canonical phase: least offset


def test_periodic_markers_no_insertion_when_row_p_marked():
    # the same flag with row 2 already periodically marked: the skip rule
    # drops every insertion
    from dataclasses import replace
    from symdyn.markers import LongGapFlag

    w = window_from_rows(
        ["01" * 20] * 6,
        [[], [i for i in range(0, 40, 2)], [], [], [], [2, 36]],
    )
    w = replace(w, flags=(LongGapFlag(6, 2, 36, 2),))
    out = periodic_markers(w, 6)
    assert out.row_markers(2) == w.row_markers(2)


def test_periodic_markers_pipeline_skips_krieger_filled_row():
    rng = random.Random(23)
    base = random_aperiodic_window(rng, 90, 6, 6)
    rows = list(base.rows)
    # plant a 2-periodic block across columns 30..59 in every row
    for k in range(6):
        pattern = ("01" * 30)[: len(rows[k])]
        rows[k] = rows[k][:30] + pattern[30:60] + rows[k][60:]
    w = window_from_rows(rows)
    for k in range(1, 7):
        w = place_krieger(w, k, k)
    flags6 = [f for f in w.flags if f.row == 6]
    assert flags6 and flags6[0].period == 2
    before = set(w.row_markers(2))  # Krieger filled row 2 densely already
    out = periodic_markers(w, 6)
    assert set(out.row_markers(2)) == before


def test_periodic_markers_unflagged_long_gap_is_error():
    w = window_from_rows(["0" * 40] * 3, [[], [], [0, 30]])
    with pytest.raises(ConstructionError):
        periodic_markers(w, 3)


def test_upward_stretch_unblocked():
    w = window_from_rows(["0" * 100] * 5, [[], [], [], [], [50]])
    out = upward_stretch(w)
    for k in range(1, 5):
        assert out.row_markers(k) == (50,)


def test_upward_stretch_blocked_by_nearby_marker():
    w = window_from_rows(["0" * 100] * 5, [[], [], [48], [], [50]])
    out = upward_stretch(w)
    assert out.row_markers(4) == (50,)
    assert 50 not in out.row_markers(3)
    assert out.row_markers(2) == (48,)
    assert out.row_markers(1) == (48,)


def test_upward_stretch_idempotent_on_full_rows():
    w = window_from_rows(["0" * 30] * 3, [list(range(0, 30, 2))] * 3)
    assert upward_stretch(w) == w


def test_leftward_stretch_single_marker():
    w = window_from_rows(["0" * 31] * 3, [[], [], [30]])
    out = leftward_stretch(w)
    assert out.row_markers(3) == tuple(range(0, 31, 3))
    gaps = [p for _, _, p in out.interior_gaps(3)]
    assert set(gaps) == {3}


def test_leftward_stretch_stops_near_existing():
    w = window_from_rows(["0" * 32] * 3, [[], [], [10, 31]])
    out = leftward_stretch(w)
    # copies from 31 run 28, 25, ..., 13; 13 sits exactly 3 from 10 (not < 3)
    assert 13 in out.row_markers(3)
    assert 12 not in out.row_markers(3) and 11 not in out.row_markers(3)
    gaps = [p for _, _, p in out.interior_gaps(3)]
    assert all(3 <= p <= 5 for p in gaps)


def test_full_pipeline_intrusion_shape():
    # an array periodic in its top rows with an aperiodic deepest row:
    # stretching creates at most one oversize gap per row next to the
    # intrusion, all other interior gaps within [k, 2k-1]
    rng = random.Random(31)
    depth = 6
    base = random_aperiodic_window(rng, 120, depth, depth)
    rows = list(base.rows)
    for k in range(depth - 1):
        rows[k] = ("01" * 60)[:120]
    w = window_from_rows(rows)
    out = aperiodicize(w)
    report = verify_invariants(out, ("E",), max_long_per_row=1)
    assert report.verdict("E").passed


def test_pipeline_on_random_aperiodic_windows():
    rng = random.Random(37)
    for _ in range(10):
        w = random_aperiodic_window(rng, 150, 4, 4)
        out = aperiodicize(w)
        rep = verify_invariants(out, ("D", "E"), max_long_per_row=1)
        assert rep.verdict("D").passed
        assert rep.verdict("E").passed


def test_verifier_reports_witness():
    w = window_from_rows(["0" * 40], [[0, 25]])
    rep = verify_invariants(w, ("A",), gap_bounds={1: (5, 11)})
    assert not rep.verdict("A").passed
    assert rep.verdict("A").witnesses == ((1, 0, 25),)


def test_determinism():
    rng = random.Random(41)
    w = random_aperiodic_window(rng, 200, 3, 3)
    assert aperiodicize(w) == aperiodicize(w)


def test_wrap_boundary_gap_arithmetic():
    w = window_from_rows(["0" * 20], [[2, 9, 15]], boundary="periodic-wrap")
    gaps = w.interior_gaps(1)
    assert gaps[-1] == (15, 2, 7)  # cyclic gap across the seam
    with pytest.raises(ArgumentError):
        place_krieger(w, 1, 3)


def test_every_pass_refuses_a_wrap_window():
    # across the seam column 2 is right of the row-2 marker at 15, so the
    # open-boundary drop of upward_adjust would be wrong here
    w = window_from_rows(["0" * 20] * 2, [[2, 9], [15]], boundary="periodic-wrap")
    passes = (
        upward_adjust,
        upward_stretch,
        leftward_stretch,
        lambda v: place_krieger(v, 1, 3),
        lambda v: periodic_markers(v, 2),
        lambda v: subdivide_balance(v, MarkerSchedule((), (3, 3))),
    )
    for run in passes:
        with pytest.raises(ArgumentError, match="^marker passes require an open boundary$"):
            run(w)


def naive_window_refusal(rows, markers):
    """The per-column marker check ArrayWindow made before it compared ends."""
    W = len(rows[0])
    for ms in markers:
        if list(ms) != sorted(set(ms)):
            return "marker sets must be sorted and duplicate-free"
        if any(not (0 <= c < W) for c in ms):
            return "marker column out of range"
    return None


def test_window_marker_checks_match_the_per_column_scan():
    rng = random.Random(53)
    seen = set()
    for _ in range(3000):
        width, depth = rng.randint(1, 12), rng.randint(1, 3)
        rows = tuple("0" * width for _ in range(depth))
        markers = tuple(
            tuple(rng.randint(-2, width + 1) for _ in range(rng.randint(0, 4)))
            for _ in range(depth)
        )
        try:
            ArrayWindow(rows, markers)
            got = None
        except ArgumentError as exc:
            got = str(exc)
        assert got == naive_window_refusal(rows, markers), markers
        seen.add(got)
    assert len(seen) == 3  # accepted, and both refusals


def test_c_ratio_rule():
    sched = MarkerSchedule((99,), (4,))
    w = window_from_rows(["0" * 41], [[0, 19, 40]])
    out = subdivide_balance(w, sched)
    gaps = [p for _, _, p in out.interior_gaps(1)]
    assert set(gaps) == {4, 5}
    rep = verify_invariants(out, ("C-ratio",), ratio_target=Fraction(4, 5))
    assert rep.verdict("C-ratio").passed
    rep_tight = verify_invariants(out, ("C-ratio",), ratio_target=Fraction(99, 100))
    assert not rep_tight.verdict("C-ratio").passed


def test_schedule_separation_check():
    MarkerSchedule((5, 33)).check_separated()  # 33 >= 3*(2*5+1)
    with pytest.raises(ArgumentError):
        MarkerSchedule((5, 32)).check_separated()
