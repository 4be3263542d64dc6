"""Marker calculus on finite array windows.

A window holds K rows of symbols of common width W plus per-row marker
column sets.  All passes are pure: they return a new window.  Row numbers
are 1-based throughout, matching the usual array-system convention that
row k carries markers with gaps on the order of k (or n_k).

The gap between neighboring markers at columns i < j is the interval
(i, j] and has length j - i.  Under an open boundary, the stretches before
the first and after the last marker of a row are boundary gaps and are
excluded from all invariant checks.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import lt

from .errors import ArgumentError, ConstructionError

OPEN = "open"
WRAP = "periodic-wrap"


@dataclass(frozen=True)
class LongGapFlag:
    """A sanctioned long gap: columns (lo, hi] in `row` match a period-p pattern."""

    row: int
    lo: int
    hi: int
    period: int


@dataclass(frozen=True)
class ArrayWindow:
    rows: tuple  # tuple of equal-length strings
    markers: tuple  # tuple of sorted tuples of column indices
    boundary: str = OPEN
    flags: tuple = ()
    notes: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if not self.rows:
            raise ArgumentError("window needs at least one row")
        W = len(self.rows[0])
        if any(len(r) != W for r in self.rows):
            raise ArgumentError("all rows must have the same width")
        if len(self.markers) != len(self.rows):
            raise ArgumentError("one marker set per row required")
        for ms in self.markers:
            if not all(map(lt, ms, ms[1:])):
                raise ArgumentError("marker sets must be sorted and duplicate-free")
            if ms and not (0 <= ms[0] and ms[-1] < W):  # sorted: the ends bound the rest
                raise ArgumentError("marker column out of range")
        if self.boundary not in (OPEN, WRAP):
            raise ArgumentError(f"unknown boundary policy {self.boundary!r}")

    @property
    def width(self) -> int:
        return len(self.rows[0])

    @property
    def depth(self) -> int:
        return len(self.rows)

    def row_markers(self, k: int) -> tuple:
        return self.markers[k - 1]

    def with_markers(self, k: int, cols) -> "ArrayWindow":
        new = list(self.markers)
        new[k - 1] = tuple(sorted(set(cols)))
        return replace(self, markers=tuple(new))

    def with_note(self, note: str) -> "ArrayWindow":
        return replace(self, notes=self.notes + (note,))

    def interior_gaps(self, k: int):
        """(start, end, length) per gap; cyclic when the boundary wraps."""
        ms = self.row_markers(k)
        out = []
        for a, b in zip(ms, ms[1:]):
            out.append((a, b, b - a))
        if self.boundary == WRAP and len(ms) >= 2:
            a, b = ms[-1], ms[0]
            out.append((a, b, b + self.width - a))
        return out


def window_from_rows(rows, markers=None, boundary=OPEN) -> ArrayWindow:
    rows = tuple(rows)
    if markers is None:
        markers = tuple(() for _ in rows)
    else:
        markers = tuple(tuple(sorted(set(m))) for m in markers)
    return ArrayWindow(rows, markers, boundary)


@dataclass(frozen=True)
class MarkerSchedule:
    """Per-row Krieger parameters n_k and subdivision bases m_k."""

    n: tuple
    m: tuple = ()

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.n, self.n[1:])):
            raise ArgumentError("n_k must be strictly increasing")

    def check_separated(self) -> None:
        """n_{k+1} >= 3(2 n_k + 1): rows code independently enough to recode."""
        for a, b in zip(self.n, self.n[1:]):
            if b < 3 * (2 * a + 1):
                raise ArgumentError(f"schedule too tight: {b} < 3*(2*{a}+1)")

    def displacement_bound(self, k: int) -> int:
        return sum(self.n[: k - 1])

    def subdivided_bounds(self, k: int) -> tuple:
        """Gap bounds after subdividing row k and adjusting upward."""
        if not self.m or k > len(self.m):
            raise ArgumentError("schedule has no subdivision base for this row")
        drift = sum(self.m[: k - 1]) + (k - 1)
        return self.m[k - 1] - drift, self.m[k - 1] + 1 + drift


# ---------------------------------------------------------------------------
# periodicity detection


def periodic_stretches(w: ArrayWindow, depth: int, max_period: int, min_len: int):
    """Maximal intervals (a, b, p): top-`depth` rows are p-periodic on [a, b].

    Periods below row `depth` count markers as part of the pattern (rows
    1..depth-1); row `depth` contributes symbols only, since its markers are
    the ones being placed.  Only stretches longer than min_len columns are
    reported; intervals for different periods may overlap and are kept
    separate, since a union of two patterns need not be periodic itself.

    For each p the stretches are the maximal runs of positions i with
    column i equal to column i+p; a run of r positions spans r+p columns, so
    it is reported exactly when r >= m = max(1, min_len - p + 1).  The scan
    tests only every m-th position and extends each match both ways to its
    maximal run, so it misses no reported run: the samples start at m-1 and
    step by m, and after a run that ends at the mismatch j they go on at j+m;
    every later run starts after j, so any m consecutive positions of it
    hold a sample.
    """
    W = w.width
    mask = [0] * W  # bit r set: row r+1 (of rows 1..depth-1) has a marker here
    for r in range(depth - 1):
        for c in w.markers[r]:
            mask[c] |= 1 << r
    cols = list(zip(mask, *w.rows[:depth]))
    out = []
    for p in range(1, min(max_period, W)):
        m = max(1, min_len - p + 1)
        end = W - p  # positions i < end compare column i with column i+p
        j = m - 1
        while j < end:
            if cols[j] != cols[j + p]:
                j += m
                continue
            start = j
            while start > 0 and cols[start - 1] == cols[start - 1 + p]:
                start -= 1
            j += 1
            while j < end and cols[j] == cols[j + p]:
                j += 1
            if j - start >= m:  # columns start..j-1+p are p-periodic
                out.append((start, j - 1 + p, p))
            j += m
    out.sort()
    return out


# ---------------------------------------------------------------------------
# passes


def _anchor(cols, c):
    """The least column of sorted `cols` at or right of c, or None."""
    i = bisect_left(cols, c)
    return cols[i] if i < len(cols) else None


def _clear(cols, c: int, d: int) -> bool:
    """Whether every column of sorted `cols` lies at least d away from c."""
    i = bisect_left(cols, c)
    return (i == len(cols) or cols[i] - c >= d) and (i == 0 or c - cols[i - 1] >= d)


def _require_open(w: ArrayWindow) -> None:
    if w.boundary != OPEN:
        raise ArgumentError("marker passes require an open boundary")


def _flagged_spans(w: ArrayWindow, k: int):
    return {(f.lo, f.hi) for f in w.flags if f.row == k}


def place_krieger(w: ArrayWindow, row: int, n: int) -> ArrayWindow:
    """Greedy marker placement in `row` with interior gaps in [n, 2n+1].

    Stretches of the top-`row` rows that match a period-p pattern with
    p < n and exceed 2n+1 columns receive no markers: a single long gap is
    left across each and flagged with its period.  Any marker arrangement
    with these gap bounds realizes the clopen-set placement; the greedy
    left-to-right rule fixes one deterministically.
    """
    _require_open(w)
    if not (1 <= row <= w.depth):
        raise ArgumentError(f"row {row} out of range")
    if w.width <= 2 * n + 1:
        raise ArgumentError(f"window of width {w.width} too narrow for n={n}")
    stretches = periodic_stretches(w, row, n, 2 * n + 1)  # sorted by (a, b, p)
    cols = []
    flags = []
    last = None  # column of the previous marker, None before the first
    s = 0  # stretches[:s] start at or left of column i
    reach = None  # the first of stretches[:s] reaching furthest right
    i = 0
    W = w.width
    while i < W:
        while s < len(stretches) and stretches[s][0] <= i:
            if reach is None or stretches[s][1] > reach[1]:
                reach = stretches[s]
            s += 1
        if reach is not None and reach[1] >= i:  # i is blocked: reach covers it
            a, b, p = reach
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


def upward_adjust(w: ArrayWindow) -> ArrayWindow:
    """Align each row-k marker (k >= 2) with the nearest row-(k-1) marker to
    its right; row 1 is untouched.  Rows are processed top down so that
    alignment is against already-adjusted markers.  Markers with no
    candidate to their right are dropped with a boundary note.
    """
    _require_open(w)
    cur = w
    notes = []
    flags = list(w.flags)
    for k in range(2, w.depth + 1):
        above = cur.row_markers(k - 1)
        relocation = {c: _anchor(above, c) for c in cur.row_markers(k)}
        notes += [
            f"row {k}: marker at {c} dropped (no anchor to the right)"
            for c, target in relocation.items()
            if target is None
        ]
        cur = cur.with_markers(k, [t for t in relocation.values() if t is not None])
        # flagged long gaps follow their bounding markers
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
    flags = tuple(f for f in flags if f is not None)
    return replace(cur, flags=flags, notes=cur.notes + tuple(notes))


def decompose_gap(p: int, m: int) -> tuple:
    """(a, b) with a*m + b*(m+1) = p, a maximal; guaranteed when p >= m(m+1)."""
    if m < 1 or p < 0:
        raise ArgumentError("decompose_gap requires m >= 1, p >= 0")
    b = p % m
    while b * (m + 1) <= p:
        a, rem = divmod(p - b * (m + 1), m)
        if rem == 0:
            return a, b
        b += m
    raise ArgumentError(f"no decomposition of {p} as a*{m} + b*{m + 1}")


def subdivide_balance(w: ArrayWindow, schedule: MarkerSchedule) -> ArrayWindow:
    """Split every row-k gap into blocks of m_k then m_k+1 and re-adjust.

    Each gap of length p becomes a(p) blocks of length m_k followed by b(p)
    blocks of length m_k+1; new markers in rows k >= 2 are then aligned to
    the (already subdivided) row above.  Resulting row-k gaps lie within
    schedule.subdivided_bounds(k) away from window boundaries.
    """
    _require_open(w)
    if not schedule.m or len(schedule.m) < w.depth:
        raise ArgumentError("schedule must provide m_k for every row")
    cur = w
    for k in range(1, w.depth + 1):
        m = schedule.m[k - 1]
        new_cols = []
        for a, b, p in cur.interior_gaps(k):
            # gaps of length >= m(m+1) always decompose; shorter ones only
            # sometimes, so solvability itself is the checked precondition
            try:
                na, nb = decompose_gap(p, m)
            except ArgumentError:
                raise ArgumentError(
                    f"row {k} gap ({a}, {b}] of length {p} has no a*{m}+b*{m + 1} split"
                )
            pos = a
            for _ in range(na):
                pos += m
                new_cols.append(pos)
            for _ in range(nb):
                pos += m + 1
                new_cols.append(pos)
            new_cols.pop()  # the last landing point is the existing marker at b
        if k > 1:
            above = cur.row_markers(k - 1)
            anchored = []
            for c in new_cols:
                target = _anchor(above, c)
                if target is None:
                    cur = cur.with_note(
                        f"row {k}: subdivision marker at {c} dropped (no anchor)"
                    )
                else:
                    anchored.append(target)
            new_cols = anchored
        cur = cur.with_markers(k, cur.row_markers(k) + tuple(new_cols))
    return cur


def periodic_markers(w: ArrayWindow, row: int) -> ArrayWindow:
    """Fill flagged long row-`row` gaps with period markers in row p.

    Inside each flagged gap whose pattern has period p, markers go one
    every p columns starting at the canonical phase (the least column of
    the gap interior), skipping insertions closer than p to markers already
    present in row p.
    """
    _require_open(w)
    flagged = [f for f in w.flags if f.row == row]
    flagged_spans = _flagged_spans(w, row)
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
        existing = list(cur.row_markers(p))
        for c in range(f.lo + 1, f.hi + 1, p):
            if _clear(existing, c, p):
                insort(existing, c)
        cur = cur.with_markers(p, existing)
    return cur


def upward_stretch(w: ArrayWindow) -> ArrayWindow:
    """Copy each row-k marker to rows k-1, k-2, ... until blocked.

    Copying into row l stops (and does not place) when the column would land
    within l positions of an existing row-l marker; otherwise it continues
    up to row 1.  Source rows are processed deepest first, columns left to
    right, against the current (growing) marker sets.
    """
    _require_open(w)
    marks = [list(ms) for ms in w.markers]
    for k in range(w.depth, 1, -1):
        for c in w.row_markers(k):
            for l in range(k - 1, 0, -1):
                if not _clear(marks[l - 1], c, l + 1):
                    break
                insort(marks[l - 1], c)
    return replace(w, markers=tuple(map(tuple, marks)))


def leftward_stretch(w: ArrayWindow) -> ArrayWindow:
    """Copy each row-k marker leftward in steps of k until near another marker.

    From a marker at column i, copies land at i-k, i-2k, ... and stop
    before any candidate that would fall within less than k of an existing
    row-k marker, or past the window edge.  Markers are processed left to
    right against the growing set.
    """
    _require_open(w)
    marks = [list(ms) for ms in w.markers]
    for k in range(1, w.depth + 1):
        for i in w.row_markers(k):
            c = i - k
            while c >= 0 and _clear(marks[k - 1], c, k):
                insort(marks[k - 1], c)
                c -= k
    return replace(w, markers=tuple(map(tuple, marks)))


def aperiodicize(w: ArrayWindow) -> ArrayWindow:
    """The full pass chain: Krieger rows (n = k), period markers, stretches."""
    cur = w
    for k in range(1, w.depth + 1):
        cur = place_krieger(cur, k, k) if cur.width > 2 * k + 1 else cur
    for k in range(2, w.depth + 1):
        cur = periodic_markers(cur, k)
    cur = upward_stretch(cur)
    cur = leftward_stretch(cur)
    return cur


# ---------------------------------------------------------------------------
# invariant verification


@dataclass(frozen=True)
class RuleVerdict:
    rule: str
    passed: bool
    witnesses: tuple = ()  # (row, column, gap-length) triples
    detail: str = ""


@dataclass(frozen=True)
class MarkerInvariantReport:
    verdicts: tuple

    def verdict(self, rule: str) -> RuleVerdict:
        for v in self.verdicts:
            if v.rule == rule:
                return v
        raise ArgumentError(f"no verdict for rule {rule!r}")

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def verify_invariants(
    w: ArrayWindow,
    rules,
    gap_bounds=None,
    ratio_target: Fraction | None = None,
    max_long_per_row: int = 1,
) -> MarkerInvariantReport:
    """Check the requested marker rules on the window interior.

    rules: subset of {"A", "B", "C-ratio", "D", "E"}.
      A: per-row gap lengths within gap_bounds[k] = (lo, hi); flagged long
         gaps are exempt.  gap_bounds maps row -> (lo, hi).
      B: every row-k marker sits on a row-(k-1) marker (nesting).
      C-ratio: per-row min/max interior gap ratio >= ratio_target.
      D: every row not deeper than the deepest marked row has a marker.
      E: row-k gaps within [k, 2k-1]; at most max_long_per_row longer gaps
         per row are tolerated (stretching intrusions), shorter never.
    """
    verdicts = []
    for rule in rules:
        witnesses = []
        detail = ""
        if rule == "A":
            if gap_bounds is None:
                raise ArgumentError("rule A needs explicit gap bounds")
            for k in range(1, w.depth + 1):
                if k not in gap_bounds:
                    continue
                lo, hi = gap_bounds[k]
                exempt = _flagged_spans(w, k)
                for a, b, p in w.interior_gaps(k):
                    if (a, b) in exempt:
                        continue
                    if not (lo <= p <= hi):
                        witnesses.append((k, a, p))
        elif rule == "B":
            for k in range(2, w.depth + 1):
                above = set(w.row_markers(k - 1))
                for c in w.row_markers(k):
                    if c not in above:
                        witnesses.append((k, c, 0))
        elif rule == "C-ratio":
            if ratio_target is None:
                raise ArgumentError("rule C-ratio needs a target ratio")
            ratios = []
            for k in range(1, w.depth + 1):
                gaps = [p for _, _, p in w.interior_gaps(k)]
                if gaps:
                    ratios.append(Fraction(min(gaps), max(gaps)))
                    if ratios[-1] < ratio_target:
                        witnesses.append((k, min(gaps), max(gaps)))
            detail = "ratios per row: " + ", ".join(str(r) for r in ratios)
        elif rule == "D":
            deepest = max(
                (k for k in range(1, w.depth + 1) if w.row_markers(k)), default=0
            )
            for k in range(1, deepest):
                if not w.row_markers(k):
                    witnesses.append((k, -1, 0))
        elif rule == "E":
            for k in range(1, w.depth + 1):
                if not w.row_markers(k):
                    continue
                long_count = 0
                for a, b, p in w.interior_gaps(k):
                    if p < k:
                        witnesses.append((k, a, p))
                    elif p > 2 * k - 1:
                        long_count += 1
                        if long_count > max_long_per_row:
                            witnesses.append((k, a, p))
                if long_count:
                    detail += f"row {k}: {long_count} gap(s) above 2k-1; "
        else:
            raise ArgumentError(f"unknown rule {rule!r}")
        verdicts.append(RuleVerdict(rule, not witnesses, tuple(witnesses), detail))
    return MarkerInvariantReport(tuple(verdicts))
