"""Prefix-allocated block families over a rectangle hierarchy, plus the
embedding selector, strip systems, and Hall matching of strips to words.

The construction proceeds level by level: level-1 rectangles get cylinder
families from a prefix partition of the alphabet power, deeper rectangles
refine concatenations of their children's families by fixing initial free
positions.  Budgets come from an oracle table whose values are normalized
to alphabet powers first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .entropy import EntropyValue
from .errors import ArgumentError, ConstructionError
from .sft import PeriodicOrbit, Word, necklace, rotations


# ---------------------------------------------------------------------------
# prefix allocation (canonical Kraft construction)


def _digits(value: int, base: int, width: int) -> tuple:
    out = []
    for _ in range(width):
        value, d = divmod(value, base)
        out.append(d)
    if value:
        raise ConstructionError("prefix index overflow")
    return tuple(reversed(out))


def prefix_allocate(s: int, n: int, exponents) -> tuple:
    """Disjoint cylinders [C_i] of sizes s**n_i inside the s**n cube, as
    (prefix, n_i) pairs: the prefix a tuple of digit ints.

    Sorts the requested exponents descending, packs cylinders left to right
    (each start index is automatically aligned), and reports the pairs in
    the original request order.  Raises with the deficit when the sizes violate
    the packing inequality.
    """
    if s < 2 or n < 0:
        raise ArgumentError("need alphabet size >= 2 and length >= 0")
    exponents = list(exponents)
    if any(e < 0 or e > n for e in exponents):
        raise ArgumentError("every exponent must lie in [0, n]")
    total = sum(s**e for e in exponents)
    if total > s**n:
        raise ArgumentError(
            f"cylinder sizes sum to {total} > {s**n}: deficit {total - s**n}"
        )
    order = sorted(range(len(exponents)), key=lambda i: -exponents[i])
    start = 0
    prefixes = [None] * len(exponents)
    for i in order:
        e = exponents[i]
        size = s**e
        assert start % size == 0  # descending packing keeps starts aligned
        prefixes[i] = _digits(start // size, s, n - e)
        start += size
    return tuple((p, exponents[i]) for i, p in enumerate(prefixes))


# ---------------------------------------------------------------------------
# rectangle hierarchy and oracle


@dataclass(frozen=True)
class Rectangle:
    """Level-1: a word; level k >= 2: ordered children plus a bottom block."""

    rect_id: str
    level: int
    word: Word | None = None  # level 1 only
    children: tuple = ()  # level >= 2: child rectangle ids
    bottom: Word | None = None  # level >= 2


@dataclass(frozen=True)
class RectangleHierarchy:
    alphabet_size: int
    rects: tuple  # all rectangles, all levels

    def __post_init__(self):
        if not self.rects:
            raise ArgumentError("a hierarchy needs at least one rectangle")
        ids = [r.rect_id for r in self.rects]
        if len(set(ids)) != len(ids):
            raise ArgumentError("duplicate rectangle id")
        by_id = {r.rect_id: r for r in self.rects}
        levels, groups = {}, {}
        for r in sorted(self.rects, key=lambda r: r.level):  # input order within a level
            levels.setdefault(r.level, []).append(r)
            groups.setdefault(r.level, {}).setdefault(r.children, []).append(r)
        for rects in itertools.chain.from_iterable(g.values() for g in groups.values()):
            rects.sort(key=lambda r: r.rect_id)
        object.__setattr__(self, "_by_id", by_id)  # lookup indexes, kept off the fields
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "_groups", groups)
        for r in itertools.chain.from_iterable(levels.values()):  # children before parents
            for block in (r.word, r.bottom):
                if block and max(block) >= self.alphabet_size:
                    raise ArgumentError(
                        f"{r.rect_id}: digit {max(block)} is not below alphabet_size {self.alphabet_size}"
                    )
            if r.level == 1:
                if r.word is None:
                    raise ArgumentError(f"{r.rect_id}: level-1 rectangle needs a word")
                if r.children or r.bottom is not None:
                    raise ArgumentError(f"{r.rect_id}: a level-1 rectangle takes no children or bottom")
            else:
                if r.word is not None:
                    raise ArgumentError(f"{r.rect_id}: a level-{r.level} rectangle takes no word")
                if len(r.children) < 2:
                    raise ArgumentError(
                        f"{r.rect_id}: a level-{r.level} rectangle needs >= 2 children"
                    )
                for c in r.children:
                    if c not in by_id or by_id[c].level != r.level - 1:
                        raise ArgumentError(f"{r.rect_id}: bad child {c!r}")
                if r.bottom is None or len(r.bottom) != self.width(r.rect_id):
                    raise ArgumentError(f"{r.rect_id}: bottom block width mismatch")

    def get(self, rect_id: str) -> Rectangle:
        try:
            return self._by_id[rect_id]
        except KeyError:
            raise ArgumentError(f"unknown rectangle {rect_id!r}") from None

    def level_rects(self, level: int) -> tuple:
        return tuple(self._levels.get(level, ()))  # in input order

    def sibling_groups(self, level: int) -> dict:
        """Child sequence (first listed first) -> its parents at `level`, in id order."""
        return self._groups.get(level, {})

    @property
    def depth(self) -> int:
        return max(self._levels)

    def width(self, rect_id: str) -> int:
        r = self.get(rect_id)
        if r.level == 1:
            return len(r.word)
        return sum(self.width(c) for c in r.children)

    @property
    def base_width(self) -> int:
        """p_min at level 1: the shortest level-1 rectangle."""
        return min(len(r.word) for r in self.level_rects(1))


@dataclass(frozen=True)
class OracleTable:
    """budgets[rect_id] -> positive integer; normalized = powers of s."""

    budgets: dict
    normalized: bool = False

    def budget(self, rect_id: str) -> int:
        try:
            return self.budgets[rect_id]
        except KeyError:
            raise ArgumentError(f"no budget for rectangle {rect_id!r}") from None


def _ceil_log(base: int, x: int) -> int:
    e, v = 0, 1
    while v < x:
        v *= base
        e += 1
    return e


def _exact_log(base: int, x: int) -> int:
    e = _ceil_log(base, x)
    if base**e != x:
        raise ConstructionError(f"{x} is not a power of {base}")
    return e


def verify_oracle(table: OracleTable, s: int, hierarchy: RectangleHierarchy, slack: int = 0):
    """Check the level-1 sum bound and the per-parent product bounds.

    slack: the level-1 bound is s**(base_width - slack); raw tables are
    required to fit with slack 2 so that normalization cannot overflow.
    """
    p1 = hierarchy.base_width
    if p1 - slack < 0:
        raise ArgumentError("level-1 rectangles too short for the requested slack")
    lvl1 = sum(table.budget(r.rect_id) for r in hierarchy.level_rects(1))
    if lvl1 > s ** (p1 - slack):
        raise ConstructionError(
            f"level 1: budgets sum to {lvl1} > {s}**{p1 - slack}"
        )
    for level in range(2, hierarchy.depth + 1):
        for children, rects in hierarchy.sibling_groups(level).items():
            allowed = math.prod(table.budget(c) for c in children)
            used = sum(table.budget(r.rect_id) for r in rects)
            if used > allowed:
                raise ConstructionError(
                    f"level {level}, children {children}: budgets sum to "
                    f"{used} > product {allowed}"
                )


def normalize_oracle(table: OracleTable, s: int, hierarchy: RectangleHierarchy) -> OracleTable:
    """Round every budget up to s**(ceil(log_s budget) + 1) and re-verify.

    The raw table must satisfy the level-1 bound with slack 2; each value
    grows by a factor in [s, s**2] while every parent has at least two
    children, so the product bounds survive.  Verification failure after
    rounding is an error, never silent.
    """
    verify_oracle(table, s, hierarchy, slack=2)
    budgets = {rid: s ** (_ceil_log(s, b) + 1) for rid, b in table.budgets.items()}
    out = OracleTable(budgets, normalized=True)
    verify_oracle(out, s, hierarchy, slack=0)
    return out


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class Family:
    """All words agreeing with `fixed` and free elsewhere on [0, width)."""

    rect_id: str
    width: int
    fixed: tuple  # sorted (position, digit) pairs
    free: tuple  # sorted positions

    def __post_init__(self):
        covered = {p for p, _ in self.fixed} | set(self.free)
        if len({p for p, _ in self.fixed}) + len(self.free) != self.width or covered != set(
            range(self.width)
        ):
            raise ConstructionError(
                f"family for {self.rect_id}: positions must split into fixed and free"
            )

    def size(self, s: int) -> int:
        return s ** len(self.free)


@dataclass(frozen=True)
class FamilyTable:
    families: dict  # rect_id -> Family, level by level in construction order

    def family(self, rect_id: str) -> Family:
        try:
            return self.families[rect_id]
        except KeyError:
            raise ArgumentError(f"no family for rectangle {rect_id!r}") from None


def build_families(hierarchy: RectangleHierarchy, oracle: OracleTable, s: int) -> FamilyTable:
    """Assign disjoint block families matching the normalized oracle budgets.

    Level 1 allocates one prefix partition of the s**p_min cube across all
    level-1 rectangles, padding longer rectangles with terminal zeros.
    Level k fixes initial free positions of the children concatenation, one
    prefix partition per group of rectangles sharing a child sequence.
    """
    if not oracle.normalized:
        raise ArgumentError("build_families needs a normalized oracle")
    p1 = hierarchy.base_width
    lvl1 = hierarchy.level_rects(1)
    exps = [_exact_log(s, oracle.budget(r.rect_id)) for r in lvl1]
    if any(e > p1 for e in exps):
        raise ConstructionError("a level-1 budget exceeds its rectangle capacity")
    families = {}
    for r, (prefix, e) in zip(lvl1, prefix_allocate(s, p1, exps)):
        width = len(r.word)
        fixed = [(i, d) for i, d in enumerate(prefix)]
        fixed += [(i, 0) for i in range(p1, width)]  # terminal padding: zeros
        free = [i for i in range(len(prefix), p1)]
        families[r.rect_id] = Family(r.rect_id, width, tuple(fixed), tuple(free))
    for level in range(2, hierarchy.depth + 1):
        for children, rects in sorted(hierarchy.sibling_groups(level).items()):
            offset = 0
            fixed = []
            free = []
            for c in children:
                child = families[c]
                fixed += [(offset + i, d) for i, d in child.fixed]
                free += [offset + i for i in child.free]
                offset += child.width
            exps = [_exact_log(s, oracle.budget(r.rect_id)) for r in rects]
            if any(e > len(free) for e in exps):
                raise ConstructionError(
                    f"level {level}: a budget exceeds the free positions of {children}"
                )
            for r, (prefix, e) in zip(rects, prefix_allocate(s, len(free), exps)):
                newly_fixed = [(free[i], d) for i, d in enumerate(prefix)]
                still_free = free[len(prefix) :]
                families[r.rect_id] = Family(
                    r.rect_id, offset, tuple(sorted(fixed + newly_fixed)), tuple(still_free)
                )
    return FamilyTable(families)


def embed_selector(rect_path, families: FamilyTable, hierarchy: RectangleHierarchy) -> tuple:
    """The distinguished preimage word for a nested rectangle choice.

    rect_path lists rectangle ids from level 1 up to the top level; each
    entry must be a child of the next.  The result fixes every family
    position of the top rectangle and fills the residual free positions
    with the zero symbol.
    """
    if not rect_path:
        raise ArgumentError("empty rectangle path")
    rects = [hierarchy.get(rid) for rid in rect_path]
    for lv, r in enumerate(rects, start=1):
        if r.level != lv:
            raise ArgumentError(f"{r.rect_id} is at level {r.level}, expected {lv}")
    for child, parent in zip(rects, rects[1:]):
        if child.rect_id not in parent.children:
            raise ArgumentError(f"{child.rect_id} is not a child of {parent.rect_id}")
    fam = families.family(rect_path[-1])
    fixed = dict(fam.fixed)
    return tuple(fixed.get(i, 0) for i in range(fam.width))


# ---------------------------------------------------------------------------
# strips and Hall matching


@dataclass(frozen=True)
class Strip:
    """A width-n vertical block cut from a selected periodic point; the
    marker sits at the rightmost column of the bookkeeping row."""

    columns: Word

    @property
    def width(self) -> int:
        return len(self.columns)


def build_strips(orbits, n: int):
    """All n phases of every orbit, plus the concatenation-system entropy.

    Returns (strips sorted, h) with h = log2(#strips)/n; the strip count
    equals the number of selected points of minimal period n.
    """
    strips = set()
    for orbit in orbits:
        if not isinstance(orbit, PeriodicOrbit):
            raise ArgumentError("build_strips expects PeriodicOrbit inputs")
        if orbit.period != n or necklace(orbit.representative)[1] != n:
            raise ArgumentError(
                f"orbit {orbit.representative!r} does not have minimal period {n}"
            )
        for rot in rotations(orbit.representative):
            strips.add(Strip(rot))
    count = len(strips)
    h = EntropyValue(0) if count == 0 else EntropyValue.log2_of(count, n)
    return sorted(strips, key=lambda s: s.columns), h


class HallInfeasible(ArgumentError):
    """No system of distinct representatives; carries a Hall violator."""

    def __init__(self, violator, neighborhood):
        self.violator = tuple(violator)
        self.neighborhood = tuple(neighborhood)
        super().__init__(
            f"{len(self.violator)} strips share only {len(self.neighborhood)} words"
        )


def hall_match(words_per_strip: dict) -> dict:
    """An injective choice of one word per strip, by augmenting paths.

    words_per_strip maps each strip (any hashable) to its admissible word
    set.  When no matching exists the raised HallInfeasible carries a
    witness set S with |union of words over S| < |S|: the first strip whose
    augmenting search fails, with the strips matched to the words that
    search saw.  Every word it saw is matched, and those are all the words
    of the strips it visited, so they number one fewer than the strips.
    """
    strips = sorted(words_per_strip, key=repr)
    words = sorted({w for ws in words_per_strip.values() for w in ws}, key=repr)
    lengths = {len(w) for w in words if isinstance(w, tuple)}
    if len(lengths) > 1:
        raise ArgumentError("all candidate words must have equal length")
    adj = {s: sorted(words_per_strip[s], key=repr) for s in strips}
    match_word = {}  # word -> strip
    for root in strips:
        # depth-first augmenting path from root, on an explicit stack
        seen = set()
        stack = [(root, iter(adj[root]))]
        chosen = []  # chosen[i]: the word stack[i] tries to take over
        while stack:
            for w in stack[-1][1]:
                if w not in seen:
                    break
            else:  # no word left for this strip: back up one step
                stack.pop()
                if chosen:
                    chosen.pop()
                continue
            seen.add(w)
            if w in match_word:
                chosen.append(w)
                stack.append((match_word[w], iter(adj[match_word[w]])))
                continue
            # w is free: every strip on the path moves to the word it chose
            for (t, _), x in zip(stack, chosen + [w]):
                match_word[x] = t
            break
        else:  # the search failed: it visited root and the owners of the words it saw
            violator = [root] + [match_word[w] for w in seen]
            raise HallInfeasible(sorted(violator, key=repr), sorted(seen, key=repr))
    return {s: w for w, s in match_word.items()}
