"""Finite-depth generator checks for block-coded partitions.

A partition of a subshift with finite coding radius is a sliding block
code from symbol windows to partition labels.  The two directions checked
here: how sharply the bilateral label name pins down the central symbols
(atom multiplicity), and how many label names of each length occur
(the size of the image language).

Neither table needs the words.  A name is a label word, and the words that
share a name are the paths that carry it in the code's labelled graph, so
both tables come from the subset construction (Lind & Marcus, *An
Introduction to Symbolic Dynamics and Coding*, sec. 3.3).  The graph is
compiled once per spec and code, by one breadth-first path for every radius,
after the code is checked total.  A node is a state of the spec's automaton
with the last 2r symbols read (r the code radius); an edge carries the label
of the window it closes, and no label while fewer than 2r symbols precede
it.  The words are its paths from the root, dead ends included, which is
the language the tables count.  One level stepper serves both tables:
- **Image counts.**  A vector of name counts, keyed by the state sets that
  the names reach from the root, steps one label at a time.  Each name
  reaches exactly one nonempty set, so the vector's sum counts the names.
- **Multiplicities.**  A word of length 2n+1 is a prefix of m = n - c
  symbols, a centre block of 2c+1 and a suffix of m.  Its name gives the set
  S its prefix's labels reach from the root, the block's labels, and the
  set R of states that can read its suffix's labels.  So the blocks under
  one name are those read from S with its labels into R, and the
  multiplicity at depth n is the most blocks over the sets S of level m of
  the forward pass and the sets R of level m of one backward pass.  Each
  depth combines the two passes once, and a set is stepped only the first
  time it appears, so the work grows linearly in the depth while the sets
  per level stay bounded.

One cap, ``set_cap``, bounds the reachable sets stepped, summed over all
levels, each counted by what it costs.  The graph counts its nodes on every
call, compiled or cached.  Each level from 1 on counts the forward and
backward sets it holds, at least one each, and a depth the (S, R) pairs it
combines.  A set stepped for the first time counts the states of the sets
it yields, and a centre table its (state, block) pairs, as they are formed
and again when a new pair reads them.  So the work and the memory stay
within the cap times factors of the alphabet size, whatever the depth, the
centre radius or the size of the sets.  Past the cap, ``ResourceCapError``
names the level, the number of symbols each pass has stepped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

from .errors import ArgumentError, ResourceCapError
from .sft import SftSpec, count_words, words_of_length

DEFAULT_SET_CAP = 1_000_000


@dataclass(frozen=True)
class BlockCode:
    """A radius-r sliding block code: windows of length 2r+1 -> labels."""

    radius: int
    table: tuple  # sorted (window, label) pairs

    def __post_init__(self):
        if self.radius < 0:
            raise ArgumentError(f"code radius must be >= 0, got {self.radius}")
        for w, _ in self.table:
            if len(w) != 2 * self.radius + 1:
                raise ArgumentError("code window of wrong length")

    def as_dict(self) -> dict:
        return dict(self.table)


def block_code(radius: int, mapping: dict) -> BlockCode:
    return BlockCode(radius, tuple(sorted(mapping.items())))


def zero_coordinate_code(sft: SftSpec) -> BlockCode:
    """The radius-0 code reading off the symbol itself."""
    return block_code(0, {(s,): s for s in sft.alphabet.symbols})


def top_row_code(sft: SftSpec) -> BlockCode:
    """For product-alphabet systems: read the first row of the symbol."""
    return block_code(0, {(s,): s[0] for s in sft.alphabet.symbols})


def _check_total(code: BlockCode, sft: SftSpec):
    """The code labels every admissible window.  Its keys are distinct, so
    that holds iff as many keys are admissible as there are admissible
    windows; only a code that is not total walks the windows, and only
    until the sixth one missing."""
    table = code.as_dict()
    n = 2 * code.radius + 1
    if sum(map(sft.admits, table)) == count_words(sft, n):
        return
    missing = list(islice((w for w in words_of_length(sft, n) if w not in table), 6))
    raise ArgumentError(
        f"code not total on the language; uncovered: {missing[:5]}"
        + ("..." if len(missing) > 5 else "")
    )


def _check_depth(depth: int, center_radius: int = 0) -> None:
    if depth < 0:
        raise ArgumentError(f"depth must be >= 0, got {depth}")
    if not 0 <= center_radius <= depth:
        raise ArgumentError(f"center radius must lie in 0..depth = 0..{depth}, got {center_radius}")


@lru_cache(maxsize=1)
def _labelled_graph(sft: SftSpec, code: BlockCode, cap: int) -> tuple:
    """The code's labelled graph (out, into, B), checked total.  One graph is
    kept, until another spec, code or cap is built, so both tables share it.
    Past cap nodes it refuses as the set cap does at level 0, uncached.

    Node 0 is the root.  A node is an automaton state with the indices of
    the last min(L, 2r) symbols read, and out[x] lists its edges as
    (symbol index, label, node) triples: the labels are numbered 1..B-1,
    and an edge has label 0 while fewer than 2r symbols precede it.
    into[y] lists the (label, node) pairs of the edges into y."""
    _check_total(code, sft)
    index, succ, keep = sft._index, sft._automaton.succ, 2 * code.radius
    names = {label: i for i, label in enumerate(dict.fromkeys(label for _, label in code.table), 1)}
    labels = {  # windows as tuples of symbol indices, labels as 1, 2, ...
        tuple(index[s] for s in w): names[label] for w, label in code.table if all(s in index for s in w)
    }
    number, nodes, out = {(0, ()): 0}, [(0, ())], []
    for s, tail in nodes:  # grows while iterated: breadth-first from the root
        if len(nodes) > cap:
            raise ResourceCapError(f"more than {cap} reachable sets stepped by level 0")
        edges = []
        for k, t in succ[s].items():
            window = tail + (k,)
            node = (t, window[-keep:] if keep else ())
            if node not in number:
                number[node] = len(nodes)
                nodes.append(node)
            edges.append((k, labels[window] if len(window) > keep else 0, number[node]))
        out.append(tuple(edges))
    into = [[] for _ in out]
    for x, edges in enumerate(out):
        for _, label, y in edges:
            into[y].append((label, x))
    return tuple(out), tuple(map(tuple, into)), len(names) + 1


class _Subsets:
    """Subset steps over the code's labelled graph, and their cap.

    Each set's successors, predecessors and centre table are kept, so a set
    that recurs costs a lookup.  Centre blocks are width symbols long.
    ``spend`` counts toward the cap, and ``level`` is the level a refusal
    names; the graph's nodes count at level 0 on every call."""

    def __init__(self, sft: SftSpec, code: BlockCode, width: int, cap: int):
        self.width, self.cap, self.spent, self.level = width, cap, 0, 0
        self.out, self.into, self.base = _labelled_graph(sft, code, cap)
        self.spend(len(self.out))
        self.size = sft.alphabet.size
        self.root, self.everywhere = frozenset({0}), frozenset(range(len(self.out)))
        self._after, self._before, self._centres, self._most = {}, {}, {}, {}

    def spend(self, n: int) -> None:
        self.spent += n
        if self.spent > self.cap:
            raise ResourceCapError(f"more than {self.cap} reachable sets stepped by level {self.level}")

    def _split(self, pairs) -> list:
        """The sets of second entries, one per first entry (a label)."""
        groups = {}
        for label, y in pairs:
            if label in groups:
                groups[label].add(y)
            else:
                groups[label] = {y}
        found = [frozenset(g) for g in groups.values()]
        self.spend(sum(map(len, found)))
        return found

    def after(self, S: frozenset) -> list:
        """The nonempty sets one label after S, one per label."""
        if S not in self._after:
            self._after[S] = self._split((label, y) for x in S for _, label, y in self.out[x])
        return self._after[S]

    def before(self, R: frozenset) -> list:
        """The nonempty sets of nodes one label before R, one per label."""
        if R not in self._before:
            self._before[R] = self._split(p for y in R for p in self.into[y])
        return self._before[R]

    def levels(self, n: int, back: int):
        """For each level 0..n, the name counts keyed by the sets the names
        of that many symbols reach from the root, and the family of sets of
        nodes that can read a name of that many symbols, which steps up to
        level back and then stays.  Each level from 1 on holds the sets of
        both, at least one each."""
        counts, family = {self.root: 1}, {self.everywhere}
        for level in range(n + 1):
            self.level = level
            if level:
                nxt = {}
                for S, k in counts.items():
                    for T in self.after(S):
                        nxt[T] = nxt.get(T, 0) + k
                counts = nxt
                self.spend(max(1, len(counts)))
                if level <= back:
                    family = {T for R in family for T in self.before(R)}
                    self.spend(max(1, len(family)))
            yield counts, family

    def centre(self, S: frozenset) -> list:
        """For each label word of length width that a path from S carries,
        the set of (end node, block) pairs of those paths.  The pair sets,
        keyed by their label word as a base-B number, step one symbol at a
        time; a block is the base-|A| number of its symbol indices."""
        if S not in self._centres:
            out, base, size = self.out, self.base, self.size
            level = {0: {(x, 0) for x in S}}
            for _ in range(self.width):
                nxt = {}
                for name, pairs in level.items():
                    name *= base
                    for x, block in pairs:
                        block *= size
                        for k, label, y in out[x]:
                            if name + label in nxt:
                                nxt[name + label].add((y, block + k))
                            else:
                                nxt[name + label] = {(y, block + k)}
                self.spend(sum(map(len, nxt.values())))
                level = nxt
            self._centres[S] = list(level.values())
        return self._centres[S]

    def multiplicity(self, forward, backward) -> int:
        """The most distinct centre blocks under one name: read from a
        forward set with one label word into a backward set."""
        self.spend(len(forward) * len(backward))
        best = 0
        for S in forward:
            for R in backward:
                if (S, R) not in self._most:
                    table = self.centre(S)
                    self.spend(sum(map(len, table)))
                    self._most[S, R] = max((len({b for y, b in pairs if y in R}) for pairs in table), default=0)
                best = max(best, self._most[S, R])
        return best


@dataclass(frozen=True)
class GeneratorReport:
    """Max atom multiplicity per name depth: the most distinct center
    blocks, of the radius `extract_generator` was given, among words that
    share a full label name."""

    multiplicities: tuple  # (depth, max multiplicity) pairs


def extract_generator(
    sft: SftSpec,
    code: BlockCode,
    depth: int,
    center_radius: int = 0,
    set_cap: int = DEFAULT_SET_CAP,
) -> GeneratorReport:
    """Pull the label partition back and measure how fast atoms shrink.

    For each n <= depth, words of length 2n+1 are grouped by their label
    name over positions [-n+r, n-r]; the multiplicity at n is the largest
    number of distinct central blocks within one group.  Multiplicity 1 at
    depth n means the name determines the center: the finite-depth shadow
    of a shrinking-diameter generator.

    No word is listed.  At level m the forward pass holds the state sets
    that the prefix names of m symbols reach, and the backward pass the
    sets of states that can read a suffix name of m symbols; depth m + c
    combines the two through the centre blocks (see the module docstring).
    The sets stepped, summed over the levels, obey set_cap.
    """
    _check_depth(depth, center_radius)
    c = center_radius
    g = _Subsets(sft, code, 2 * c + 1, set_cap)
    levels = g.levels(depth - c, depth - c)
    return GeneratorReport(tuple((m + c, g.multiplicity(*both)) for m, both in enumerate(levels)))


@dataclass(frozen=True)
class ImageLanguageReport:
    lengths: tuple  # (length, word count) pairs
    decode_consistent: bool  # every word's center among its name's candidates
    decode_unique: bool  # every name at this depth pins down the center


def partition_to_extension(
    sft: SftSpec,
    code: BlockCode,
    depth: int,
    set_cap: int = DEFAULT_SET_CAP,
) -> ImageLanguageReport:
    """How many label names the image language has at each length up to
    depth, with a decode check.

    The names of length L label the words of length L + 2r.  A vector of
    name counts, keyed by the state sets the names reach from the root,
    steps one symbol at a time, and its sum at word length L + 2r is the
    count at L.  The decode check groups the admissible words of odd length
    L >= depth + 2r by their label name: ``decode_unique`` says whether
    every name determines the word's center symbol, from the forward sets
    and one backward pass at half that length, as in ``extract_generator``.
    ``decode_consistent`` (each word's center among its name's candidates)
    holds by construction, since each word's center goes into its own
    name's set.  Both passes step level by level, and the sets they step,
    summed over the levels, obey set_cap.
    """
    _check_depth(depth)
    keep = 2 * code.radius
    half = ((depth + keep) | 1) // 2  # the decode check's word is odd, so it has a center
    g = _Subsets(sft, code, 1, set_cap)
    sizes = []  # (L, the number of distinct names of length L)
    for level, (counts, family) in enumerate(g.levels(depth + keep, half)):
        if level > keep:
            sizes.append((level - keep, sum(counts.values())))
        if level == half:
            unique = g.multiplicity(counts, family) <= 1
    return ImageLanguageReport(tuple(sizes), True, unique)
