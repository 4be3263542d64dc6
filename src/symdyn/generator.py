"""Finite-depth generator checks for block-coded partitions.

A partition of a subshift with finite coding radius is a sliding block
code from symbol windows to partition labels.  The two directions checked
here: how sharply the bilateral label name pins down the central symbols
(atom multiplicity), and how many label names of each length occur
(the size of the image language).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice

from .errors import ArgumentError
from .sft import DEFAULT_WORD_CAP, SftSpec, _check_word_cap, count_words, word_counts, words_of_length


@dataclass(frozen=True)
class BlockCode:
    """A radius-r sliding block code: windows of length 2r+1 -> labels."""

    radius: int
    table: tuple  # sorted (window, label) pairs

    def __post_init__(self):
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


class _Names:
    """Words and label names as integers.  A word is the base-|A| number of
    its symbol indices; a name (l_1, ..., l_m) is the number with base-B
    digits code(l_1) ... code(l_m), where the codes run 1..B-1."""

    def __init__(self, sft: SftSpec, code: BlockCode):
        self.sft = sft
        index = sft._index
        labels = dict.fromkeys(label for _, label in code.table)
        label_code = {label: i for i, label in enumerate(labels, 1)}
        self.base = len(labels) + 1
        self.size = len(index)
        self.width = 2 * code.radius + 1
        # windows as base-|A| numbers of their symbol indices
        self.window_code = {}
        for w, label in code.table:
            if all(s in index for s in w):
                wid = 0
                for s in w:
                    wid = wid * self.size + index[s]
                self.window_code[wid] = label_code[label]

    def levels(self, n: int):
        """(L, words, names) for L = 1..n: every admissible word of length L,
        dead ends included, and in the same order its name, which codes the
        labels of its windows left to right (0 while L < width).  Each level
        grows from the one before along the automaton's edges, in symbol
        order, and replaces it; the lists are parallel, so a word costs no
        tuple."""
        size, base, window_code = self.size, self.base, self.window_code
        span = size**self.width
        succ = self.sft._automaton.succ
        states, words, names = [0], [0], [0]  # the empty word at the root
        for L in range(1, n + 1):
            if L >= self.width:
                names = [
                    m * base + window_code[(w * size + k) % span]
                    for s, w, m in zip(states, words, names)
                    for k in succ[s]
                ]
            words = [w * size + k for s, w in zip(states, words) for k in succ[s]]
            if L < self.width:
                names = [0] * len(words)
            states = [t for s in states for t in succ[s].values()]
            yield L, words, names


@dataclass(frozen=True)
class GeneratorReport:
    """max atom multiplicity per name depth; the center block has radius
    center_radius and multiplicity counts distinct center blocks whose
    words share a full label name."""

    center_radius: int
    multiplicities: tuple  # (depth, max multiplicity) pairs


def extract_generator(
    sft: SftSpec,
    code: BlockCode,
    depth: int,
    center_radius: int = 0,
    word_cap: int = DEFAULT_WORD_CAP,
) -> GeneratorReport:
    """Pull the label partition back and measure how fast atoms shrink.

    For each n <= depth, words of length 2n+1 are grouped by their label
    name over positions [-n+r, n-r]; the multiplicity at n is the largest
    number of distinct central blocks within one group.  Multiplicity 1 at
    depth n means the name determines the center: the finite-depth shadow
    of a shrinking-diameter generator.
    """
    _check_depth(depth, center_radius)
    _check_total(code, sft)
    c = center_radius
    lengths = range(2 * c + 1, 2 * depth + 2, 2)
    _check_word_cap(word_counts(sft, 2 * depth + 1), lengths, word_cap)
    size = sft.alphabet.size
    mult = []
    for L, words, names in _Names(sft, code).levels(2 * depth + 1):
        if L in lengths:  # the center block: letters L//2 - c .. L//2 + c
            mult.append((L // 2, _multiplicity(words, names, size ** (L // 2 - c), size ** (2 * c + 1))))
    return GeneratorReport(c, tuple(mult))


def _multiplicity(words: list, names: list, shift: int, block: int) -> int:
    """The most distinct center blocks under one name.  A word's center
    block is its digits word // shift % block; the keys of pairs are the
    distinct (name, center) pairs as numbers name * block + center, and its
    values their names, so a dict holds them: more compact than a set, and
    no quotient is built per pair."""
    pairs = {m * block + w // shift % block: m for w, m in zip(words, names)}
    return max(Counter(pairs.values()).values(), default=0)


@dataclass(frozen=True)
class ImageLanguageReport:
    lengths: tuple  # (length, word count) pairs
    decode_checked_depth: int
    decode_consistent: bool  # every word's center among its name's candidates
    decode_unique: bool  # every name at this depth pins down the center


def partition_to_extension(
    sft: SftSpec,
    code: BlockCode,
    depth: int,
    word_cap: int = DEFAULT_WORD_CAP,
) -> ImageLanguageReport:
    """How many label names the image language has at each length up to
    depth, with a decode check.

    The decode check groups the admissible words of odd length
    L >= depth + 2r by their label name: ``decode_unique`` says whether
    every name determines the word's center symbol.  ``decode_consistent``
    (each word's center among its name's candidates) holds by construction,
    since each word's center goes into its own name's set.  L, like each
    image length, is refused when it has more than word_cap words.  One
    level-by-level walk to L sees every shorter word on the way.
    """
    _check_depth(depth)
    _check_total(code, sft)
    r = code.radius
    check_len = (depth + 2 * r) | 1  # odd, so the word has a center
    _check_word_cap(word_counts(sft, check_len), range(2 * r + 1, check_len + 1), word_cap)
    names = _Names(sft, code)
    sizes = []  # (L, the number of distinct names of length L)
    for L, words, named in names.levels(check_len):
        if 2 * r < L <= depth + 2 * r:
            sizes.append((L - 2 * r, len(set(named))))
    # words and named now hold the decode-check length
    unique = _multiplicity(words, named, names.size ** (check_len // 2), names.size) <= 1
    return ImageLanguageReport(tuple(sizes), depth, True, unique)
