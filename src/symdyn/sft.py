"""Finite-type subshifts: words, periodic orbits, capacities, entropy brackets.

A subshift is given by an alphabet and a finite set of forbidden words.
Symbols are strings; for array systems truncated to K rows a symbol is a
K-tuple of per-row symbols and the spec carries the row structure.

Each spec is compiled once, on first use, and cached on the spec: one
labelled graph, the Aho-Corasick automaton of its forbidden words (Aho &
Corasick 1975).  Its states are the proper prefixes of the forbidden words,
and each state maps a symbol's index to the state one edge later; a symbol
that would complete a forbidden word has no edge.  Reading a word from the
root decides ``admits``; one depth-first walk along its edges in alphabet
order, ``words_up_to``, meets each word before its extensions; a sparse
vector of walk counts stepped forward from the root gives ``count_words``.
After L-1 symbols (L the longest forbidden word) the state is a function
of them, so on the essential part of the graph -- the states on
bi-infinite paths, with their edges and labels -- the labelling is a
conjugacy onto the subshift (Lind & Marcus, ch. 2-3): ``validate`` reads
that part, ``per_table`` takes the traces tr(A**n) of its adjacency matrix
and Moebius-inverts them into minimal-period counts, and ``top_entropy``
brackets the growth of its row sums, on integers: one certified floor of
a logarithm per endpoint, and the bracket kept as numerator/denominator
pairs until it is returned.  Orbits are named, by Lyndon words,
only where their names are wanted: ``periodic_orbits`` keeps the Lyndon
words of that walk, found by Duval's linear scan (Duval 1983).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .entropy import EntropyBracket, EntropyValue
from .errors import ArgumentError, ResourceCapError

Word = tuple  # tuple of symbols

DEFAULT_PERIOD_CAP = 20
DEFAULT_WORD_CAP = 2_000_000


def word(text: str) -> Word:
    """A word from a string of single-character symbols."""
    return tuple(text)


def rotations(w: Word):
    for r in range(len(w)):
        yield w[r:] + w[:r]


def _duval(s, i: int, end: int) -> tuple[int, int]:
    """Duval's inner loop (Duval 1983): (j, k) such that s[i:j] is the
    longest prefix of s[i:end] that is a power of a Lyndon word of length
    j - k followed by a prefix of that word.  Symbols compare with ``<``."""
    j, k = i + 1, i
    while j < end and s[k] <= s[j]:
        k = i if s[k] < s[j] else k + 1
        j += 1
    return j, k


def necklace(w: Word) -> tuple[int, int]:
    """(r, p): w[r:] + w[:r] is the least rotation of w and p its least
    cyclic period.  In the Lyndon factorization of w + w, the last run of
    equal factors to start inside w starts at r, and its factor has length p."""
    n = len(w)
    s = w + w
    i = r = p = 0
    while i < n:
        r = i
        j, k = _duval(s, i, 2 * n)
        p = j - k
        while i <= k:
            i += p
    return r, p


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise ArgumentError("alphabet must have size >= 1")
        if len(set(self.symbols)) != len(self.symbols):
            raise ArgumentError("alphabet symbols must be distinct")

    @property
    def size(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class SftSpec:
    """Alphabet plus forbidden words; optionally per-row alphabets."""

    alphabet: Alphabet
    forbidden: frozenset = frozenset()
    rows: tuple | None = None  # per-row alphabets for truncated array systems

    def __post_init__(self):
        for f in self.forbidden:
            if len(f) < 1:
                raise ArgumentError("forbidden words must be nonempty")
            for s in f:
                if s not in self.alphabet.symbols:
                    raise ArgumentError(f"forbidden word uses unknown symbol {s!r}")
        if self.rows is not None:
            expect = set(itertools.product(*[a.symbols for a in self.rows]))
            if not set(self.alphabet.symbols) <= expect:
                raise ArgumentError("alphabet inconsistent with row structure")

    @cached_property
    def _index(self) -> dict:
        """Each symbol's index k in the alphabet."""
        return {s: k for k, s in enumerate(self.alphabet.symbols)}

    @cached_property
    def _automaton(self) -> _Graph:
        return _aho_corasick(self._index, self.forbidden)

    @cached_property
    def _core(self) -> _Graph:
        """The essential part of the automaton: the states on bi-infinite
        paths, with their labelled edges."""
        return self._automaton.essential()

    @cached_property
    def memory(self) -> int:
        """Max forbidden-word length L; local rules have window L."""
        return max(map(len, self.forbidden), default=1)

    def admits(self, w: Word) -> bool:
        """Whether w contains no forbidden word.  That is weaker than being
        a word of the language: a word that no point of the subshift
        contains, say one that runs into a dead end, is admitted all the
        same.  A symbol outside the alphabet occurs in no admitted word, so
        a word holding one is refused."""
        succ, index = self._automaton.succ, self._index
        state = 0
        for s in w:
            state = succ[state].get(index.get(s))
            if state is None:
                return False
        return True

    def admits_cyclic(self, w: Word) -> bool:
        """Whether the bi-infinite repetition of w avoids all forbidden words."""
        n = len(w)
        if n == 0:
            return False
        reps = -(-(n + self.memory) // n)  # enough copies to see every window
        return self.admits((w * reps)[: n + self.memory - 1])


def full_shift(symbols: str | tuple) -> SftSpec:
    syms = tuple(symbols)
    return SftSpec(Alphabet(syms))


def golden_mean() -> SftSpec:
    return SftSpec(Alphabet(("0", "1")), frozenset({word("11")}))


# ---------------------------------------------------------------------------
# the pattern automaton


def _aho_corasick(index: dict, forbidden: frozenset) -> _Graph:
    """The Aho-Corasick automaton of the forbidden words (Aho & Corasick
    1975) over the symbols of index, in their order: the trie with failure
    links folded into the transitions, cut down to the live states that the
    root reaches.  states[0] is the root (); the others are the proper
    prefixes of forbidden words, in breadth-first order.  The k-edge of a
    state leads to the longest suffix of state + (symbol k,) that is a
    state, and is missing when a suffix of that word is forbidden."""
    symbols = tuple(index)
    nodes = sorted({f[:i] for f in forbidden for i in range(len(f) + 1)} | {()}, key=len)
    trie = set(nodes)
    # row[p][k]: longest suffix of p + (symbols[k],) in the trie; fail[p]:
    # longest proper suffix of p in the trie; dead[p]: a suffix of p is forbidden
    row = {(): tuple((s,) if (s,) in trie else () for s in symbols)}
    fail, dead = {(): ()}, {(): False}
    for p in nodes[1:]:  # shortest first, so fail[p] and its row are ready
        fail[p] = row[fail[p[:-1]]][index[p[-1]]] if len(p) > 1 else ()
        dead[p] = p in forbidden or dead[fail[p]]
        row[p] = tuple(p + (s,) if p + (s,) in trie else t for s, t in zip(symbols, row[fail[p]]))
    number = {(): 0}
    states = [()]
    for p in states:  # grows while iterated: breadth-first from the root
        for t in row[p]:
            if not dead[t] and t not in number:
                number[t] = len(states)
                states.append(t)
    succ = tuple({k: number[t] for k, t in enumerate(row[p]) if not dead[t]} for p in states)
    return _Graph(tuple(states), succ)


class _Graph(NamedTuple):
    """A labelled graph: succ[i] maps each symbol index k to the state one
    k-edge after states[i], in symbol order; a symbol with no edge has no
    entry.  Two symbols may lead to the same state: each edge counts."""

    states: tuple
    succ: tuple

    def step(self, vec: list) -> list:
        """The adjacency matrix times vec."""
        return [sum([vec[j] for j in outs.values()]) for outs in self.succ]

    def traces(self, N: int) -> list:
        """[tr(A**n) for n = 0..N], each closed walk counted from its start:
        a sparse vector steps from every state, so only reachable states cost."""
        tr = [len(self.states)] + [0] * N
        for i in range(len(self.states)):
            vec = {i: 1}
            for n in range(1, N + 1):
                nxt = {}
                for j, c in vec.items():
                    for k in self.succ[j].values():
                        nxt[k] = nxt.get(k, 0) + c
                vec = nxt
                tr[n] += vec.get(i, 0)
        return tr

    def essential(self) -> "_Graph":
        """The subgraph on the states that lie on bi-infinite paths, with
        the labels of the edges between them."""
        alive, keep = None, set(range(len(self.states)))
        while keep != alive:
            alive = keep
            entered = {j for i in alive for j in self.succ[i].values()}
            keep = {i for i in alive & entered if not alive.isdisjoint(self.succ[i].values())}
        order = sorted(alive)
        new = {old: i for i, old in enumerate(order)}
        return _Graph(
            tuple(self.states[i] for i in order),
            tuple({k: new[j] for k, j in self.succ[i].items() if j in alive} for i in order),
        )


def language_nonempty(sft: SftSpec) -> bool:
    return len(sft._core.states) > 0


def validate(sft: SftSpec) -> None:
    if not language_nonempty(sft):
        raise ArgumentError("subshift language is empty")


def words_up_to(sft: SftSpec, n: int):
    """Every admissible word of length 1..n, dead ends included, depth-first
    along the automaton's edges in alphabet order: each word comes before
    its extensions, and the words of one length come in lexicographic order.
    The walk keeps one iterator per letter, so its depth is not bounded by
    the recursion limit.
    """
    if n < 1:
        return
    symbols, succ = sft.alphabet.symbols, sft._automaton.succ
    branches = [((), iter(succ[0].items()))]  # (a word, the edges still to try after it)
    while branches:
        prefix, edges = branches[-1]
        for k, t in edges:
            w = prefix + (symbols[k],)
            yield w
            if len(w) < n:
                branches.append((w, iter(succ[t].items())))
                break
        else:  # position exhausted: back up one letter
            branches.pop()


def words_of_length(sft: SftSpec, n: int):
    """All admissible words of length n, lexicographic."""
    return iter([()]) if n == 0 else (w for w in words_up_to(sft, n) if len(w) == n)


def word_counts(sft: SftSpec, n: int) -> list:
    """The numbers of admissible words of lengths 0..n: a sparse vector
    stepped forward from the root, whose entry at a state after m steps
    counts the words of length m that end there, so the words of length m
    are its sum.  Only the states the root reaches by then cost."""
    succ = sft._automaton.succ
    vec = {0: 1}
    counts = [1]
    for _ in range(n):
        nxt = {}
        for j, c in vec.items():
            for k in succ[j].values():
                nxt[k] = nxt.get(k, 0) + c
        vec = nxt
        counts.append(sum(vec.values()))
    return counts


def count_words(sft: SftSpec, n: int) -> int:
    """Number of admissible words of length n: walks from the root."""
    return word_counts(sft, n)[n] if n >= 0 else 0


def _check_word_cap(counts: list, lengths: range, cap: int) -> None:
    """Refuse at the first of the word lengths with more than cap words;
    counts[L] is the number of admissible words of length L."""
    for L in lengths:
        if counts[L] > cap:
            raise ResourceCapError(f"more than {cap} admissible words of length {L}")


# ---------------------------------------------------------------------------
# periodic orbits


@dataclass(frozen=True, order=True)
class PeriodicOrbit:
    """A periodic orbit, named by its least rotation: a Lyndon word."""

    representative: Word

    @property
    def period(self) -> int:
        return len(self.representative)

    @staticmethod
    def of(w: Word) -> "PeriodicOrbit":
        if not w:
            raise ArgumentError("an orbit needs a nonempty word")
        r, p = necklace(w)
        if p != len(w):
            raise ArgumentError(f"word {w!r} does not have minimal period {len(w)}")
        return PeriodicOrbit(w[r:] + w[:r])


@dataclass(frozen=True)
class PerTable:
    """counts[n] = number of points of minimal period n, for n = 1..N."""

    counts: tuple  # tuple of (n, count) pairs, n = 1..N

    def __post_init__(self):
        for n, c in self.counts:
            if c % n != 0:
                raise ArgumentError(f"count {c} at period {n} is not a multiple of {n}")

    @property
    def horizon(self) -> int:
        return max((n for n, _ in self.counts), default=0)


def _check_horizon(N: int, cap: int) -> None:
    """Refuse a table horizon N below 1, a negative period cap, or N above
    the cap."""
    if N < 1:
        raise ArgumentError("table horizon must be >= 1")
    if cap < 0:
        raise ArgumentError(f"period cap must be >= 0, got {cap}")
    if N > cap:
        raise ResourceCapError(f"period {cap + 1} exceeds cap {cap}")


def periodic_orbits(sft: SftSpec, N: int, cap: int = DEFAULT_PERIOD_CAP) -> dict:
    """{n: the orbits of minimal period n, sorted} for n = 1..N, from one
    walk that keeps each Lyndon word that repeats admissibly: the walk meets
    every orbit at its representative, as every rotation of such a word is
    admissible.  The horizon obeys the period cap, and the walk the word cap."""
    _check_horizon(N, cap)
    _check_word_cap(word_counts(sft, N), range(1, N + 1), DEFAULT_WORD_CAP)
    out = {n: [] for n in range(1, N + 1)}
    for w in words_up_to(sft, N):
        if _duval(w, 0, len(w)) == (len(w), 0) and sft.admits_cyclic(w):
            out[len(w)].append(PeriodicOrbit(w))
    return {n: sorted(orbits) for n, orbits in out.items()}


def _mobius(n: int) -> int:
    """The Moebius function: 0 if a square divides n, else (-1)**(prime factors)."""
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def per_table(sft: SftSpec, N: int, cap: int = DEFAULT_PERIOD_CAP) -> PerTable:
    """Points of minimal period n for n = 1..N, without naming an orbit.

    tr(A**n) on the essential automaton counts the points x with
    sigma**n(x) = x, and Moebius inversion keeps those of minimal period n:
    p_n = sum over d | n of mu(n/d) * tr(A**d).  The horizon obeys the same
    cap as ``periodic_orbits``.
    """
    _check_horizon(N, cap)
    tr = sft._core.traces(N)
    return PerTable(
        tuple(
            (n, sum(_mobius(n // d) * tr[d] for d in range(1, n + 1) if n % d == 0))
            for n in range(1, N + 1)
        )
    )


@dataclass(frozen=True)
class Capacities:
    p_sup: EntropyValue
    p_lim_estimate: EntropyValue
    window: tuple  # periods used for the limit estimate
    note: str = "p_lim is a finite-window estimate, not a certified limsup"


def capacities(table: PerTable, tail_window: int | None = None) -> Capacities:
    """Supremum and (estimated) limit growth rates of periodic-point counts.

    Periods with zero count contribute no term; an everywhere-zero table
    yields (0, 0).
    """
    if not table.counts:
        raise ArgumentError("empty period table")
    N = table.horizon
    if tail_window is None:
        tail_window = max(3, N // 3)
    if tail_window < 1:
        raise ArgumentError(f"tail window must be >= 1, got {tail_window}")
    tail_start = max(1, N - tail_window + 1)
    sup_terms = [EntropyValue(0)]
    lim_terms = [EntropyValue(0)]
    window = []
    for n, c in table.counts:
        if c == 0:
            continue
        term = EntropyValue.log2_of(c, n)
        sup_terms.append(term)
        if n >= tail_start:
            lim_terms.append(term)
            window.append(n)
    return Capacities(max(sup_terms), max(lim_terms), tuple(window))


# ---------------------------------------------------------------------------
# topological entropy bracket

DEFAULT_ENTROPY_TOL = Fraction(1, 100)
DEFAULT_ENTROPY_DEPTH_CAP = 160
_LOG_SQUARINGS = 10
_LOG_SCALE = 1 << _LOG_SQUARINGS
_MANTISSA_BITS = 64


def _floor_log2_power(x: int) -> tuple[int, bool]:
    """(b, exact) with b = floor(log2(x**_LOG_SCALE)) for an x >= 1, and
    exact whether x is a power of two, so that log2(x) = b/_LOG_SCALE.

    Otherwise 2**b <= x**K < 2**(b+1) gives b/K <= log2(x) < (b+1)/K.  A
    lower and an upper mantissa of x, of _MANTISSA_BITS bits, are squared
    together and shifted by the same amount, rounded down and up, so that
    lo * 2**e <= x**K <= hi * 2**e at every step; b is read off both, and
    only when x**K lies so close to a power of two that they disagree is
    x**K computed exactly.
    """
    if x & (x - 1) == 0:
        return (x.bit_length() - 1) << _LOG_SQUARINGS, True
    e = max(0, x.bit_length() - _MANTISSA_BITS)
    lo, hi = x >> e, -(-x >> e)
    for _ in range(_LOG_SQUARINGS):
        lo *= lo
        hi *= hi
        e += e
        s = hi.bit_length() - _MANTISSA_BITS
        if s > 0:
            lo >>= s
            hi = -(-hi >> s)
            e += s
    b = lo.bit_length() - 1 + e
    if b != hi.bit_length() - 1 + e:
        b = (x**_LOG_SCALE).bit_length() - 1
    return b, False


def top_entropy(
    sft: SftSpec,
    tolerance: Fraction = DEFAULT_ENTROPY_TOL,
    depth_cap: int = DEFAULT_ENTROPY_DEPTH_CAP,
) -> EntropyBracket:
    """A bracket around the topological entropy from the essential automaton.

    For a nonnegative matrix with all row sums in [a, b] the spectral
    radius lies in [a, b]; applying this to powers of the transfer matrix
    gives brackets [log2(min rowsum)/n, log2(max rowsum)/n] whose
    intersection over n encloses the entropy.  Each endpoint is rounded
    outward to a multiple of 1/(_LOG_SCALE n) by one ``_floor_log2_power``
    call, and the best endpoints are compared as integer numerator /
    denominator pairs.  Returns the widest-effort bracket with
    ``tolerance_met=False`` if the cap depth is reached first.
    """
    if tolerance < 0:
        raise ArgumentError(f"tolerance must be >= 0, got {tolerance}")
    if depth_cap < 1:
        raise ArgumentError(f"depth cap must be >= 1, got {depth_cap}")
    core = sft._core
    if not core.states:
        raise ArgumentError("empty subshift has no entropy")
    try:
        tn, td = tolerance.as_integer_ratio()
    except (OverflowError, ValueError):  # an infinite or NaN float
        raise ArgumentError(f"tolerance must be finite, got {tolerance}") from None
    vec = [1] * len(core.states)  # A**n applied to the ones vector
    lo, lo_den, hi, hi_den = 0, 1, None, 1  # the best bracket: lo/lo_den, hi/hi_den
    for n in range(1, depth_cap + 1):
        vec = core.step(vec)
        den = n << _LOG_SQUARINGS
        b, _ = _floor_log2_power(min(vec))
        if b * lo_den > lo * den:
            lo, lo_den = b, den
        b, exact = _floor_log2_power(max(vec))
        if not exact:
            b += 1  # log2 < (b + 1)/_LOG_SCALE
        if hi is None or b * hi_den < hi * den:
            hi, hi_den = b, den
        if (hi * lo_den - lo * hi_den) * td <= tn * hi_den * lo_den:
            return EntropyBracket(Fraction(lo, lo_den), Fraction(hi, hi_den), True)
    return EntropyBracket(Fraction(lo, lo_den), Fraction(hi, hi_den), False)
