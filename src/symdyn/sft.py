"""Finite-type subshifts: words, periodic orbits, capacities, entropy brackets.

A subshift is given by an alphabet and a finite set of forbidden words.
Symbols are strings; for array systems truncated to K rows a symbol is a
K-tuple of per-row symbols and the spec carries the row structure.

Each spec is compiled once, on first use, and cached on the spec: the
forbidden words grouped by length, the (L-1)-block graph (Lind & Marcus,
ch. 2) and its essential core.  ``admits`` is the only forbidden-word scan
and every word and orbit query goes through it; ``count_words`` walks the
block graph, and ``transfer_graph``, ``validate`` and ``top_entropy`` read
the core.  Periodic-point counts come from the core too: ``per_table``
takes the traces tr(A**n) of its adjacency matrix and Moebius-inverts them
into minimal-period counts.  Orbits are enumerated word by word
(``enumerate_periodic``) only where their names are wanted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .entropy import EntropyBracket, EntropyValue, max_entropy
from .errors import ArgumentError, ResourceCapError

Word = tuple  # tuple of symbols

DEFAULT_PERIOD_CAP = 20


def word(text: str) -> Word:
    """A word from a string of single-character symbols."""
    return tuple(text)


def rotations(w: Word):
    for r in range(len(w)):
        yield w[r:] + w[:r]


def least_rotation(w: Word) -> Word:
    return min(rotations(w))


def minimal_period(w: Word) -> int:
    n = len(w)
    for d in range(1, n):
        if n % d == 0 and w == w[d:] + w[:d]:
            return d
    return n


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
    def _by_length(self) -> tuple:
        """The forbidden words as ((length, frozenset of words), ...), shortest first."""
        groups = {}
        for f in self.forbidden:
            groups.setdefault(len(f), set()).add(f)
        return tuple((lf, frozenset(words)) for lf, words in sorted(groups.items()))

    @cached_property
    def _blocks(self) -> _BlockGraph:
        """States are the admissible (L-1)-words in alphabet order; st has an
        edge to (st + (s,))[1:] for each symbol s with st + (s,) admissible."""
        states = tuple(words_of_length(self, self.memory - 1))
        index = {st: i for i, st in enumerate(states)}
        succ = tuple(
            tuple(index[w[1:]] for w in [st + (s,) for s in self.alphabet.symbols] if self.admits(w))
            for st in states
        )
        return _BlockGraph(states, succ)

    @cached_property
    def _core(self) -> _BlockGraph:
        return self._blocks.essential()

    @property
    def memory(self) -> int:
        """Max forbidden-word length L; local rules have window L."""
        return self._by_length[-1][0] if self._by_length else 1

    def admits(self, w: Word) -> bool:
        for lf, words in self._by_length:
            for i in range(len(w) - lf + 1):
                if w[i : i + lf] in words:
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
# transfer graph on (L-1)-blocks


class _BlockGraph(NamedTuple):
    """States with successor lists: succ[i] holds, with multiplicity, the
    indices of the states one edge after states[i]."""

    states: tuple
    succ: tuple

    def step(self, vec: list) -> list:
        """The adjacency matrix times vec."""
        return [sum([vec[j] for j in outs]) for outs in self.succ]

    def traces(self, N: int) -> list:
        """[tr(A**n) for n = 0..N], each closed walk counted from its start:
        a sparse vector steps from every state, so only reachable states cost."""
        tr = [len(self.states)] + [0] * N
        for i in range(len(self.states)):
            vec = {i: 1}
            for n in range(1, N + 1):
                nxt = {}
                for j, c in vec.items():
                    for k in self.succ[j]:
                        nxt[k] = nxt.get(k, 0) + c
                vec = nxt
                tr[n] += vec.get(i, 0)
        return tr

    def essential(self) -> "_BlockGraph":
        """The subgraph on the states that lie on bi-infinite paths."""
        alive, keep = None, set(range(len(self.states)))
        while keep != alive:
            alive = keep
            entered = {j for i in alive for j in self.succ[i]}
            keep = {i for i in alive & entered if not alive.isdisjoint(self.succ[i])}
        order = sorted(alive)
        new = {old: i for i, old in enumerate(order)}
        return _BlockGraph(
            tuple(self.states[i] for i in order),
            tuple(tuple(new[j] for j in self.succ[i] if j in alive) for i in order),
        )


def transfer_graph(sft: SftSpec) -> _BlockGraph:
    """The essential (L-1)-block graph, computed once per spec: its states
    are the admissible (L-1)-words with a bi-infinite continuation."""
    return sft._core


def language_nonempty(sft: SftSpec) -> bool:
    return len(transfer_graph(sft).states) > 0


def validate(sft: SftSpec) -> None:
    if not language_nonempty(sft):
        raise ArgumentError("subshift language is empty")


def words_of_length(sft: SftSpec, n: int):
    """All admissible words of length n, lexicographic, by depth-first walk.

    The walk keeps one iterator over the alphabet per letter of the current
    prefix, so its depth is not bounded by the recursion limit.
    """
    if n < 0:  # no word has negative length
        return
    if n == 0:
        yield ()
        return
    memory = sft.memory
    symbols = sft.alphabet.symbols
    prefix = []
    branches = [iter(symbols)]  # branches[d]: the symbols still to try at position d
    while branches:
        for s in branches[-1]:
            prefix.append(s)
            if not sft.admits(tuple(prefix[-memory:])):
                prefix.pop()
            elif len(prefix) == n:
                yield tuple(prefix)
                prefix.pop()
            else:
                branches.append(iter(symbols))
                break
        else:  # position exhausted: back up one letter
            branches.pop()
            if prefix:
                prefix.pop()


def count_words(sft: SftSpec, n: int) -> int:
    """Number of admissible words of length n: paths in the block graph."""
    m = sft.memory - 1
    if n <= m:
        return sum(1 for _ in words_of_length(sft, n))
    graph = sft._blocks
    vec = [1] * len(graph.states)
    for _ in range(n - m):
        vec = graph.step(vec)
    return sum(vec)


# ---------------------------------------------------------------------------
# periodic orbits


@dataclass(frozen=True, order=True)
class PeriodicOrbit:
    """A periodic orbit, canonicalized by the lexicographically least rotation."""

    representative: Word

    @property
    def period(self) -> int:
        return len(self.representative)

    def points(self):
        return sorted(rotations(self.representative))

    @staticmethod
    def of(w: Word) -> "PeriodicOrbit":
        if minimal_period(w) != len(w):
            raise ArgumentError(f"word {w!r} does not have minimal period {len(w)}")
        return PeriodicOrbit(least_rotation(w))


def enumerate_periodic(sft: SftSpec, n: int, cap: int = DEFAULT_PERIOD_CAP) -> list[PeriodicOrbit]:
    """All orbits of minimal period n, sorted by representative.

    Walks only the admissible words of length n (the forbidden-word
    pruning makes this linear in the language, not the symbol cube) and
    keeps each orbit at its representative, which the walk meets because
    every rotation of a cyclically admissible word is admissible.
    """
    if n < 1:
        raise ArgumentError("period must be >= 1")
    if n > cap:
        raise ResourceCapError(f"period {n} exceeds cap {cap}")
    out = [
        PeriodicOrbit(w)
        for w in words_of_length(sft, n)
        if minimal_period(w) == n and w == least_rotation(w) and sft.admits_cyclic(w)
    ]
    out.sort()
    return out


@dataclass(frozen=True)
class PerTable:
    """counts[n] = number of points of minimal period n, for n = 1..N."""

    counts: tuple  # tuple of (n, count) pairs, n = 1..N

    def __post_init__(self):
        for n, c in self.counts:
            if c % n != 0:
                raise ArgumentError(f"count {c} at period {n} is not a multiple of {n}")
        # lookup index, kept off the dataclass fields; the first pair per period wins
        object.__setattr__(self, "_by_period", dict(reversed(self.counts)))

    @property
    def horizon(self) -> int:
        return max((n for n, _ in self.counts), default=0)

    def count(self, n: int) -> int:
        try:
            return self._by_period[n]
        except KeyError:
            raise ArgumentError(f"period {n} outside table range") from None


def _check_horizon(N: int, cap: int) -> None:
    """The errors enumerate_periodic would raise over periods 1..N, up front."""
    if N < 1:
        raise ArgumentError("table horizon must be >= 1")
    if N > cap:
        raise ResourceCapError(f"period {max(1, cap + 1)} exceeds cap {cap}")


def _orbits_by_period(sft: SftSpec, N: int, cap: int) -> dict:
    """{n: enumerate_periodic(sft, n, cap)} for n = 1..N."""
    _check_horizon(N, cap)
    return {n: enumerate_periodic(sft, n, cap=cap) for n in range(1, N + 1)}


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

    tr(A**n) on the essential block graph counts the points x with
    sigma**n(x) = x, and Moebius inversion keeps those of minimal period n:
    p_n = sum over d | n of mu(n/d) * tr(A**d).  The horizon obeys the same
    cap as ``enumerate_periodic``.
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
    return Capacities(max_entropy(*sup_terms), max_entropy(*lim_terms), tuple(window))


# ---------------------------------------------------------------------------
# topological entropy bracket

DEFAULT_ENTROPY_TOL = Fraction(1, 100)
DEFAULT_ENTROPY_DEPTH_CAP = 160
_LOG_SQUARINGS = 10
_LOG_SCALE = 1 << _LOG_SQUARINGS
_MANTISSA_BITS = 64


def _mantissa(v: int, up: bool) -> tuple[int, int]:
    """(m, s) with m <= 2**_MANTISSA_BITS and m * 2**s <= v, or >= v if up."""
    s = max(0, v.bit_length() - _MANTISSA_BITS)
    m = v >> s
    return (m + 1 if up and m << s != v else m), s


def _floor_log2_power_bound(x: int, up: bool) -> int:
    """floor(log2(y)) for a y <= x**_LOG_SCALE (y >= x**_LOG_SCALE if up),
    from repeated squaring of a mantissa rounded the same way at every step."""
    m, e = _mantissa(x, up)
    for _ in range(_LOG_SQUARINGS):
        m, s = _mantissa(m * m, up)
        e = 2 * e + s
    return m.bit_length() - 1 + e


def _log2_bracket(x: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= log2(x) <= hi with width 1/_LOG_SCALE, certified.

    2**b <= x**K < 2**(b+1) gives b/K <= log2(x) < (b+1)/K.  b is read off
    a lower and an upper bound of x**K; only when x**K lies so close to a
    power of two that the two disagree is x**K computed exactly.
    """
    if x & (x - 1) == 0:  # power of two: exact
        e = x.bit_length() - 1
        return Fraction(e), Fraction(e)
    b = _floor_log2_power_bound(x, up=False)
    if b != _floor_log2_power_bound(x, up=True):
        b = (x**_LOG_SCALE).bit_length() - 1
    return Fraction(b, _LOG_SCALE), Fraction(b + 1, _LOG_SCALE)


def top_entropy(
    sft: SftSpec,
    tolerance: Fraction = DEFAULT_ENTROPY_TOL,
    depth_cap: int = DEFAULT_ENTROPY_DEPTH_CAP,
) -> EntropyBracket:
    """A bracket around the topological entropy from transfer counts.

    For a nonnegative matrix with all row sums in [a, b] the spectral
    radius lies in [a, b]; applying this to powers of the transfer matrix
    gives brackets [log2(min rowsum)/n, log2(max rowsum)/n] whose
    intersection over n encloses the entropy.  Returns the widest-effort
    bracket with ``tolerance_met=False`` if the cap depth is reached first.
    """
    core = transfer_graph(sft)
    if not core.states:
        raise ArgumentError("empty subshift has no entropy")
    vec = [1] * len(core.states)  # A**n applied to the ones vector
    lo_best, hi_best = Fraction(0), None
    for n in range(1, depth_cap + 1):
        vec = core.step(vec)
        lo_n = _log2_bracket(min(vec))[0] / n
        hi_n = _log2_bracket(max(vec))[1] / n
        lo_best = max(lo_best, lo_n)
        hi_best = hi_n if hi_best is None else min(hi_best, hi_n)
        if hi_best - lo_best <= tolerance:
            return EntropyBracket(lo_best, hi_best, True)
    return EntropyBracket(lo_best, hi_best, False)
