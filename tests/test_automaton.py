"""The compiled automaton against the code it replaced.

The references below are the earlier implementations, kept verbatim in
substance: the (L-1)-block graph with its sparse-vector traces and its
row-sum entropy bracket, the iterative prefix walk that tested each new
suffix with the forbidden-word scan, and the generator checks that built
every label name as a tuple.  The Fraction entropy loop and the word
counts over every automaton state, from ``test_sft``, are checked here on
the pools of both files.
"""

import itertools
import random
from collections import defaultdict
from dataclasses import astuple
from fractions import Fraction
from typing import NamedTuple

import pytest

from symdyn.entropy import EntropyBracket
from symdyn.errors import ArgumentError, ResourceCapError
from symdyn import sft
from symdyn.generator import (
    DEFAULT_SET_CAP,
    block_code,
    extract_generator,
    partition_to_extension,
)
from symdyn.sft import (
    DEFAULT_WORD_CAP,
    Alphabet,
    SftSpec,
    _mobius,
    count_words,
    full_shift,
    golden_mean,
    language_nonempty,
    per_table,
    periodic_orbits,
    top_entropy,
    word,
    word_counts,
    words_of_length,
)
from test_generator import (
    dead_end_spec,
    delayed_copy_system,
    naive_extract_generator,
    naive_partition_to_extension,
    refusal_at,
    spend_trace,
)
from test_sft import (
    naive_admits,
    naive_log2_bracket,
    naive_top_entropy,
    naive_word_counts,
    random_specs,
    trace_specs,
)


class BlockGraph(NamedTuple):
    """States with successor lists: succ[i] holds, with multiplicity, the
    indices of the states one edge after states[i]."""

    states: tuple
    succ: tuple

    def step(self, vec):
        return [sum([vec[j] for j in outs]) for outs in self.succ]

    def traces(self, N):
        """[tr(A**n) for n = 0..N], each closed walk counted from its start."""
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

    def essential(self):
        alive, keep = None, set(range(len(self.states)))
        while keep != alive:
            alive = keep
            entered = {j for i in alive for j in self.succ[i]}
            keep = {i for i in alive & entered if not alive.isdisjoint(self.succ[i])}
        order = sorted(alive)
        new = {old: i for i, old in enumerate(order)}
        return BlockGraph(
            tuple(self.states[i] for i in order),
            tuple(tuple(new[j] for j in self.succ[i] if j in alive) for i in order),
        )


def memory(spec):
    return max((len(f) for f in spec.forbidden), default=1)


def scan_words_of_length(spec, n):
    """Depth-first, each new letter checked by scanning the last L symbols."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    m = memory(spec)
    prefix, branches = [], [iter(spec.alphabet.symbols)]
    while branches:
        for s in branches[-1]:
            prefix.append(s)
            if not naive_admits(spec, tuple(prefix[-m:])):
                prefix.pop()
            elif len(prefix) == n:
                yield tuple(prefix)
                prefix.pop()
            else:
                branches.append(iter(spec.alphabet.symbols))
                break
        else:
            branches.pop()
            if prefix:
                prefix.pop()


def block_graph(spec):
    states = tuple(scan_words_of_length(spec, memory(spec) - 1))
    index = {st: i for i, st in enumerate(states)}
    succ = tuple(
        tuple(index[(st + (s,))[1:]] for s in spec.alphabet.symbols if naive_admits(spec, st + (s,)))
        for st in states
    )
    return BlockGraph(states, succ)


def block_per_table(spec, N):
    tr = block_graph(spec).essential().traces(N)
    return tuple(
        (n, sum(_mobius(n // d) * tr[d] for d in range(1, n + 1) if n % d == 0)) for n in range(1, N + 1)
    )


def block_count_words(spec, n):
    m = memory(spec) - 1
    if n <= m:
        return sum(1 for _ in scan_words_of_length(spec, n))
    graph = block_graph(spec)
    vec = [1] * len(graph.states)
    for _ in range(n - m):
        vec = graph.step(vec)
    return sum(vec)


def block_top_entropy(spec, tolerance, depth_cap):
    """The row-sum bracket on the essential block graph."""
    core = block_graph(spec).essential()
    if not core.states:
        raise ArgumentError("empty subshift has no entropy")
    vec = [1] * len(core.states)
    lo_best, hi_best = Fraction(0), None
    for n in range(1, depth_cap + 1):
        vec = core.step(vec)
        lo_n = naive_log2_bracket(min(vec))[0] / n
        hi_n = naive_log2_bracket(max(vec))[1] / n
        lo_best = max(lo_best, lo_n)
        hi_best = hi_n if hi_best is None else min(hi_best, hi_n)
        if hi_best - lo_best <= tolerance:
            return EntropyBracket(lo_best, hi_best, True)
    return EntropyBracket(lo_best, hi_best, False)


def capped_words(spec, length, cap):
    for count, w in enumerate(scan_words_of_length(spec, length), 1):
        if count > cap:
            raise ResourceCapError(f"more than {cap} admissible words of length {length}")
        yield w


def tuple_extract_generator(spec, code, depth, c, cap):
    table, r, mult = code.as_dict(), code.radius, []
    for n in range(c, depth + 1):
        L = 2 * n + 1
        groups = defaultdict(set)
        for w in capped_words(spec, L, cap):
            name = tuple(table[w[i - r : i + r + 1]] for i in range(r, L - r))
            groups[name].add(w[n - c : n + c + 1])
        mult.append((n, max((len(v) for v in groups.values()), default=0)))
    return (tuple(mult),)


def tuple_partition_to_extension(spec, code, depth, cap):
    table, r = code.as_dict(), code.radius
    counts = []
    for L in range(1, depth + 1):
        names = {tuple(table[w[i : i + 2 * r + 1]] for i in range(L)) for w in capped_words(spec, L + 2 * r, cap)}
        counts.append((L, len(names)))
    consistent, unique = True, True
    L = depth + 2 * r
    if L % 2 == 0:
        L += 1
    centers = defaultdict(set)
    if block_count_words(spec, L) > cap:
        raise ResourceCapError(f"more than {cap} admissible words of length {L}")
    mid = L // 2
    all_words = list(scan_words_of_length(spec, L))
    names = [tuple(table[w[i : i + 2 * r + 1]] for i in range(L - 2 * r)) for w in all_words]
    for w, name in zip(all_words, names):
        centers[name].add(w[mid])
    for w, name in zip(all_words, names):
        consistent &= w[mid] in centers[name]
        unique &= len(centers[name]) == 1
    return tuple(counts), consistent, unique


def reference_specs(seed, count):
    """Specs over 1-4 symbols with 1-6 forbidden words of length 1-5; among
    them dead ends and empty languages.  Four symbols go with words of
    length at most 4, so no block graph outgrows 81 states."""
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        symbols = "0123"[: rng.choice((1, 2, 2, 3, 3, 4, 4))]
        longest = 4 if len(symbols) == 4 else 5
        forbidden = {
            tuple(rng.choice(symbols) for _ in range(rng.randint(1, longest))) for _ in range(rng.randint(1, 6))
        }
        specs.append(SftSpec(Alphabet(tuple(symbols)), frozenset(forbidden)))
    return specs


SPECS = reference_specs(2024, 320)


def random_code(rng, spec, radius):
    labels = "xyz"[: rng.randint(1, 3)]
    windows = itertools.product(spec.alphabet.symbols, repeat=2 * radius + 1)
    return block_code(radius, {w: rng.choice(labels) for w in windows})


def test_reference_pool_covers_the_hard_cases():
    assert {spec.alphabet.size for spec in SPECS} == {1, 2, 3, 4}
    assert {len(f) for spec in SPECS for f in spec.forbidden} == {1, 2, 3, 4, 5}
    assert sum(not language_nonempty(spec) for spec in SPECS) >= 10
    dead_ends = [spec for spec in SPECS if 0 < len(spec._core.states) < len(spec._automaton.states)]
    assert len(dead_ends) >= 10


def test_automaton_matches_block_graph_and_scans():
    for spec in SPECS:
        assert per_table(spec, 10).counts == block_per_table(spec, 10)
        for n in range(0, 9):
            assert count_words(spec, n) == block_count_words(spec, n)
        for n in range(0, 6):
            assert list(words_of_length(spec, n)) == list(scan_words_of_length(spec, n))
        for n in range(0, 5):
            for w in itertools.product(spec.alphabet.symbols, repeat=n):
                assert spec.admits(w) == naive_admits(spec, w)


def closed_walk_labels(graph, symbols, n):
    """The label sequences of the closed walks of n edges, one per walk and
    its start state."""
    labels = []
    for start in range(len(graph.states)):
        frontier = [(start, ())]
        for _ in range(n):
            frontier = [(t, w + (symbols[k],)) for s, w in frontier for k, t in graph.succ[s].items()]
        labels += [w for s, w in frontier if s == start]
    return labels


def test_core_edges_carry_the_labels_of_the_periodic_points():
    dead_end = SftSpec(Alphabet(("0", "1", "2")), frozenset({word("20"), word("21"), word("22")}))
    specs = [
        full_shift("01"),
        dead_end,
        delayed_copy_system(2),
        *random_specs(17, 40),
        *trace_specs(23, 40),
        *(spec for spec in SPECS if 0 < len(spec._core.states) < len(spec._automaton.states)),
    ]
    for spec in specs:
        symbols = spec.alphabet.symbols
        for graph in (spec._automaton, spec._core):
            assert all(list(outs) == sorted(outs) for outs in graph.succ)  # edges in symbol order
        for n in range(1, 7):
            periodic = [w for w in itertools.product(symbols, repeat=n) if spec.admits_cyclic(w)]
            assert sorted(closed_walk_labels(spec._core, symbols, n)) == sorted(periodic)


@pytest.mark.parametrize("tolerance", [Fraction(1, 20), Fraction(1, 100), Fraction(1, 1000)])
def test_entropy_bracket_matches_block_graph(tolerance):
    for spec in SPECS:
        for depth_cap in (1, 40, 160):
            if language_nonempty(spec):
                assert top_entropy(spec, tolerance, depth_cap) == block_top_entropy(spec, tolerance, depth_cap)
            else:
                with pytest.raises(ArgumentError, match="empty subshift has no entropy"):
                    top_entropy(spec, tolerance, depth_cap)


# the 12 primitive specs of the orbits benchmark at seed 1 (six distinct)
BENCH_PRIMITIVES = [
    SftSpec(Alphabet(("0", "1")), frozenset(map(word, forbidden)))
    for forbidden in (
        ["11"], ["11"], ["11"], ["010"], ["11"], ["010"],
        ["111"], ["00", "000"], ["010"], ["101", "11", "111"], ["11"], ["101", "11", "111"],
    )
]
EMPTY = SftSpec(Alphabet(("0", "1")), frozenset({word("0"), word("1")}))
DEAD_END = SftSpec(Alphabet(("0", "1", "2")), frozenset({word("20"), word("21"), word("22")}))
POOL = [
    full_shift("01"),  # every row sum a power of two: hi is exact
    full_shift("0123"),
    golden_mean(),
    DEAD_END,  # its core is the full 2-shift
    EMPTY,
    delayed_copy_system(2),
    delayed_copy_system(3),
    *random_specs(17, 40),
    *trace_specs(23, 40),
    *SPECS,
    *BENCH_PRIMITIVES,
]


def test_pool_covers_exact_hi_dead_ends_and_empty_languages():
    assert sum(not language_nonempty(spec) for spec in POOL) >= 10
    assert sum(0 < len(spec._core.states) < len(spec._automaton.states) for spec in POOL) >= 10
    assert top_entropy(full_shift("01"), 0, 5) == EntropyBracket(Fraction(1), Fraction(1), True)
    assert top_entropy(DEAD_END, 0, 5) == EntropyBracket(Fraction(1), Fraction(1), True)


@pytest.mark.parametrize(
    "tolerance", [Fraction(0), Fraction(1, 1000), Fraction(1, 100), Fraction(1, 20), Fraction(1, 2), 0.01]
)
def test_entropy_bracket_matches_the_fraction_loop(tolerance):
    for spec in POOL:
        for depth_cap in (1, 40, 160):
            if language_nonempty(spec):
                assert top_entropy(spec, tolerance, depth_cap) == naive_top_entropy(spec, tolerance, depth_cap)
            else:
                with pytest.raises(ArgumentError, match="empty subshift has no entropy"):
                    top_entropy(spec, tolerance, depth_cap)


def test_word_counts_match_the_all_states_pass():
    for spec in POOL:
        for n in range(0, 9):
            assert word_counts(spec, n) == naive_word_counts(spec, n)
    assert word_counts(EMPTY, 8) == [1] + [0] * 8


def refusal(run):
    try:
        run()
    except ResourceCapError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("cap", [0, 3, 10, 60])
def test_word_cap_refusals_match_the_all_states_counts(cap, monkeypatch):
    """periodic_orbits refuses with the same message at the same length when
    its counts come from the all-states pass, and refuses before it walks.
    The generator checks obey the set cap instead: each refuses at the first
    level where the count of its uncapped run passes the cap, and steps no
    set past that level."""
    rng = random.Random(cap)
    walked = []

    def walks(method):
        def counted(*args, **kwargs):
            walked.append(method)
            return method(*args, **kwargs)

        return counted

    monkeypatch.setattr(sft, "words_up_to", walks(sft.words_up_to))
    monkeypatch.setattr(sft, "DEFAULT_WORD_CAP", cap)  # periodic_orbits reads the module's cap
    outcomes = []
    for spec in POOL:
        code = random_code(rng, spec, rng.randint(0, 1))
        with monkeypatch.context() as parent:
            parent.setattr(sft, "word_counts", naive_word_counts)
            expected = refusal(lambda: periodic_orbits(spec, 6))
        del walked[:]
        outcomes.append(refusal(lambda: periodic_orbits(spec, 6)))
        assert outcomes[-1] == expected
        if expected is not None:
            assert not walked
        checks = [
            lambda set_cap: extract_generator(spec, code, 3, 1, set_cap),
            lambda set_cap: partition_to_extension(spec, code, 3, set_cap),
        ]
        for check in checks:
            expected = refusal_at(spend_trace(monkeypatch, lambda: check(DEFAULT_SET_CAP)), cap)
            stepped = spend_trace(monkeypatch, lambda: outcomes.append(refusal(lambda: check(cap))))
            assert outcomes[-1] == expected
            if expected is not None:
                named = int(expected.rsplit(" ", 1)[1])
                assert all(level <= named for level, _ in stepped)
    assert any(o is None for o in outcomes) and any(o is not None for o in outcomes)


def test_symbols_outside_the_alphabet_are_refused():
    spec = full_shift("01")
    assert naive_admits(spec, word("02"))  # the scan would pass a foreign symbol
    for w in (word("2"), word("02"), word("0120"), ("0", 1), (("0",),)):
        assert not spec.admits(w)
        assert not spec.admits_cyclic(w)
    assert spec.admits(word("0110"))


def test_generator_reports_match_tuple_names():
    rng = random.Random(7)
    for spec in SPECS:
        for radius in (0, 1):
            code = random_code(rng, spec, radius)
            for c in (0, 1, 2):
                for depth in range(c, 3):
                    assert astuple(extract_generator(spec, code, depth, c)) == tuple_extract_generator(
                        spec, code, depth, c, DEFAULT_WORD_CAP
                    )
            for depth in range(0, 4):
                assert astuple(partition_to_extension(spec, code, depth)) == tuple_partition_to_extension(
                    spec, code, depth, DEFAULT_WORD_CAP
                )


def outcome(run):
    try:
        return run()
    except ResourceCapError as exc:
        return f"cap: {exc}"


@pytest.mark.parametrize("cap", [0, 3, 10])
def test_word_cap_fails_at_the_same_length(cap, monkeypatch):
    """Under a set cap each check gives the tuple-name reference's answer,
    or refuses at the first level where the count of its uncapped run passes
    the cap.  A cap of 0 refuses every check at level 0, where the graph's
    root is counted."""
    rng = random.Random(cap)
    outcomes = []
    for spec in SPECS[:120]:
        code = random_code(rng, spec, rng.randint(0, 1))
        for depth in (2, 3):
            runs = [
                (lambda set_cap: astuple(extract_generator(spec, code, depth, 1, set_cap)),
                 lambda: tuple_extract_generator(spec, code, depth, 1, DEFAULT_WORD_CAP)),
                (lambda set_cap: astuple(partition_to_extension(spec, code, depth, set_cap)),
                 lambda: tuple_partition_to_extension(spec, code, depth, DEFAULT_WORD_CAP)),
            ]
            for new, old in runs:
                expected = refusal_at(spend_trace(monkeypatch, lambda: new(DEFAULT_SET_CAP)), cap)
                outcomes.append(outcome(lambda: new(cap)))
                assert outcomes[-1] == (old() if expected is None else f"cap: {expected}")
    refused = [o for o in outcomes if isinstance(o, str)]
    assert refused
    if cap == 0:
        assert set(refused) == {"cap: more than 0 reachable sets stepped by level 0"}
        assert len(refused) == len(outcomes)
    else:  # refused at more than one level
        assert len({o.rsplit(" ", 1)[1] for o in refused}) > 1
    if cap == 10:
        assert len(refused) < len(outcomes)


def test_generator_reports_match_the_word_enumeration():
    """The subset steps against the word enumeration they replaced, on the
    pool, the dead-end spec and random radius-0 and radius-1 codes."""
    rng = random.Random(14)
    for spec in [*POOL, dead_end_spec()]:
        for radius in (0, 1):
            code = random_code(rng, spec, radius)
            for depth in range(3 if spec.alphabet.size > 3 else 4):
                for c in (0, 1):
                    if c <= depth:
                        expected = naive_extract_generator(spec, code, depth, c)
                        assert astuple(extract_generator(spec, code, depth, c)) == expected
                expected = naive_partition_to_extension(spec, code, depth)
                assert astuple(partition_to_extension(spec, code, depth)) == expected
