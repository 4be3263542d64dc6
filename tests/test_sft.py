import itertools
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import bracket_contains, necklace_count
from symdyn import sft as sft_module
from symdyn.entropy import MANTISSA_BITS, EntropyBracket, EntropyValue
from symdyn.errors import ArgumentError, ResourceCapError
from symdyn.sft import (
    _duval,
    _floor_log2_power,
    _FLOOR_MARGIN,
    _LOG_SCALE,
    _LOG_SQUARINGS,
    Alphabet,
    PeriodicOrbit,
    SftSpec,
    capacities,
    DEFAULT_PERIOD_CAP,
    DEFAULT_WORD_CAP,
    _check_word_cap,
    count_words,
    full_shift,
    golden_mean,
    language_nonempty,
    necklace,
    per_table,
    periodic_orbits,
    top_entropy,
    validate,
    word,
    word_counts,
    words_of_length,
    words_up_to,
)


def naive_admits(sft, w):
    """Reference: compare every forbidden word at every offset."""
    for f in sft.forbidden:
        lf = len(f)
        for i in range(len(w) - lf + 1):
            if w[i : i + lf] == f:
                return False
    return True


def naive_admits_cyclic(sft, w):
    """Reference: every window of w repeated L + 1 times is a cyclic window."""
    memory = max((len(f) for f in sft.forbidden), default=1)
    return len(w) > 0 and naive_admits(sft, w * (memory + 1))


def naive_least_rotation(w):
    """Reference: the least of all rotations, quadratic in the length."""
    return min(w[r:] + w[:r] for r in range(len(w)))


def naive_minimal_period(w):
    """Reference: the least divisor d of len(w) with w equal to its rotation by d."""
    n = len(w)
    for d in range(1, n):
        if n % d == 0 and w == w[d:] + w[:d]:
            return d
    return n


def naive_enumerate_periodic(sft, n, cap=DEFAULT_PERIOD_CAP):
    """Reference: the orbits of minimal period n from one walk over the
    words of length n, each tested with the quadratic references above."""
    if n < 1:
        raise ArgumentError("period must be >= 1")
    if n > cap:
        raise ResourceCapError(f"period {n} exceeds cap {cap}")
    _check_word_cap(word_counts(sft, n), range(1, n + 1), DEFAULT_WORD_CAP)
    out = [
        PeriodicOrbit(w)
        for w in words_of_length(sft, n)
        if naive_minimal_period(w) == n and w == naive_least_rotation(w) and sft.admits_cyclic(w)
    ]
    out.sort()
    return out


def naive_step(graph, vec):
    """Reference: the adjacency matrix times vec, one sum per state."""
    return [sum([vec[j] for j in outs.values()]) for outs in graph.succ]


def naive_word_counts(sft, n):
    """Reference: the numbers of words of lengths 0..n from a vector over
    every automaton state, stepped n times; after m steps vec[i] counts the
    walks of length m from state i, and the root's entry the words."""
    auto = sft._automaton
    vec = [1] * len(auto.states)
    counts = [1]
    for _ in range(n):
        vec = naive_step(auto, vec)
        counts.append(vec[0])
    return counts


def naive_mantissa(v, up):
    """(m, s) with m <= 2**MANTISSA_BITS and m * 2**s <= v, or >= v if up."""
    s = max(0, v.bit_length() - MANTISSA_BITS)
    m = v >> s
    return (m + 1 if up and m << s != v else m), s


def naive_floor_log2_power_bound(x, up):
    """floor(log2(y)) for a y <= x**_LOG_SCALE (y >= x**_LOG_SCALE if up),
    from repeated squaring of a mantissa rounded the same way at every step."""
    m, e = naive_mantissa(x, up)
    for _ in range(_LOG_SQUARINGS):
        m, s = naive_mantissa(m * m, up)
        e = 2 * e + s
    return m.bit_length() - 1 + e


def naive_log2_bracket(x):
    """Reference: rational lo <= log2(x) <= hi with width 1/_LOG_SCALE, from
    a lower and an upper bound of x**_LOG_SCALE squared apart, and the exact
    power where they disagree."""
    if x & (x - 1) == 0:
        e = x.bit_length() - 1
        return Fraction(e), Fraction(e)
    b = naive_floor_log2_power_bound(x, up=False)
    if b != naive_floor_log2_power_bound(x, up=True):
        b = (x**_LOG_SCALE).bit_length() - 1
    return Fraction(b, _LOG_SCALE), Fraction(b + 1, _LOG_SCALE)


def naive_top_entropy(sft, tolerance, depth_cap):
    """Reference: the row-sum bracket on the essential automaton in Fraction
    arithmetic, two log brackets per depth step."""
    core = sft._core
    if not core.states:
        raise ArgumentError("empty subshift has no entropy")
    vec = [1] * len(core.states)
    lo_best, hi_best = Fraction(0), None
    for n in range(1, depth_cap + 1):
        vec = naive_step(core, vec)
        lo_n = naive_log2_bracket(min(vec))[0] / n
        hi_n = naive_log2_bracket(max(vec))[1] / n
        lo_best = max(lo_best, lo_n)
        hi_best = hi_n if hi_best is None else min(hi_best, hi_n)
        if hi_best - lo_best <= tolerance:
            return EntropyBracket(lo_best, hi_best, True)
    return EntropyBracket(lo_best, hi_best, False)


def brute_force_minimal_period_count(sft, n):
    """Independent oracle: scan all words, test cyclic admissibility."""
    count = 0
    for w in itertools.product(sft.alphabet.symbols, repeat=n):
        if naive_minimal_period(w) == n and naive_admits_cyclic(sft, w):
            count += 1
    return count


def random_specs(seed, count):
    """Specs over 2-3 symbols with 1-4 forbidden words of length 1-3;
    many have dead ends (admissible words with no bi-infinite continuation)."""
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        symbols = ("0", "1", "2")[: rng.randint(2, 3)]
        forbidden = {
            tuple(rng.choice(symbols) for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(1, 4))
        }
        specs.append(SftSpec(Alphabet(symbols), frozenset(forbidden)))
    return specs


def trace_specs(seed, count):
    """Specs of memory 1-4 (cycling) over 2-3 symbols: at most 2**L of the
    L-words allowed, so no language outgrows the full 2-shift, plus at most
    one shorter forbidden word; many have dead ends or an empty language."""
    rng = random.Random(seed)
    specs = []
    for i in range(count):
        memory = i % 4 + 1
        symbols = ("0", "1", "2")[: rng.randint(2, 3)]
        words = list(itertools.product(symbols, repeat=memory))
        allowed = rng.randint(2 ** (memory - 1), min(2**memory, len(words) - 1))
        forbidden = set(rng.sample(words, len(words) - allowed))
        for _ in range(rng.randint(0, 1)):
            forbidden.add(tuple(rng.choice(symbols) for _ in range(rng.randint(1, memory))))
        specs.append(SftSpec(Alphabet(symbols), frozenset(forbidden)))
    return specs


@st.composite
def small_specs(draw):
    symbols = ("0", "1", "2")[: draw(st.integers(1, 3))]
    words = st.lists(st.sampled_from(symbols), min_size=1, max_size=4).map(tuple)
    return SftSpec(Alphabet(symbols), draw(st.frozensets(words, max_size=5)))


@given(small_specs())
@settings(max_examples=100, deadline=None)
def test_compiled_form_matches_naive_scan(spec):
    for n in range(0, 7):
        words = list(itertools.product(spec.alphabet.symbols, repeat=n))
        for w in words:
            assert spec.admits(w) == naive_admits(spec, w)
            assert spec.admits_cyclic(w) == naive_admits_cyclic(spec, w)
        assert list(words_of_length(spec, n)) == [w for w in words if naive_admits(spec, w)]
        if n >= 1:
            reps = [o.representative for o in periodic_orbits(spec, n)[n]]
            cyclic = {naive_least_rotation(w) for w in words if naive_minimal_period(w) == n and naive_admits_cyclic(spec, w)}
            assert reps == sorted(cyclic)
            assert n * len(reps) == brute_force_minimal_period_count(spec, n)


def test_full_shift_fixed_points():
    orbits = periodic_orbits(full_shift("01"), 1)[1]
    assert [o.representative for o in orbits] == [("0",), ("1",)]


def test_full_shift_period_three():
    # oracle: brute force over all 2^3 words, filter minimal period
    assert brute_force_minimal_period_count(full_shift("01"), 3) == 6
    orbits = periodic_orbits(full_shift("01"), 3)[3]
    assert len(orbits) == 2 and all(o.period == 3 for o in orbits)


def test_golden_mean_period_four_against_trace():
    gm = golden_mean()
    # trace of [[1,1],[1,0]]^n counts admissible cyclic words = Lucas numbers
    lucas = [None, 1, 3, 4, 7]
    counts = dict(per_table(gm, 4).counts)
    total = sum(counts[d] for d in (1, 2, 4))
    assert total == lucas[4] == 7
    assert brute_force_minimal_period_count(gm, 4) == 4


def test_per_table_full_shift_matches_necklace_oracle():
    table = per_table(full_shift("01"), 3)
    assert dict(table.counts) == {1: 2, 2: 2, 3: 6}
    for n in range(1, 13):
        assert necklace_count(2, n) == n * len(periodic_orbits(full_shift("01"), n)[n])


def test_per_table_golden_mean():
    table = per_table(golden_mean(), 2)
    assert dict(table.counts) == {1: 1, 2: 2}


def test_aperiodic_truncation_all_zero():
    # no period-1 or period-2 points: 0^inf, 1^inf, (01)^inf all excluded
    spec = SftSpec(
        Alphabet(("0", "1")),
        frozenset({word("11"), word("000"), word("0101")}),
    )
    validate(spec)  # language still nonempty: (001)^inf survives
    table = per_table(spec, 2)
    assert dict(table.counts) == {1: 0, 2: 0}


def test_period_cap():
    with pytest.raises(ResourceCapError):
        periodic_orbits(full_shift("01"), 21)[21]


def test_enumerate_periodic_obeys_the_word_cap():
    # 8**7 - 1 admissible words of length 7: the walk to period 20 is refused
    # up front, with the message `symdyn per` gives, instead of running for hours
    spec = SftSpec(Alphabet(tuple("01234567")), frozenset({word("0123456")}))
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match="^more than 2000000 admissible words of length 7$"):
        periodic_orbits(spec, 20)[20]
    assert time.perf_counter() - start < 5.0


def test_capacities_full_shift():
    caps = capacities(per_table(full_shift("01"), 12))
    assert caps.p_sup == EntropyValue(1)
    assert caps.p_lim_estimate <= caps.p_sup


def test_capacities_all_zero_table():
    spec = SftSpec(
        Alphabet(("0", "1")),
        frozenset({word("11"), word("000"), word("0101")}),
    )
    caps = capacities(per_table(spec, 2))
    assert caps.p_sup == EntropyValue(0)
    assert caps.p_lim_estimate == EntropyValue(0)


def test_capacities_two_row_system_approaches_one_bit():
    # Array-like toy: row 1 frozen constant, row 2 free binary.  Minimal
    # period n points number 2*M(n) with M(n) ~ 2^n, so the tail estimate
    # approaches 1 bit from above.
    rows = (Alphabet(("a", "b")), Alphabet(("0", "1")))
    symbols = tuple(itertools.product(*[a.symbols for a in rows]))
    forbidden = set()
    for x in "ab":
        for y in "ab":
            if x != y:
                for s0 in "01":
                    for s1 in "01":
                        forbidden.add(((x, s0), (y, s1)))
    spec = SftSpec(Alphabet(symbols), frozenset(forbidden), rows)
    N = 12
    table = per_table(spec, N)
    # oracle: counts must equal 2 * (# binary words of minimal period n)
    assert table.counts == tuple((n, 2 * necklace_count(2, n)) for n in range(1, N + 1))
    caps = capacities(table)
    est = caps.p_lim_estimate.approx()
    assert abs(est - 1.0) <= 2.0 / (N - len(caps.window) + 1)
    assert caps.p_lim_estimate <= caps.p_sup


def test_capacity_bounded_by_alphabet():
    for spec in (full_shift("01"), golden_mean(), full_shift("abc")):
        caps = capacities(per_table(spec, 8))
        assert caps.p_sup <= EntropyValue.log2_of(spec.alphabet.size)


def test_top_entropy_examples():
    assert top_entropy(full_shift("01")) == EntropyBracket_exact(1)
    single = SftSpec(Alphabet(("0",)))
    assert top_entropy(single) == EntropyBracket_exact(0)
    bracket = top_entropy(golden_mean())
    phi = math.log2((1 + math.sqrt(5)) / 2)
    assert bracket.tolerance_met and bracket.width <= Fraction(1, 100)
    assert bracket_contains(bracket, phi)


def EntropyBracket_exact(v):
    from symdyn.entropy import EntropyBracket

    return EntropyBracket(Fraction(v), Fraction(v))


def lucas_fibonacci(n):
    """(L_n, F_n), the Lucas and Fibonacci numbers: phi**n = (L_n + F_n sqrt 5) / 2."""
    L, F = 2, 0
    for _ in range(n):
        L, F = (L + 5 * F) // 2, (L + F) // 2
    return L, F


def at_most_log2_phi(r):
    """a/b <= log2 phi  <=>  2**(a+1) <= L_b + F_b sqrt 5, decided on integers."""
    a, b = r.numerator, r.denominator
    L, F = lucas_fibonacci(b)
    x = 2 ** (a + 1) - L
    return x <= 0 or x * x <= 5 * F * F


def at_least_log2_phi(r):
    """c/d >= log2 phi  <=>  L_d + F_d sqrt 5 <= 2**(c+1), decided on integers."""
    c, d = r.numerator, r.denominator
    L, F = lucas_fibonacci(d)
    y = 2 ** (c + 1) - L
    return y >= 0 and 5 * F * F <= y * y


def test_top_entropy_against_lucas_numbers():
    assert [lucas_fibonacci(n) for n in range(6)] == [(2, 0), (1, 1), (3, 1), (4, 2), (7, 3), (11, 5)]
    # log2 phi = 0.6942...
    assert at_most_log2_phi(Fraction(69, 100)) and not at_most_log2_phi(Fraction(7, 10))
    assert at_least_log2_phi(Fraction(7, 10)) and not at_least_log2_phi(Fraction(69, 100))
    for tol in (Fraction(1, 20), Fraction(1, 100), Fraction(1, 1000)):
        bracket = top_entropy(golden_mean(), tol)
        assert at_most_log2_phi(bracket.lo) and at_least_log2_phi(bracket.hi), (tol, bracket)


def test_count_words_matches_enumeration():
    # forbidding every word that leaves 2 makes 2 a dead end: 6 words of length 2
    dead_end = SftSpec(Alphabet(("0", "1", "2")), frozenset({word("20"), word("21"), word("22")}))
    assert count_words(dead_end, 2) == 6
    for spec in (full_shift("01"), golden_mean(), dead_end, *random_specs(5, 40)):
        for n in range(0, 9):
            assert count_words(spec, n) == sum(1 for _ in words_of_length(spec, n))


def recursive_words_of_length(sft, n):
    """Reference: the recursive depth-first walk words_of_length replaced."""
    if n == 0:
        yield ()
        return
    memory = sft.memory

    def extend(prefix):
        if len(prefix) == n:
            yield prefix
            return
        for s in sft.alphabet.symbols:
            cand = prefix + (s,)
            if sft.admits(cand[-memory:]):
                yield from extend(cand)

    yield from extend(())


def naive_words_up_to(sft, n):
    """Reference: the recursive preorder walk, each extension checked by the
    offset scan."""

    def extend(prefix):
        for s in sft.alphabet.symbols:
            cand = prefix + (s,)
            if naive_admits(sft, cand):
                yield cand
                if len(cand) < n:
                    yield from extend(cand)

    return extend(()) if n >= 1 else iter(())


def test_iterative_walk_matches_recursive_walk():
    dead_end = SftSpec(Alphabet(("0", "1", "2")), frozenset({word("20"), word("21"), word("22")}))
    unsorted = SftSpec(Alphabet(("b", "a", "c")), frozenset({word("ab"), word("cc")}))
    for spec in (full_shift("01"), golden_mean(), dead_end, unsorted, *random_specs(5, 40), *trace_specs(9, 40)):
        for n in range(0, 9):
            assert list(words_of_length(spec, n)) == list(recursive_words_of_length(spec, n))
            assert list(words_up_to(spec, n)) == list(naive_words_up_to(spec, n))


def test_walk_deeper_than_the_recursion_limit():
    alternating = SftSpec(Alphabet(("0", "1")), frozenset({word("00"), word("11")}))
    n = 3 * sys.getrecursionlimit()
    assert list(words_of_length(alternating, n)) == [
        tuple("01" * (n // 2) + "0" * (n % 2)),
        tuple("10" * (n // 2) + "1" * (n % 2)),
    ]
    assert list(words_of_length(alternating, -1)) == []


def test_empty_language_detected():
    spec = SftSpec(Alphabet(("0",)), frozenset({word("0")}))
    assert not language_nonempty(spec)
    with pytest.raises(ArgumentError):
        validate(spec)


@given(st.integers(1, 8))
@settings(max_examples=20, deadline=None)
def test_orbit_canonical_form(n):
    import random

    rng = random.Random(n)
    w = tuple(rng.choice("01") for _ in range(n))
    r, _ = necklace(w)
    assert w[r:] + w[:r] == min(w[i:] + w[:i] for i in range(n))


def test_periodic_orbit_rejects_non_minimal():
    with pytest.raises(ArgumentError):
        PeriodicOrbit.of(word("0101"))
    with pytest.raises(ArgumentError, match="^an orbit needs a nonempty word$"):
        PeriodicOrbit.of(())


def test_periodic_orbits_match_the_per_period_walks():
    from test_generator import delayed_copy_system

    dead_end = SftSpec(Alphabet(("0", "1", "2")), frozenset({word("20"), word("21"), word("22")}))
    rng = random.Random(19)
    unsorted = [full_shift(("b", "a", "c"))]
    for _ in range(12):  # symbols not in sorted order, so alphabet order is not `<` order
        symbols = tuple(rng.sample(("c", "b", "a"), 3))
        forbidden = {tuple(rng.choice(symbols) for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(1, 3))}
        unsorted.append(SftSpec(Alphabet(symbols), frozenset(forbidden)))
    specs = [
        full_shift("01"),
        golden_mean(),
        dead_end,
        delayed_copy_system(2),
        *unsorted,
        *random_specs(17, 40),
        *trace_specs(23, 40),
    ]
    assert any(len(spec._core.states) < len(spec._automaton.states) for spec in specs)  # dead ends
    for spec in specs:
        N = 6 if spec.alphabet.size > 3 else 8
        table = periodic_orbits(spec, N)
        assert list(table) == list(range(1, N + 1))
        for n, orbits in table.items():
            assert orbits == naive_enumerate_periodic(spec, n)


def assert_necklace(w):
    r, p = necklace(w)
    assert w[r:] + w[:r] == naive_least_rotation(w)
    assert p == naive_minimal_period(w)
    lyndon = naive_minimal_period(w) == len(w) and naive_least_rotation(w) == w
    assert (_duval(w, 0, len(w)) == (len(w), 0)) == lyndon


def test_necklace_matches_the_quadratic_references():
    for n in range(1, 10):  # every word of length <= 9 over 3 symbols
        for w in itertools.product("abc", repeat=n):
            assert_necklace(w)
    rng = random.Random(2)
    for _ in range(400):
        symbols = rng.choice(("01", "012", "0001"))
        assert_necklace(tuple(rng.choice(symbols) for _ in range(rng.randint(1, 200))))
    for _ in range(400):  # powers u^k, and u^k followed by a prefix of u
        u = tuple(rng.choice("012") for _ in range(rng.randint(1, 8)))
        w = u * rng.randint(1, 25)
        assert_necklace(w)
        assert_necklace(w + u[: rng.randint(0, len(u))])
    pairs = tuple(itertools.product("ab", "01"))  # symbols of a two-row system
    for _ in range(400):
        assert_necklace(tuple(rng.choice(pairs) for _ in range(rng.randint(1, 40))))


def test_periodic_orbit_of_a_long_word_is_linear():
    # comparing all 80,000 rotations of 80,000 symbols would take about 90 s
    w = tuple("1" + "0" * 79_999)
    start = time.perf_counter()
    orbit = PeriodicOrbit.of(w)
    assert time.perf_counter() - start < 5.0
    assert orbit.representative == tuple("0" * 79_999 + "1")


def test_per_table_full_three_shift_matches_necklace_oracle():
    fs3 = full_shift("abc")
    for n in range(1, 9):
        assert necklace_count(3, n) == n * len(periodic_orbits(fs3, n)[n])


def test_per_table_matches_enumeration():
    from test_generator import delayed_copy_system

    dead_end = SftSpec(Alphabet(("0", "1", "2")), frozenset({word("20"), word("21"), word("22")}))
    empty = SftSpec(Alphabet(("0", "1")), frozenset({word("0"), word("1")}))
    two_rows = delayed_copy_system(2)
    specs = [full_shift("01"), golden_mean(), dead_end, empty, two_rows, *trace_specs(11, 48)]
    assert {spec.memory for spec in specs} == {1, 2, 3, 4}
    assert any(len(spec._core.states) < len(spec._automaton.states) for spec in specs)  # dead ends
    assert sum(not language_nonempty(spec) for spec in specs) > 1
    for spec in specs:
        table = per_table(spec, 14)
        assert table.counts == tuple((n, n * len(periodic_orbits(spec, n)[n])) for n in range(1, 15))
    assert per_table(two_rows, 14).counts[-1] == (14, necklace_count(2, 14))


def test_per_table_full_shift_at_the_cap_matches_necklace_oracle():
    # enumerating the 2**20 words of length 20 took ~30 s; the traces take milliseconds
    table = per_table(full_shift("01"), 20)
    assert table.counts == tuple((n, necklace_count(2, n)) for n in range(1, 21))


def test_per_table_cap_message_unchanged():
    for table in (per_table, periodic_orbits):  # the same horizon checks, before any walk
        for spec, N, cap in ((full_shift("01"), 21, 20), (golden_mean(), 6, 5), (golden_mean(), 3, 0)):
            with pytest.raises(ResourceCapError, match=f"^period {cap + 1} exceeds cap {cap}$"):
                table(spec, N, cap=cap)
        with pytest.raises(ArgumentError, match="table horizon must be >= 1"):
            table(golden_mean(), 0)


@st.composite
def log_bracket_inputs(draw):
    """Integers up to 2**4096, and 2**k +- 1, which sit so close to a power of
    two that the squared-mantissa bounds disagree for large k."""
    k = draw(st.integers(1, 4096))
    return draw(st.one_of(st.integers(1, 2**k), st.sampled_from([2**k - 1, 2**k + 1])))


def least_root_above(m):
    """The least x with x**1024 >= 2**m: ten nested ceilings of square roots."""
    x = 1 << m
    for _ in range(10):
        x = math.isqrt(x - 1) + 1
    return x


@given(log_bracket_inputs())
@example(2**4096 - 1)  # 2**k - 1, k > 64: the mantissa bounds disagree, so the exact power is taken
@example(2**1000 - 1)
@example(2**4096 + 1)
@example(2**1000 + 1)
@example(least_root_above(1024 * 200 + 1))  # x**1024 just above 2**m: the lower bound misses
@example(least_root_above(1024 * 90 + 500))  # it, and only the exact power finds b = m
@example(2**1023 - 1)  # the float filter's bit bound: 1,023 bits, and 1,024
@example(2**1023 + 1)
@example(2**1024 - 1)  # 1,024 and 1,025 bits
@example(2**1024 + 1)
@example(3 << 1020)  # far from a tie, on both sides of the bound
@example(3 << 1022)
@settings(max_examples=120, deadline=None)
def test_log2_bracket_matches_exact_power(x):
    b, exact = _floor_log2_power(x)
    assert exact == (x & (x - 1) == 0)
    assert b == (x**1024).bit_length() - 1  # the exact 1024th power
    assert naive_log2_bracket(x) == (Fraction(b, 1024), Fraction(b + (not exact), 1024))


@pytest.mark.parametrize(
    "x, filtered",
    [
        (3 << 1020, True),  # 1,022 bits: the float decides
        (3 << 1022, False),  # 1,024 bits: past the bound, the mantissa bounds decide
        (2**1023 - 1, False),  # 1,023 bits, but 1024*log2(x) lies just below an integer
        (2**1023 + 1, False),
        (least_root_above(1024 * 200 + 1), False),  # inside the margin: the fallback is tested
        (least_root_above(1024 * 90 + 500), False),
        (10**100, True),
    ],
    ids=["3<<1020", "3<<1022", "2**1023-1", "2**1023+1", "root-200", "root-90", "10**100"],
)
def test_the_float_filter_answers_only_clear_of_an_integer(monkeypatch, x, filtered):
    f = math.log2(x) * _LOG_SCALE
    clear = _FLOOR_MARGIN < f - math.floor(f) < 1 - _FLOOR_MARGIN
    assert filtered == (clear and x.bit_length() <= 1023)
    calls = []
    real = sft_module.power_bracket
    monkeypatch.setattr(sft_module, "power_bracket", lambda *args: calls.append(args) or real(*args))
    assert _floor_log2_power(x) == ((x**1024).bit_length() - 1, False)
    assert calls == ([] if filtered else [(x, _LOG_SCALE, MANTISSA_BITS)])


def test_top_entropy_refuses_a_depth_cap_below_one():
    for cap in (0, -1, -160):
        with pytest.raises(ArgumentError, match=f"^depth cap must be >= 1, got {cap}$"):
            top_entropy(golden_mean(), Fraction(1, 100), depth_cap=cap)
    assert top_entropy(golden_mean(), Fraction(1, 100), depth_cap=1) == EntropyBracket(
        Fraction(0), Fraction(1), False
    )
    for tol in (float("inf"), float("nan")):
        with pytest.raises(ArgumentError, match="^tolerance must be finite"):
            top_entropy(golden_mean(), tol)
