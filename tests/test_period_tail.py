import itertools
import random
from fractions import Fraction

import pytest

from conftest import necklace_count
from symdyn.entropy import EntropyValue
from symdyn import period_tail
from symdyn.errors import ArgumentError, ResourceCapError
from symdyn.period_tail import PeriodTailSample, period_tail_from_system
from symdyn.sft import Alphabet, SftSpec, periodic_orbits, rotations
from test_generator import delayed_copy_system
from test_sft import naive_enumerate_periodic


def two_row_toy() -> SftSpec:
    """Row 1 frozen constant, row 2 free binary: the simplest truncation
    of a system whose periodic points cluster by their top row."""
    rows = (Alphabet(("a", "b")), Alphabet(("0", "1")))
    symbols = tuple(itertools.product(*[r.symbols for r in rows]))
    forbidden = set()
    for x in "ab":
        for y in "ab":
            if x != y:
                for s0 in "01":
                    for s1 in "01":
                        forbidden.add(((x, s0), (y, s1)))
    return SftSpec(Alphabet(symbols), frozenset(forbidden), rows)


def naive_period_tail(sft, periods, K):
    """Reference: for each orbit and depth, rescan every point of its period."""
    out = []
    for n in sorted(set(periods)):
        orbits = naive_enumerate_periodic(sft, n)
        points = []
        for o in orbits:
            points.extend(rotations(o.representative))
        for o in orbits:
            vals = []
            for k in range(1, K + 1):
                mine = tuple(sym[:k] for sym in o.representative)
                count = sum(1 for p in points if tuple(sym[:k] for sym in p) == mine)
                vals.append(EntropyValue.log2_of(count, n))
            out.append((o, tuple(vals)))
    return PeriodTailSample(K, tuple(out))


def random_row_systems(seed, count):
    """Two or three binary rows; forbidden 2-words of the product alphabet."""
    rng = random.Random(seed)
    systems = []
    for _ in range(count):
        rows = (Alphabet(("0", "1")),) * rng.randint(2, 3)
        symbols = tuple(itertools.product(*[r.symbols for r in rows]))
        pairs = list(itertools.product(symbols, repeat=2))
        forbidden = frozenset(rng.sample(pairs, rng.randint(len(pairs) // 4, 3 * len(pairs) // 4)))
        systems.append(SftSpec(Alphabet(symbols), forbidden, rows))
    return systems


def test_counter_regrouping_matches_rescan():
    seen_shared = False
    for sft in (delayed_copy_system(2), two_row_toy(), *random_row_systems(7, 24)):
        K = len(sft.rows)
        periods = range(1, 7 if K == 2 else 5)  # the rescan is quadratic in the points
        fast = period_tail_from_system(sft, periods, K)
        assert fast == naive_period_tail(sft, periods, K)
        seen_shared |= any(v != EntropyValue(0) for _, vals in fast.values for v in vals)
    assert seen_shared  # some points share a name, so the counts are not all 1


def test_values_against_direct_count():
    sft = two_row_toy()
    n = 4
    sample = period_tail_from_system(sft, [n], K=2)
    orbits = periodic_orbits(sft, n)[n]
    points = []
    for o in orbits:
        points.extend(o.points())
    for o in orbits:
        for k in (1, 2):
            mine = tuple(sym[:k] for sym in o.representative)
            count = sum(
                1 for p in points if tuple(sym[:k] for sym in p) == mine
            )
            assert sample.value(o, k) == EntropyValue.log2_of(count, n)


def test_full_depth_separates_points():
    sft = two_row_toy()
    sample = period_tail_from_system(sft, [3], K=2)
    for o in sample.orbits():
        assert sample.value(o, 2) == EntropyValue(0)


def test_shared_top_row_gives_one_bit_asymptotically():
    sft = two_row_toy()
    n = 6
    sample = period_tail_from_system(sft, [n], K=1)
    # all minimal-period-n points with the same constant top row: M(n) many
    expected = EntropyValue.log2_of(necklace_count(2, n), n)
    for o in sample.orbits():
        assert sample.value(o, 1) == expected
    assert abs(expected.approx() - 1.0) < 0.35  # approaches 1 bit with n


def rational_bits(v: EntropyValue) -> Fraction:
    """The rational a rational entropy equals: read off its float, then
    checked exactly."""
    q = Fraction(v.approx()).limit_denominator(1 << 20)
    if v != q:
        raise ArgumentError(f"{v!r} is not a rational of denominator at most 2**20")
    return q


def mixture_value(sample, parts, k: int) -> Fraction:
    """Weighted average of the rational tail values over (orbit, weight)
    pairs summing to 1, computed on Fractions."""
    total = sum((Fraction(w) for _, w in parts), Fraction(0))
    if total != 1:
        raise ArgumentError("mixture weights must sum to 1")
    return sum((Fraction(w) * rational_bits(sample.value(orbit, k)) for orbit, w in parts), Fraction(0))


def test_harmonic_mixture():
    sft = two_row_toy()
    sample = period_tail_from_system(sft, [1], K=2)
    orbits = sample.orbits()
    # four fixed points, two per top row: every value at k=1 is the rational 1
    assert len(orbits) == 4 and all(sample.value(o, 1) == 1 for o in orbits)
    a, b = orbits[0], orbits[1]
    mixed = mixture_value(sample, [(a, Fraction(1, 2)), (b, Fraction(1, 2))], 1)
    assert type(mixed) is Fraction and mixed == 1


def test_selection_override_and_errors():
    sft = two_row_toy()
    orbits = periodic_orbits(sft, 3)[3]
    assert len(orbits) == 4  # two top rows times two period-3 bottom orbits
    chosen = {3: orbits[:2]}
    sample = period_tail_from_system(sft, [3], K=1, selection=chosen)
    assert set(sample.orbits()) == set(orbits[:2])
    with pytest.raises(ArgumentError):
        sample.value(orbits[-1], 1)
    with pytest.raises(ArgumentError):
        period_tail_from_system(sft, [2], K=5)  # deeper than the row count
    flat = SftSpec(Alphabet(("0", "1")))
    with pytest.raises(ArgumentError):
        period_tail_from_system(flat, [1], K=1)


def test_one_walk_at_the_largest_period(monkeypatch):
    sft = two_row_toy()
    expected = period_tail_from_system(sft, (5, 1, 3), K=2)
    horizons = []

    def counted(spec, N):
        horizons.append(N)
        return periodic_orbits(spec, N)

    monkeypatch.setattr(period_tail, "periodic_orbits", counted)
    assert period_tail_from_system(sft, (5, 1, 3), K=2) == expected
    assert horizons == [5]
    assert period_tail_from_system(sft, (), K=2) == PeriodTailSample(2, ())
    assert horizons == [5]  # an empty selection walks nothing


def test_period_checks_come_before_any_walk():
    sft = two_row_toy()
    with pytest.raises(ResourceCapError, match="^period 21 exceeds cap 20$"):
        period_tail_from_system(sft, (3, 25), K=1)
    for periods in ((0, 3), (-2,)):
        with pytest.raises(ArgumentError, match="^period must be >= 1$"):
            period_tail_from_system(sft, periods, K=1)


def test_mixture_weights_validated():
    sft = two_row_toy()
    sample = period_tail_from_system(sft, [1], K=1)
    a = sample.orbits()[0]
    with pytest.raises(ArgumentError):
        mixture_value(sample, [(a, Fraction(1, 2))], 1)


def scan_value(sample, orbit, k):
    """Reference: the first (orbit, values) pair naming the orbit."""
    return next(vals[k - 1] for o, vals in sample.values if o == orbit)


def test_indexed_lookup_over_every_orbit():
    sft = two_row_toy()
    sample = period_tail_from_system(sft, [12], K=2)
    assert len(sample.orbits()) == 670
    for o in sample.orbits():
        for k in (1, 2):
            assert sample.value(o, k) == scan_value(sample, o, k)


def test_lookup_misses_and_first_pair_wins():
    sft = two_row_toy()
    orbits = periodic_orbits(sft, 3)[3]
    a, b = orbits[0], orbits[1]
    sample = PeriodTailSample(1, ((a, (EntropyValue(1),)), (a, (EntropyValue(2),))))
    assert sample.value(a, 1) == EntropyValue(1)
    with pytest.raises(ArgumentError, match=r"^depth 2 outside 1\.\.1$"):
        sample.value(a, 2)
    with pytest.raises(ArgumentError, match=r"^depth 0 outside 1\.\.1$"):
        sample.value(b, 0)
    with pytest.raises(ArgumentError) as miss:
        sample.value(b, 1)
    assert str(miss.value) == f"orbit {b.representative!r} not in the selection"
