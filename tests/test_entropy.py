import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bracket_contains
from symdyn.diagram import INF
from symdyn.entropy import (
    MAX_POWER_BITS,
    EntropyBracket,
    EntropyValue,
    _perfect_power,
    int_nthroot,
    optimal_alphabet_size,
)
from symdyn.errors import ArgumentError, ResourceCapError


@given(st.integers(0, 2**4096), st.integers(1, 64))
@settings(max_examples=300, deadline=None)
def test_int_nthroot_bracket(x, n):
    # the range runs past 2**1024, where a float seed overflows
    r = int_nthroot(x, n)
    assert r**n <= x < (r + 1) ** n


def test_int_nthroot_near_perfect_powers():
    # 2**2000 overflows a float seed; near 10**200 a float seed is off by
    # far more than a unit step
    assert int_nthroot(2**3000, 3) == 2**1000
    assert int_nthroot(2**3000 - 1, 3) == 2**1000 - 1
    assert int_nthroot(10**200, 2) == 10**100
    assert int_nthroot(10**200 - 1, 2) == 10**100 - 1
    assert int_nthroot(2**301, 2) ** 2 <= 2**301 < (int_nthroot(2**301, 2) + 1) ** 2


@given(st.integers(2, 12), st.integers(0, 6), st.integers(1, 6), st.integers(0, 6), st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_equal_values_hash_equal(b, i, n1, j, n2):
    # log2(b**i)/n1 and log2(b**j)/n2 are equal exactly when i*n2 == j*n1
    x, y = EntropyValue.log2_of(b**i, n1), EntropyValue.log2_of(b**j, n2)
    assert (x == y) == (i * n2 == j * n1)
    if x == y:
        assert hash(x) == hash(y)
        assert len({x, y}) == 1
    # trying prime exponents only finds the same base as trying them all
    for c in (b**i, b**j, b**i + 1):
        assert _perfect_power(c) == perfect_power_every_exponent(c)


def perfect_power_every_exponent(c: int) -> tuple:
    e, k = 1, 2
    while k <= c.bit_length():
        r = int_nthroot(c, k)
        if r**k == c:
            c, e = r, e * k
        else:
            k += 1
    return c, e


def test_equal_log_forms_share_a_set_slot():
    assert len({EntropyValue.log2_of(9, 2), EntropyValue.log2_of(3, 1)}) == 1
    # rendering keeps the form as given, so reports do not move
    assert EntropyValue.log2_of(9, 2).render() == "log2(9)/2 (1.58496)"


def test_log_form_reduces_to_rational_on_powers_of_two():
    assert EntropyValue.log2_of(8) == EntropyValue(3)
    assert EntropyValue.log2_of(4, 2) == EntropyValue(1)
    assert EntropyValue.log2_of(1, 7) == EntropyValue(0)


def test_exact_cross_comparisons():
    # log2(3) vs 8/5: 3^5 = 243 vs 2^8 = 256 -> log2(3) < 8/5
    assert EntropyValue.log2_of(3) < EntropyValue(Fraction(8, 5))
    assert EntropyValue.log2_of(3) > EntropyValue(Fraction(3, 2))
    # log2(6)/3 vs log2(3)/2: 6^2 = 36 vs 3^3 = 27
    assert EntropyValue.log2_of(6, 3) > EntropyValue.log2_of(3, 2)


@given(st.integers(1, 400), st.integers(1, 6), st.integers(1, 400), st.integers(1, 6))
def test_comparison_matches_floats(c1, n1, c2, n2):
    a, b = EntropyValue.log2_of(c1, n1), EntropyValue.log2_of(c2, n2)
    fa, fb = a.approx(), b.approx()
    if abs(fa - fb) > 1e-9:
        assert (a < b) == (fa < fb)


def test_floor_two_pow():
    assert EntropyValue(Fraction(3, 2)).floor_two_pow() == 2  # 2^1.5 ~ 2.83
    assert EntropyValue(2).floor_two_pow() == 4
    assert EntropyValue.log2_of(10).floor_two_pow() == 10
    assert optimal_alphabet_size(EntropyValue(1)) == 3


def test_infinity_ordering():
    # the one infinity is the diagram algebra's: above every number, but
    # no entropy value compares with it
    assert not isinstance(INF, EntropyValue)
    assert INF > 10**9 and max(Fraction(1), INF) is INF
    for probe in (lambda: INF > EntropyValue(10**9), lambda: max(EntropyValue(1), INF)):
        with pytest.raises(TypeError, match="not supported between instances"):
            probe()


def test_bracket_validation():
    b = EntropyBracket(Fraction(1, 2), Fraction(2, 3))
    assert b.width == Fraction(1, 6)
    assert bracket_contains(b, 0.6)
    with pytest.raises(ValueError):
        EntropyBracket(Fraction(1), Fraction(0))


def test_bracket_contains_compares_exactly():
    third = Fraction(1, 3)
    point = EntropyBracket(third, third)
    assert bracket_contains(point, third)
    # 1/3 + 10**-20 rounds to the same float as 1/3
    assert not bracket_contains(point, third + Fraction(1, 10**20))
    assert not bracket_contains(point, third - Fraction(1, 10**20))
    assert bracket_contains(EntropyBracket(Fraction(0), Fraction(1)), 1)


def test_powers_past_the_bit_cap_are_refused():
    big = EntropyValue(MAX_POWER_BITS + 1)
    with pytest.raises(ResourceCapError):
        big.floor_two_pow()
    with pytest.raises(ResourceCapError):
        big < EntropyValue.log2_of(3)
    # just under the cap the powers are still built exactly
    assert EntropyValue(MAX_POWER_BITS - 1).floor_two_pow() == 2 ** (MAX_POWER_BITS - 1)
    # a root of huge degree never builds a huge power
    assert int_nthroot(2, 10**400) == 1
    assert EntropyValue(Fraction(1, 10**400)).floor_two_pow() == 1


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_every_kind_pickles_at_every_protocol(protocol):
    rational, log_form = EntropyValue(Fraction(-7, 3)), EntropyValue.log2_of(9, 2)
    for value in (rational, log_form):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert back == value and back.render() == value.render()


def test_every_kind_copies():
    for value in (EntropyValue(3), EntropyValue(Fraction(1, 3)), EntropyValue.log2_of(3, 5)):
        for dup in (copy.copy(value), copy.deepcopy(value)):
            assert dup == value and dup.render() == value.render()
            assert hash(dup) == hash(value)


def test_floats_and_bools_are_refused():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not a tenth
    for value in (0.1, 1.0, True, False):
        with pytest.raises(ArgumentError, match="^entropy values must be exact"):
            EntropyValue(value)
    # text is read once, by specfiles.rational: "1/10" is refused here
    with pytest.raises(ArgumentError, match=r"^entropy values must be exact \(int or Fraction\), not '1/10'$"):
        EntropyValue("1/10")


@pytest.mark.parametrize("c, n", [(3, 1.5), (3.0, 1), (True, 2), (3, True), (Fraction(3), 1)])
def test_log2_of_takes_ints_only(c, n):
    with pytest.raises(ArgumentError, match="^log2_of takes ints c and n, not "):
        EntropyValue.log2_of(c, n)


@pytest.mark.parametrize(
    "probe",
    [
        lambda: EntropyValue(1) * 0.1,
        lambda: 0.1 * EntropyValue(1),
        lambda: EntropyValue.log2_of(3) * 0.1,
        lambda: EntropyValue(1) + 0.5,
        lambda: 0.5 + EntropyValue(1),
        lambda: EntropyValue.log2_of(3) + 0.5,
        lambda: EntropyValue(1) + True,
        lambda: EntropyValue(1) * True,
        # values compare but do not add, subtract or scale, exact operands included
        lambda: EntropyValue(1) + 1,
        lambda: 1 + EntropyValue(1),
        lambda: EntropyValue(1) - Fraction(1, 3),
        lambda: EntropyValue(2) * Fraction(1, 2),
        lambda: EntropyValue.log2_of(3) + EntropyValue.log2_of(3),
    ],
)
def test_inexact_operands_are_type_errors(probe):
    with pytest.raises(TypeError, match="unsupported operand"):
        probe()

