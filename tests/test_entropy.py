import copy
import operator
import pickle
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import bracket_contains
from symdyn import entropy
from symdyn.diagram import INF
from symdyn.entropy import (
    MAX_POWER_BITS,
    EntropyBracket,
    EntropyValue,
    _perfect_power,
    power_bracket,
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


def naive_cmp(u, v) -> int:
    """Reference: the sign of u - v by cross powers, with no cap.  A value
    is a Fraction or a pair (c, n) for log2(c)/n; p/q vs log2(c)/n compares
    2**(p*n) with c**q, and log2(a)/m vs log2(b)/n compares a**n with b**m."""
    if isinstance(u, Fraction) and isinstance(v, Fraction):
        return (u > v) - (u < v)
    if isinstance(u, Fraction):
        return -naive_cmp(v, u)
    c, n = u
    if isinstance(v, Fraction):
        if v < 0:
            return 1
        lhs, rhs = c**v.denominator, 2 ** (v.numerator * n)
    else:
        d, m = v
        lhs, rhs = c**m, d**n
    return (lhs > rhs) - (lhs < rhs)


def as_value(u) -> EntropyValue:
    return EntropyValue(u) if isinstance(u, Fraction) else EntropyValue.log2_of(*u)


def lucas(n: int) -> int:
    """Points of period n in the golden-mean shift: tr(A**n) = phi**n + psi**n."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


ONE = Fraction(1)
EQUAL_WRITTEN_APART = [((9, 4), (3, 2)), ((27, 6), (9, 4)), ((8, 3), ONE)]
# below float resolution: log2(2**k +- 1)/k differs from 1 by about 2**-k/k,
# and the golden mean's log2(p_n)/n from log2(phi) by about phi**(-2n)/n
NEAR_TIES = [((2**k + d, k), ONE) for k in range(60, 301) for d in (-1, 1)] + [
    ((lucas(n), n), (lucas(m), m)) for n in range(396, 401) for m in (n + 1, n + 2)
]
OPERATORS = (operator.lt, operator.le, operator.eq, operator.ne, operator.gt, operator.ge)


@st.composite
def values(draw):
    """Rationals (negative ones too), log-forms, and powers of small bases,
    which give equal values written apart, rational ones included."""
    kind = draw(st.sampled_from(["rat", "log", "power"]))
    if kind == "rat":
        return draw(st.fractions(-4, 4, max_denominator=64))
    if kind == "log":
        return draw(st.integers(1, 2**64)), draw(st.integers(1, 300))
    return draw(st.integers(2, 12)) ** draw(st.integers(0, 8)), draw(st.integers(1, 12))


def pin(pairs):
    def decorate(test):
        for u, v in pairs:
            test = example(u, v)(test)
        return test

    return decorate


@given(values(), values())
@pin(EQUAL_WRITTEN_APART + NEAR_TIES)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_comparison_matches_cross_powers(u, v):
    a, b = as_value(u), as_value(v)
    sign = naive_cmp(u, v)
    for op in OPERATORS:
        assert op(a, b) == op(sign, 0), (op, u, v)
        assert op(b, a) == op(-sign, 0), (op, v, u)
    if sign == 0:
        assert hash(a) == hash(b)


def test_each_comparison_path_is_reached(monkeypatch):
    # the float filter decides most pairs; near a tie two integer roots
    # decide equality and the power brackets decide the rest
    seen = Counter()

    def spy(name):
        real = getattr(entropy, name)

        def counted(*args):
            out = real(*args)
            seen[name, bool(out)] += 1
            return out

        monkeypatch.setattr(entropy, name, counted)

    for name in ("_float_sign", "_equal_powers", "_bracket_sign"):
        spy(name)

    def paths(u, v):
        seen.clear()
        assert (as_value(u) < as_value(v)) == (naive_cmp(u, v) < 0)
        return {name for (name, _), count in seen.items() if count}

    assert paths((3, 1), Fraction(3, 2)) == {"_float_sign"} and seen["_float_sign", True] == 1
    assert paths((6, 3), (3, 2)) == {"_float_sign"}
    for u, v in EQUAL_WRITTEN_APART[:2]:
        assert paths(u, v) == {"_float_sign", "_equal_powers"} and seen["_equal_powers", True] == 1
    for u, v in NEAR_TIES:
        assert "_bracket_sign" in paths(u, v) and not seen["_float_sign", True]
    assert paths((lucas(400), 400), (lucas(401), 401)) == {"_float_sign", "_equal_powers", "_bracket_sign"}


def digits(x: Decimal) -> tuple:
    """floor(x) and the distance of x from the nearest integer."""
    p = int(x)
    return p, min(x - p, p + 1 - x)


@pytest.mark.parametrize("k", [80, 120, 200])
def test_huge_exponents_are_decided_by_wider_brackets(k):
    # p/2**k against log2(3) is 2**p against 3**(2**k); at 64 bits the
    # lower bracket of 3**(2**k) rounds down to 0 and bounds nothing
    assert power_bracket(3, 2**k, 64)[0] == 0
    with localcontext() as ctx:
        ctx.prec = 120
        p, gap = digits(Decimal(3).ln() / Decimal(2).ln() * 2**k)
    assert gap > Decimal(10) ** -6
    three = EntropyValue.log2_of(3)
    assert EntropyValue(Fraction(p, 2**k)) < three < EntropyValue(Fraction(p + 1, 2**k))


def test_log_forms_of_huge_degree_are_decided_by_wider_brackets():
    # convergents h/k of ln(5)/ln(3) make log2(3)/k and log2(5)/h agree to
    # about 1/k**2; the sign of h*ln(3) - k*ln(5) says which is larger
    with localcontext() as ctx:
        ctx.prec = 200
        ln3, ln5 = Decimal(3).ln(), Decimal(5).ln()
        x, (h0, h1), (k0, k1), checked = ln5 / ln3, (0, 1), (1, 0), 0
        while k1 < 2**100:
            a = int(x)
            x = 1 / (x - a)
            h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
            if k1 > 2**60:
                sign = 1 if h1 * ln3 > k1 * ln5 else -1
                u, v = EntropyValue.log2_of(3, k1), EntropyValue.log2_of(5, h1)
                assert (u > v, u < v) == (sign > 0, sign < 0), (h1, k1)
                checked += 1
    assert checked >= 10


def test_max_keeps_the_first_of_equal_terms():
    terms = [EntropyValue.log2_of(3, 2), EntropyValue.log2_of(9, 4), EntropyValue.log2_of(5, 4)]
    assert max(terms) is terms[0]


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
    # a comparison builds no power, so the size of its values does not matter
    assert (big < EntropyValue.log2_of(3)) is False
    assert EntropyValue(10**400) > EntropyValue.log2_of(3**190, 301)
    assert EntropyValue.log2_of(2**300 + 1, 300) < EntropyValue.log2_of(3**190, 301)
    # only values whose power brackets still overlap at MAX_POWER_BITS bits
    # are refused: log2(2**k + 1)/k exceeds 1 by about 2**-k/k
    with pytest.raises(ResourceCapError):
        EntropyValue.log2_of(2 ** (MAX_POWER_BITS + 100) + 1, MAX_POWER_BITS + 100) > 1
    assert EntropyValue.log2_of(2 ** (MAX_POWER_BITS - 100) + 1, MAX_POWER_BITS - 100) > 1
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

