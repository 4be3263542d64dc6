"""Exact entropy values in bits.

All entropies in this package are base-2 logarithms.  A value is either
an exact rational or an exact log-form log2(c)/n with integer c >= 1,
n >= 1.  Every comparison is decided exactly.  Deciding whether
x**e < y**f (p/q vs log2(c)/n is 2**(p*n) vs c**q, log2(a)/m vs log2(b)/n
is a**n vs b**m), a float filter answers first: the sign of
e*log2(x) - f*log2(y), taken only when it exceeds 2**-30 of the sum.
That leaves slack for errors of 2**22 ulps, where libm's `log2` is
within a few (glibc's within 1-2).  Near a tie the answer is exact:
equal values are recognised by two integer roots (with e, f coprime,
x**e == y**f exactly when x = t**f and y = t**e), and unequal ones are
separated by mantissa brackets of x**e and y**f whose width doubles from
64 bits.  No comparison builds x**e itself, so none
is refused for the size of its values; only two values within about
2**-65536 of each other, whose brackets are still joined at
MAX_POWER_BITS bits, are refused (exit 4).  Values compare but do not
add; the diagram algebra's values, its infinity INF included, live in
`diagram`.  Irrational entropies that cannot be pinned down exactly
(spectral radii) are reported as rational brackets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, log2

from .errors import ArgumentError, ResourceCapError

# floor_two_pow refuses to build an exact power past this many bits, and a
# comparison refuses to widen its mantissa brackets past it (both exit 4)
MAX_POWER_BITS = 1 << 16
MANTISSA_BITS = 64  # the first width of a power bracket
_FILTER_MARGIN = 2.0**-30  # relative gap a float log2 difference must clear


def int_nthroot(x: int, n: int) -> int:
    """Floor of the n-th root of a nonnegative integer, exactly."""
    if x < 0 or n < 1:
        raise ValueError("int_nthroot requires x >= 0, n >= 1")
    if x in (0, 1) or n == 1:
        return x
    if x.bit_length() <= n:  # 2 <= x < 2**n
        return 1
    # integer Newton steps fall monotonically from any seed above the root
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def _pow(b: int, e: int) -> int:
    """b**e, or ResourceCapError when it surely exceeds MAX_POWER_BITS bits."""
    if e * (b.bit_length() - 1) > MAX_POWER_BITS:
        raise ResourceCapError(f"an exact power exceeds {MAX_POWER_BITS} bits")
    return b**e


def _perfect_power(c: int) -> tuple:
    """(b, e) with c == b**e and e maximal, so that b is not a perfect power."""
    e, k = 1, 2
    while k <= c.bit_length():
        r = int_nthroot(c, k)
        if r**k == c:
            c, e = r, e * k
        else:  # a perfect k-th power is a perfect p-th power for each prime p | k
            k += 1
            while any(k % d == 0 for d in range(2, isqrt(k) + 1)):
                k += 1
    return c, e


def _log2_exact(c: int) -> int | None:
    """Exponent e with c == 2**e, or None if c is not a power of two."""
    if c >= 1 and c & (c - 1) == 0:
        return c.bit_length() - 1
    return None


def power_bracket(x: int, e: int, bits: int) -> tuple[int, int, int]:
    """(lo, hi, s) with lo * 2**s <= x**e <= hi * 2**s, for x >= 1, e >= 1.

    A lower and an upper mantissa of x, of at most `bits` bits, are raised
    to the e-th power together by square-and-multiply; after each step both
    are shifted by the same amount, rounded down and up, so that hi keeps at
    most `bits` bits.  While x**e fits in `bits` bits, lo == hi == x**e.
    Each squaring doubles the relative width, so once e nears 2**bits lo
    can round down to 0.
    """
    s0 = max(0, x.bit_length() - bits)
    xlo, xhi = x >> s0, -(-x >> s0)
    lo, hi, s = xlo, xhi, s0
    for bit in bin(e)[3:]:
        lo, hi, s = lo * lo, hi * hi, s + s
        if bit == "1":
            lo, hi, s = lo * xlo, hi * xhi, s + s0
        t = hi.bit_length() - bits
        if t > 0:
            lo, hi, s = lo >> t, -(-hi >> t), s + t
    return lo, hi, s


def _below(a: int, s: int, b: int, t: int) -> bool:
    """a * 2**s < b * 2**t, for a, b >= 1, shifting by no more than the
    difference of their widths."""
    if a.bit_length() + s != b.bit_length() + t:
        return a.bit_length() + s < b.bit_length() + t
    m = min(s, t)
    return a << (s - m) < b << (t - m)


def _float_sign(x: int, e: int, y: int, f: int) -> int:
    """The sign of x**e - y**f when floats decide it, else 0; for x, y >= 2
    and e, f >= 1.  Then log2(x), log2(y) >= 1, so rounding x, y, e and f
    to doubles, libm's `log2` and the products each err by a few parts in
    2**52 of e*log2(x) and f*log2(y), far inside _FILTER_MARGIN."""
    try:
        a, b = e * log2(x), f * log2(y)
    except OverflowError:  # e or f past the float range
        return 0
    d = a - b  # an overflow to inf or nan fails the test below
    if abs(d) > _FILTER_MARGIN * (a + b):
        return 1 if d > 0 else -1
    return 0


def _equal_powers(x: int, e: int, y: int, f: int) -> bool:
    """x**e == y**f, for x, y >= 2 and e, f >= 1, from two integer roots."""
    g = gcd(e, f)
    e, f = e // g, f // g
    # with e, f coprime, x**e == y**f exactly when x = t**f and y = t**e
    t = int_nthroot(x, f)
    return t == int_nthroot(y, e) and t**f == x and t**e == y


def _bracket_sign(x: int, e: int, y: int, f: int) -> int:
    """The sign of x**e - y**f for unequal powers, from power brackets of
    doubling width; ResourceCapError if they still overlap at
    MAX_POWER_BITS bits."""
    bits = MANTISSA_BITS
    while bits <= MAX_POWER_BITS:
        lo1, hi1, s1 = power_bracket(x, e, bits)
        lo2, hi2, s2 = power_bracket(y, f, bits)
        # rounding can take a lower mantissa down to 0, which bounds nothing
        if lo2 and _below(hi1, s1, lo2, s2):
            return -1
        if lo1 and _below(hi2, s2, lo1, s1):
            return 1
        bits += bits
    raise ResourceCapError(f"an exact power exceeds {MAX_POWER_BITS} bits")


class EntropyValue:
    """An exact finite entropy: rational bits or log2(c)/n bits.  Values
    compare exactly with each other, ints and Fractions; they do not add
    or scale."""

    __slots__ = ("_kind", "_rat", "_c", "_n")

    def __init__(self, value: Fraction | int = 0):
        # a float is not the value it was written as, and text is parsed
        # once, by `specfiles.rational`
        if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
            raise ArgumentError(f"entropy values must be exact (int or Fraction), not {value!r}")
        self._kind = "rat"
        self._rat = Fraction(value)
        self._c = self._n = None

    @classmethod
    def log2_of(cls, c: int, n: int = 1) -> "EntropyValue":
        """The value (1/n) * log2(c), kept exact."""
        for x in (c, n):
            if not isinstance(x, int) or isinstance(x, bool):
                raise ArgumentError(f"log2_of takes ints c and n, not {x!r}")
        if c < 1 or n < 1:
            raise ValueError("log2_of requires c >= 1, n >= 1")
        e = _log2_exact(c)
        if e is not None:
            return cls(Fraction(e, n))
        v = cls.__new__(cls)
        v._kind = "log"
        v._rat = None
        v._c, v._n = c, n
        return v

    def approx(self) -> float:
        if self._kind == "rat":
            return float(self._rat)
        return log2(self._c) / self._n

    def _cmp(self, other: "EntropyValue") -> int:
        if self._kind == "rat" and other._kind == "rat":
            return (self._rat > other._rat) - (self._rat < other._rat)
        if self._kind == "log" and other._kind == "log":
            # log2(a)/m vs log2(b)/n  <=>  a**n vs b**m
            x, e, y, f = self._c, other._n, other._c, self._n
        elif self._kind == "rat":
            # p/q vs log2(c)/n  <=>  2**(p*n) vs c**q
            p, q = self._rat.numerator, self._rat.denominator
            if p <= 0:
                return -1  # a log form has c >= 3, so it is > 0
            x, e, y, f = 2, p * other._n, other._c, q
        else:
            return -other._cmp(self)
        sign = _float_sign(x, e, y, f)
        if sign:
            return sign
        # a log form is never rational: its c is not a power of two
        if self._kind == "log" and _equal_powers(x, e, y, f):
            return 0
        return _bracket_sign(x, e, y, f)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        return other is not None and self._cmp(other) == 0

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._cmp(other) >= 0

    def __hash__(self):
        if self._kind == "rat":
            return hash(self._rat)
        # log2(c)/n == log2(c')/n' exactly when the perfect-power bases agree
        # and so do the exponent ratios
        b, e = _perfect_power(self._c)
        return hash(("entropy-log", b, Fraction(e, self._n)))

    def floor_two_pow(self) -> int:
        """floor(2**value), exactly."""
        if self._kind == "rat":
            p, q = self._rat.numerator, self._rat.denominator
            if p < 0:
                return 0
            return int_nthroot(_pow(2, p), q)
        return int_nthroot(self._c, self._n)

    def render(self) -> str:
        if self._kind == "rat":
            return f"{self._rat} ({self.approx():.6g})"
        return f"log2({self._c})/{self._n} ({self.approx():.6g})"

    def __repr__(self):
        return f"EntropyValue[{self.render()}]"

    def __reduce_ex__(self, protocol):  # any protocol
        if self._kind == "rat":
            return (EntropyValue, (self._rat,))
        return (EntropyValue.log2_of, (self._c, self._n))


def _coerce(x) -> EntropyValue | None:
    if isinstance(x, EntropyValue):
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return EntropyValue(x)
    return None


def optimal_alphabet_size(value: EntropyValue) -> int:
    """Smallest integer strictly greater than 2**value."""
    return value.floor_two_pow() + 1


@dataclass(frozen=True)
class EntropyBracket:
    """A certified enclosure lo <= h <= hi, in bits, with exact endpoints."""

    lo: Fraction
    hi: Fraction
    tolerance_met: bool = True

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("bracket endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def render(self) -> str:
        flag = "" if self.tolerance_met else " (tolerance not met)"
        return f"[{self.lo} ({float(self.lo):.6g}), {self.hi} ({float(self.hi):.6g})]{flag}"
