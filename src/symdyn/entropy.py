"""Exact entropy values in bits.

All entropies in this package are base-2 logarithms.  A value is either
an exact rational or an exact log-form log2(c)/n with integer c >= 1,
n >= 1; comparisons between the two are done by integer exponentiation,
never through floats.  Values compare but do not add; the diagram
algebra's values, its infinity INF included, live in `diagram`.
Irrational entropies that cannot be pinned down exactly (spectral radii)
are reported as rational brackets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import isqrt, log2

from .errors import ArgumentError, ResourceCapError

MAX_POWER_BITS = 1 << 16  # exact powers past this many bits are refused (exit 4)


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


@total_ordering
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

    # comparisons: rational p/q vs log2(c)/n  <=>  2**(p*n) vs c**q
    def _cmp(self, other: "EntropyValue") -> int:
        if self._kind == "rat" and other._kind == "rat":
            return (self._rat > other._rat) - (self._rat < other._rat)
        if self._kind == "log" and other._kind == "log":
            lhs = _pow(self._c, other._n)
            rhs = _pow(other._c, self._n)
            return (lhs > rhs) - (lhs < rhs)
        if self._kind == "rat":
            p, q = self._rat.numerator, self._rat.denominator
            if p < 0:
                return -1  # log form is always >= 0
            lhs = _pow(2, p * other._n)
            rhs = _pow(other._c, q)
            return (lhs > rhs) - (lhs < rhs)
        return -other._cmp(self)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        return other is not None and self._cmp(other) == 0

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._cmp(other) < 0

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
