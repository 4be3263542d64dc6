import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def bracket_contains(bracket, x) -> bool:
    """Whether x lies in the bracket; its Fraction endpoints compare exactly
    with ints, Fractions and floats."""
    return bracket.lo <= x <= bracket.hi


def necklace_count(s: int, n: int) -> int:
    """Points of minimal period n in the full s-shift, by Moebius inversion."""

    def mobius(d):
        out, x = 1, d
        p = 2
        while p * p <= x:
            if x % p == 0:
                x //= p
                if x % p == 0:
                    return 0
                out = -out
            p += 1
        if x > 1:
            out = -out
        return out

    return sum(mobius(d) * s ** (n // d) for d in range(1, n + 1) if n % d == 0)
