"""Independent checks for the benchmark's ops, written without symdyn.

Each check returns None when the output is right, or a one-line reason.
They run between ops, outside the timed region, and feed ``error_rate``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
from collections import Counter
from fractions import Fraction


# ---------------------------------------------------------------------------
# periodic-point counts


def mobius(d: int) -> int:
    out, x, p = 1, d, 2
    while p * p <= x:
        if x % p == 0:
            x //= p
            if x % p == 0:
                return 0
            out = -out
        p += 1
    return -out if x > 1 else out


def primitive_counts(fixed: dict) -> dict:
    """Points of minimal period n from points of period dividing n."""
    return {
        n: sum(mobius(n // d) * fixed[d] for d in range(1, n + 1) if n % d == 0)
        for n in fixed
    }


def necklace_points(s: int, N: int) -> dict:
    return primitive_counts({n: s**n for n in range(1, N + 1)})


def lucas_points(N: int) -> dict:
    lucas = {1: 1, 2: 3}
    for n in range(3, N + 1):
        lucas[n] = lucas[n - 1] + lucas[n - 2]
    return primitive_counts({n: lucas[n] for n in range(1, N + 1)})


class BlockGraph:
    """The (L-1)-block graph of a subshift given by forbidden words.

    Closed paths of length n are exactly the points of period dividing n,
    so traces of powers of the adjacency matrix count periodic points.
    """

    def __init__(self, symbols, forbidden):
        self.symbols = tuple(symbols)
        self.forbidden = {tuple(f) for f in forbidden}
        self.memory = max((len(f) for f in self.forbidden), default=1)
        m = max(self.memory - 1, 0)
        self.states = [
            w for w in itertools.product(self.symbols, repeat=m) if self._clean(w)
        ]
        index = {st: i for i, st in enumerate(self.states)}
        size = len(self.states)
        self.matrix = [[0] * size for _ in range(size)]
        for st in self.states:
            for s in self.symbols:
                w = st + (s,)
                if self._clean(w):
                    self.matrix[index[st]][index[w[1:]]] += 1

    def _clean(self, w) -> bool:
        return not any(
            w[i : i + len(f)] == f
            for f in self.forbidden
            for i in range(len(w) - len(f) + 1)
        )

    def has_cycle(self) -> bool:
        """Whether the language is nonempty: some state lies on a cycle."""
        size = len(self.states)
        reach = [row[:] for row in self.matrix]
        power = [row[:] for row in self.matrix]
        for _ in range(size):
            if any(power[i][i] for i in range(size)):
                return True
            power = _matmul(power, reach)
        return False

    def primitive(self) -> bool:
        """Whether some power of the matrix is positive (Wielandt's bound)."""
        size = len(self.states)
        power = [[int(x > 0) for x in row] for row in self.matrix]
        for _ in range((size - 1) ** 2 + 1):
            if all(all(row) for row in power):
                return True
            power = [[int(x > 0) for x in row] for row in _matmul(power, self.matrix)]
        return False

    def fixed_points(self, N: int) -> dict:
        out, power = {}, None
        for n in range(1, N + 1):
            power = self.matrix if power is None else _matmul(power, self.matrix)
            out[n] = sum(power[i][i] for i in range(len(power)))
        return out

    def word_count(self, n: int) -> int:
        """Admissible n-words, by brute force over the full n-cube."""
        return sum(1 for w in itertools.product(self.symbols, repeat=n) if self._clean(w))

    def cyclic_brute_force(self, n: int) -> int:
        """Words w of length n whose bi-infinite repetition is admissible."""
        reps = -(-(n + self.memory) // n) + 1
        return sum(
            1
            for w in itertools.product(self.symbols, repeat=n)
            if self._clean(w * reps)
        )

    def spectral_log2(self, squarings: int = 40) -> float:
        """log2 of the spectral radius: (1/n) log2 of the largest entry of
        A**n for n = 2**squarings, by normalized repeated squaring."""
        power = [[float(x) for x in row] for row in self.matrix]
        log_scale = 0.0
        for _ in range(squarings):
            power = _matmul(power, power)
            top = max(max(row) for row in power)
            power = [[x / top for x in row] for row in power]
            log_scale = 2 * log_scale + math.log2(top)
        return log_scale / 2**squarings


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def check_table(counts: dict, expected: dict) -> str | None:
    for n, c in expected.items():
        if counts.get(n) != c:
            return f"period {n}: got {counts.get(n)}, oracle {c}"
    return None


def check_capacity(p_sup_approx: float, counts: dict) -> str | None:
    best = max([0.0] + [math.log2(c) / n for n, c in counts.items() if c])
    if abs(best - p_sup_approx) > 1e-9:
        return f"p_sup {p_sup_approx} != oracle {best}"
    return None


def check_bracket(lo: Fraction, hi: Fraction, met: bool, tol: Fraction, h: float) -> str | None:
    if met != (hi - lo <= tol):
        return f"bracket width {hi - lo} against tolerance {tol}, reported met={met}"
    if not float(lo) - 1e-9 <= h <= float(hi) + 1e-9:
        return f"entropy {h} outside [{lo}, {hi}]"
    return None


# ---------------------------------------------------------------------------
# orbits, tails and matchings


def rotations(w):
    return [w[i:] + w[:i] for i in range(len(w))]


def dbar_brute(a, b) -> Fraction:
    L = len(a) * len(b) // math.gcd(len(a), len(b))
    wa, wb = a * (L // len(a)), b * (L // len(b))
    return Fraction(
        min(sum(wa[i] != wb[(i + r) % L] for i in range(L)) for r in range(L)), L
    )


def check_mixture_bound(bound: Fraction, mu, nu) -> str | None:
    """The coupling bound between (word, weight) mixtures lies between the
    least pairwise distance and the independent coupling's cost."""
    d = {(a, b): dbar_brute(a, b) for a, _ in mu for b, _ in nu}
    independent = sum(wa * wb * d[(a, b)] for a, wa in mu for b, wb in nu)
    if min(d.values()) <= bound <= independent:
        return None
    return f"bound {bound} outside [{min(d.values())}, {independent}]"


def tail_counts(representatives, k: int) -> dict:
    """Per orbit, the number of points whose top-k projection matches it."""
    points = [p for rep in representatives for p in rotations(rep)]
    proj = Counter(tuple(sym[:k] for sym in p) for p in points)
    return {rep: proj[tuple(sym[:k] for sym in rep)] for rep in representatives}


def sdr_exists(mapping: dict) -> bool:
    strips = sorted(mapping, key=repr)

    def rec(i, used):
        if i == len(strips):
            return True
        for cand in sorted(mapping[strips[i]], key=repr):
            if cand not in used:
                used.add(cand)
                if rec(i + 1, used):
                    return True
                used.discard(cand)
        return False

    return rec(0, set())


def check_matching(mapping: dict, match: dict | None, violator) -> str | None:
    """A valid matching, or a Hall violator S with |N(S)| < |S|; SDR agrees."""
    if match is not None:
        if set(match) != set(mapping):
            return "matching does not cover every strip"
        if len(set(match.values())) != len(match):
            return "matching is not injective"
        if any(w not in mapping[s] for s, w in match.items()):
            return "matched word not among the strip's candidates"
    else:
        union = set().union(*(mapping[s] for s in violator))
        if len(union) >= len(violator):
            return f"violator of size {len(violator)} has {len(union)} neighbours"
    if len(mapping) <= 10 and sdr_exists(mapping) != (match is not None):
        return "exhaustive SDR search disagrees"
    return None


# ---------------------------------------------------------------------------
# marker rules


def gaps(cols):
    return [(a, b, b - a) for a, b in zip(cols, cols[1:])]


def rule_a(markers, flags, bounds) -> bool:
    for k, (lo, hi) in bounds.items():
        exempt = {(f[1], f[2]) for f in flags if f[0] == k}
        for a, b, p in gaps(markers[k - 1]):
            if (a, b) not in exempt and not lo <= p <= hi:
                return False
    return True


def rule_b(markers) -> bool:
    return all(
        set(markers[k]) <= set(markers[k - 1]) for k in range(1, len(markers))
    )


def rule_d(markers) -> bool:
    marked = [k for k, ms in enumerate(markers, start=1) if ms]
    deepest = max(marked, default=0)
    return all(markers[k - 1] for k in range(1, deepest))


def rule_e(markers, max_long: int = 1) -> bool:
    for k, ms in enumerate(markers, start=1):
        lengths = [p for _, _, p in gaps(ms)]
        if any(p < k for p in lengths):
            return False
        if sum(p > 2 * k - 1 for p in lengths) > max_long:
            return False
    return True


# ---------------------------------------------------------------------------
# canonical rendering for result digests


def canon(x):
    """A JSON-ready rendering that depends only on the value."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, dict):
        return [[canon(k), canon(v)] for k, v in sorted(x.items(), key=lambda kv: repr(kv[0]))]
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted((canon(v) for v in x), key=repr)
    if dataclasses.is_dataclass(x):
        return [type(x).__name__] + [canon(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if hasattr(x, "render"):
        return x.render()
    return repr(x)


class Digest:
    """SHA-256 over the canonical rendering of each op's result, in order."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.count = 0

    def add(self, result) -> None:
        blob = json.dumps(canon(result), separators=(",", ":"))
        self.sha.update(blob.encode())
        self.sha.update(b"\n")
        self.count += 1

    def hexdigest(self) -> str:
        return self.sha.hexdigest()
