"""Period tails of a concrete system: counts of the periodic points of
one minimal period sharing a depth-k name, the sequence of their top k rows.

For an array system truncated to R rows, the depth-k refining partition is
the cylinder partition of the top k rows, so two period-n points share a
depth-k name exactly when their top-k-row projections agree as sequences.
The tail value at a periodic point is the normalized log-count of the
points of the same minimal period with a matching projection; values on
rational mixtures are the weighted averages of the orbit values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .entropy import EntropyValue
from .errors import ArgumentError
from .sft import SftSpec, periodic_orbits, rotations


def _project(word, k: int):
    return tuple(sym[:k] for sym in word)


@dataclass(frozen=True)
class PeriodTailSample:
    """Values (1/n) log2 #matches for each orbit of the asked periods and
    each depth k <= K."""

    depth: int
    values: tuple  # ((orbit, tuple of EntropyValue per k=1..K) pairs)


def period_tail_from_system(sft: SftSpec, periods, K: int) -> PeriodTailSample:
    """Tail values for every periodic orbit of the system whose minimal
    period is one of periods, from one orbit walk up to the largest."""
    if sft.rows is None:
        raise ArgumentError("period tails need an array system with row structure")
    R = len(sft.rows)
    if K < 1 or K > R:
        raise ArgumentError(f"depth must lie in 1..{R}")
    wanted = sorted(set(periods))
    if not wanted:
        return PeriodTailSample(K, ())
    if wanted[0] < 1:
        raise ArgumentError("period must be >= 1")
    by_period = periodic_orbits(sft, wanted[-1])
    out = []
    for n in wanted:
        orbits = by_period.get(n, [])
        points = [p for o in orbits for p in rotations(o.representative)]
        names = [Counter(_project(p, k) for p in points) for k in range(1, K + 1)]
        for o in orbits:
            vals = tuple(
                EntropyValue.log2_of(names[k - 1][_project(o.representative, k)], n)
                for k in range(1, K + 1)
            )
            out.append((o, vals))
    return PeriodTailSample(K, tuple(out))
