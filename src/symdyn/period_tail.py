"""Period tails of a concrete system: counts of selected periodic points
sharing a depth-k name, the sequence of their top k rows.

For an array system truncated to R rows, the depth-k refining partition is
the cylinder partition of the top k rows, so two period-n points share a
depth-k name exactly when their top-k-row projections agree as sequences.
The tail value at a selected point is the normalized log-count of selected
points of the same minimal period with a matching projection; values on
rational mixtures are the weighted averages of the orbit values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .entropy import EntropyValue
from .errors import ArgumentError
from .sft import PeriodicOrbit, SftSpec, periodic_orbits, rotations


def _project(word, k: int):
    return tuple(sym[:k] for sym in word)


@dataclass(frozen=True)
class PeriodTailSample:
    """Values (1/n) log2 #matches for each selected orbit and depth k <= K."""

    depth: int
    values: tuple  # ((orbit, tuple of EntropyValue per k=1..K) pairs)

    def __post_init__(self):
        # lookup index, kept off the dataclass fields; the first pair per orbit wins
        object.__setattr__(self, "_by_orbit", dict(reversed(self.values)))

    def value(self, orbit: PeriodicOrbit, k: int) -> EntropyValue:
        if not (1 <= k <= self.depth):
            raise ArgumentError(f"depth {k} outside 1..{self.depth}")
        try:
            return self._by_orbit[orbit][k - 1]
        except KeyError:
            raise ArgumentError(
                f"orbit {orbit.representative!r} not in the selection"
            ) from None

    def orbits(self):
        return [o for o, _ in self.values]


def period_tail_from_system(
    sft: SftSpec,
    periods,
    K: int,
    selection: dict | None = None,
) -> PeriodTailSample:
    """Tail values for the selected periodic points of the system.

    periods: which minimal periods to select; selection optionally replaces
    the full enumeration with an explicit orbit list per period (it must be
    shift-invariant, which holds for any set of whole orbits).
    """
    if sft.rows is None:
        raise ArgumentError("period tails need an array system with row structure")
    R = len(sft.rows)
    if K < 1 or K > R:
        raise ArgumentError(f"depth must lie in 1..{R}")
    wanted = sorted(set(periods))
    if selection is None and wanted:
        if wanted[0] < 1:
            raise ArgumentError("period must be >= 1")
        selection = periodic_orbits(sft, wanted[-1])
    out = []
    for n in wanted:
        orbits = selection.get(n, [])
        for o in orbits:
            if o.period != n:
                raise ArgumentError("selection lists an orbit under the wrong period")
        points = [p for o in orbits for p in rotations(o.representative)]
        names = [Counter(_project(p, k) for p in points) for k in range(1, K + 1)]
        for o in orbits:
            vals = tuple(
                EntropyValue.log2_of(names[k - 1][_project(o.representative, k)], n)
                for k in range(1, K + 1)
            )
            out.append((o, vals))
    return PeriodTailSample(K, tuple(out))
