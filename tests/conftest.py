import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from symdyn.diagram import MeasureDiagram, Node  # noqa: E402


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s / {self.seconds}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded its budget"
        else:
            print(f"ACCEPTANCE {self.name}: FAIL ({elapsed:.2f}s)")
        return False


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


def with_mins(diagram, mins_of):
    """The diagram with each node's parameters starting at mins_of(node)."""
    nodes = tuple(
        Node(n.node_id, n.params, n.kind, n.period, mins_of(n)) for n in diagram.nodes
    )
    return MeasureDiagram(nodes, diagram.families, diagram.p_sup)


def with_drawn_mins(rng, diagram, choices):
    """The diagram with each parameter name's minimum drawn from choices, in
    node and parameter order.  A member shares its outer parameter's name
    with its limit, so it starts where its limit starts."""
    mins = {}
    for n in diagram.nodes:
        for p in n.params:
            if p not in mins:
                mins[p] = rng.choice(choices)
    return with_mins(diagram, lambda n: tuple(mins[p] for p in n.params))
