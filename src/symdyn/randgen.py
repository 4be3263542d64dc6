"""Seeded random instances for the property and acceptance suites.

Diagrams come from a handful of shape templates (depth 0, 1, 2; fans and
chains) with rational-valued threshold specs drawn from a small grid;
windows are random symbol rows post-processed to destroy every long
periodic stretch so the marker rules apply without exemptions.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .diagram import (
    FamilyLink,
    FnSpec,
    MeasureDiagram,
    Node,
    SeqSpec,
    const_fn,
    fn_add,
    fn_on,
    lin,
    seq_on,
    step_fn,
)
from .envelope import FnOnDiagram
from .markers import ArrayWindow, periodic_stretches, window_from_rows

_VALUES = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]


def _rand_tau(rng: random.Random, params: tuple, all_params: bool):
    """A threshold expression over the class parameters.

    With all_params, every parameter gets a positive coefficient: then the
    jump slice {tau = k+1} is finite in each convergence direction, which
    is what keeps the increments of an entropy sequence upper
    semicontinuous.  Period tails carry no such constraint.
    """
    if all_params:
        coeffs = {p: rng.randrange(1, 3) for p in params}
        return lin(rng.randrange(0, 4), **coeffs)
    choices = [lin(rng.randrange(0, 5))]
    if params:
        p = params[-1]
        q = params[0]
        choices += [
            lin(0, **{p: 1}),
            lin(rng.randrange(1, 4), **{p: 1}),
            lin(0, **{q: 1}),
            lin(rng.randrange(1, 4), **{q: 1}),
        ]
        if len(params) == 2:
            choices.append(lin(0, **{params[0]: 1, params[1]: 1}))
        else:
            choices.append(lin(rng.randrange(0, 3), **{q: 2}))
    return rng.choice(choices)


def _rand_seq(rng: random.Random, params: tuple, direction: str, force_zero=False):
    if force_zero:
        return SeqSpec(Fraction(0), lin(0), Fraction(0))
    a, b = rng.choice(_VALUES), rng.choice(_VALUES)
    lo, hi = (max(a, b), min(a, b)) if direction == "nonincreasing" else (min(a, b), max(a, b))
    if direction == "nonincreasing":
        hi = Fraction(0)  # tails vanish pointwise
    if lo == hi:
        return SeqSpec(lo, lin(0), hi)
    # entropy sequences on parameterized classes must jump along every
    # parameter, keeping the increments upper semicontinuous
    all_params = direction == "nondecreasing" and bool(params)
    return SeqSpec(lo, _rand_tau(rng, params, all_params), hi)


def random_diagram(rng: random.Random):
    """A valid depth <= 2 diagram with entropy and period-tail sequences."""
    shape = rng.randrange(7)
    nodes, families = [], []
    top = Node("top", (), rng.choice(("periodic", "aperiodic")), None)
    nodes.append(top)
    if shape == 0:
        pass  # isolated point
    elif shape == 1:
        nodes.append(Node("arm", ("m",), rng.choice(("periodic", "aperiodic"))))
        families.append(FamilyLink("arm", "m", "top"))
    elif shape == 2:
        nodes += [
            Node("arm", ("m",), "periodic"),
            Node("arm2", ("t",), rng.choice(("periodic", "aperiodic"))),
        ]
        families += [FamilyLink("arm", "m", "top"), FamilyLink("arm2", "t", "top")]
    elif shape == 3:
        nodes += [
            Node("mid", ("m",), rng.choice(("periodic", "aperiodic"))),
            Node("deep", ("m", "j"), "periodic"),
        ]
        families += [FamilyLink("deep", "j", "mid"), FamilyLink("mid", "m", "top")]
    elif shape == 4:
        nodes += [
            Node("mid", ("m",), rng.choice(("periodic", "aperiodic"))),
            Node("deep", ("m", "j"), rng.choice(("periodic", "aperiodic"))),
            Node("arm", ("t",), "periodic"),
        ]
        families += [
            FamilyLink("deep", "j", "mid"),
            FamilyLink("mid", "m", "top"),
            FamilyLink("arm", "t", "top"),
        ]
    elif shape == 5:
        nodes += [
            Node("mid", ("m",), "periodic"),
            Node("deep", ("m", "j"), "periodic"),
            Node("mid2", ("s",), rng.choice(("periodic", "aperiodic"))),
            Node("deep2", ("s", "r"), "periodic"),
        ]
        families += [
            FamilyLink("deep", "j", "mid"),
            FamilyLink("mid", "m", "top"),
            FamilyLink("deep2", "r", "mid2"),
            FamilyLink("mid2", "s", "top"),
        ]
    else:
        # two sibling deep families sharing one middle layer
        nodes += [
            Node("mid", ("m",), rng.choice(("periodic", "aperiodic"))),
            Node("deep", ("m", "j"), "periodic"),
            Node("deep2", ("m", "r"), "periodic"),
        ]
        families += [
            FamilyLink("deep", "j", "mid"),
            FamilyLink("deep2", "r", "mid"),
            FamilyLink("mid", "m", "top"),
        ]
    diagram = MeasureDiagram(tuple(nodes), tuple(families))
    hseq = seq_on(
        diagram,
        {
            n.node_id: _rand_seq(rng, n.params, "nondecreasing")
            for n in diagram.nodes
        },
        "nondecreasing",
    )
    perseq = seq_on(
        diagram,
        {
            n.node_id: _rand_seq(
                rng, n.params, "nonincreasing", force_zero=(n.kind == "aperiodic")
            )
            for n in diagram.nodes
        },
        "nonincreasing",
    )
    return diagram, hseq, perseq


def random_candidate_envelope(
    rng: random.Random, diagram: MeasureDiagram, hseq, h_sex: FnOnDiagram | None
) -> FnOnDiagram:
    """A candidate E around h: sometimes a true superenvelope, sometimes not."""
    h = hseq.limit_fn(diagram)
    mode = rng.randrange(4)
    specs = {}
    for n in diagram.nodes:
        base = h.spec(n.node_id)
        if mode == 0:  # E = h (fails unless the tails are already usc)
            specs[n.node_id] = base
        elif mode == 1 and h_sex is not None:  # known superenvelope
            specs[n.node_id] = h_sex.spec(n.node_id)
        else:  # h plus a random nonnegative bump
            bump = _random_bump(rng, n.params)
            specs[n.node_id] = fn_add(base, bump, n.mins)
    return fn_on(diagram, specs)


def _random_bump(rng: random.Random, params: tuple) -> FnSpec:
    if not params or rng.random() < 0.5:
        return const_fn(rng.choice(_VALUES))
    var = rng.choice(params)
    tau = lin(rng.randrange(1, 5))
    return step_fn(var, tau, rng.choice(_VALUES), rng.choice(_VALUES))


# ---------------------------------------------------------------------------
# windows


# choice("01") is _randbelow(2): the top two bits of one 32-bit Mersenne
# Twister word, redrawn while they are >= 2.  So a word whose top byte is
# >= 128 is rejected, and an accepted one gives "1" iff that byte is >= 64.
_TOP_BYTE_SYMBOL = b"0" * 64 + b"1" * 64 + bytes(128)
_TOP_BYTE_REJECTED = bytes(range(128, 256))


def binary_symbols(rng: random.Random, n: int) -> str:
    """The n symbols `"".join(rng.choice("01") for _ in range(n))` draws,
    leaving rng in the state that loop leaves it in.

    getrandbits(32 k) holds the next k words, the first in its lowest 32
    bits, so its little-endian bytes [3::4] are their top bytes in order.
    Each word gives at most one symbol, so drawing one word per missing
    symbol never reads past where the choice loop stops.
    """
    out = []
    while n > 0:
        top = rng.getrandbits(32 * n).to_bytes(4 * n, "little")[3::4]
        got = top.translate(_TOP_BYTE_SYMBOL, _TOP_BYTE_REJECTED)
        out.append(got)
        n -= len(got)
    return b"".join(out).decode()


def random_aperiodic_window(rng: random.Random, width: int, depth: int, scales) -> ArrayWindow:
    """Random binary rows with no flaggable periodic stretch at any scale.

    The rows are the symbols `rng.choice("01")` would draw, row after row,
    and rng ends in the state that loop leaves it in.

    scales: one or more marker parameters n; a stretch is scrubbed when its
    period p < n and its length exceeds 2n+1 for some scale n (exactly the
    stretches a placement pass at parameter n would have to flag).

    Only row 1 is scanned and flipped, yet every top-k prefix of rows comes
    out clean.  The window has no markers, so column i at depth k is
    (0, r1[i], ..., rk[i]); two columns equal at depth k are equal at depth
    1.  Every maximal run of a p-periodic stretch at depth k therefore lies
    in a run at depth 1 with the same p, and with the same reporting
    threshold it is reported there too: a clean row 1 is a clean window.
    """
    if isinstance(scales, int):
        scales = (scales,)
    scales = sorted(set(scales))
    cells = binary_symbols(rng, width * depth)
    w = window_from_rows(cells[k * width : (k + 1) * width] for k in range(depth))
    for _ in range(600):
        for n in scales:
            stretches = periodic_stretches(w, 1, n, 2 * n + 1)
            if stretches:
                break
        else:
            return w
        a, b, _ = stretches[0]
        mid = (a + b) // 2
        row = w.rows[0]
        row = row[:mid] + ("1" if row[mid] == "0" else "0") + row[mid + 1 :]
        w = window_from_rows((row,) + w.rows[1:])
    raise RuntimeError("could not scrub periodic stretches from the window")
