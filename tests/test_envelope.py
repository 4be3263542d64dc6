import functools
import random
import re
from fractions import Fraction

import pytest

from symdyn import diagram as diagram_module
from symdyn.diagram import (
    INF,
    Atom,
    FamilyLink,
    FnSpec,
    MeasureDiagram,
    Node,
    SeqSpec,
    const_fn,
    fn_add,
    fn_compare,
    fn_le,
    fn_max,
    fn_on,
    lin,
    seq_on,
    seq_step,
    step_fn,
    tails_of,
)
from symdyn import envelope
from symdyn.envelope import (
    RepairVerdict,
    SuperenvelopeVerdict,
    _require_vanishing_tails,
    analyze_diagram,
    envelope_limit,
    is_repair,
    is_superenvelope,
    minimal_repair,
    u_one,
    usc_envelope,
    zero_fn,
    zero_seq,
)
from symdyn.entropy import EntropyValue, optimal_alphabet_size
from symdyn.errors import ArgumentError, ConstructionError
from symdyn.randgen import random_candidate_envelope, random_diagram
from symdyn.report import jsonable
from symdyn.scenarios import scenario_data
from conftest import Budget, with_drawn_mins
from test_diagram_algebra import naive_fn_compare, naive_fn_le


def chain2():
    A = Node("deep", ("m", "j"), "periodic")
    B = Node("mid", ("m",), "periodic")
    z = Node("top", (), "periodic", "1")
    return MeasureDiagram(
        (A, B, z), (FamilyLink("deep", "j", "mid"), FamilyLink("mid", "m", "top"))
    )


def test_envelope_constant_function_unchanged():
    D = chain2()
    f = fn_on(D, {n.node_id: const_fn(Fraction(1, 2)) for n in D.nodes})
    env = usc_envelope(f, D)
    for n in D.nodes:
        assert fn_compare(env.spec(n.node_id), f.spec(n.node_id), n.mins) is None


def test_envelope_limsup_rule():
    D = chain2()
    # members carry 1 eventually; the limit node carries 0
    f = fn_on(
        D,
        {"deep": const_fn(0), "mid": const_fn(1), "top": const_fn(0)},
    )
    env = usc_envelope(f, D)
    assert env.evaluate("top", {}) == 1
    assert env.evaluate("mid", {"m": 2}) == 1


def test_envelope_diagonal_rule():
    D = chain2()
    # value lives only on the deep class: reaches top through diagonals
    f = fn_on(D, {"deep": const_fn(2), "mid": const_fn(0), "top": const_fn(0)})
    env = usc_envelope(f, D)
    assert env.evaluate("mid", {"m": 3}) == 2
    assert env.evaluate("top", {}) == 2


def test_envelope_step_on_inner_param():
    D = chain2()
    # deep value 5 only while j < 3: survives into diagonals but not into
    # the j-limit at mid
    f = fn_on(
        D,
        {
            "deep": step_fn("j", lin(3), Fraction(5), Fraction(0)),
            "mid": const_fn(0),
            "top": const_fn(0),
        },
    )
    env = usc_envelope(f, D)
    assert env.evaluate("mid", {"m": 3}) == 0  # eventual value along j is 0
    assert env.evaluate("top", {}) == 5  # diagonal with j fixed below 3


def test_envelope_idempotent_and_monotone():
    rng = random.Random(13)
    for _ in range(120):
        D, hseq, perseq = random_diagram(rng)
        f = random_candidate_envelope(rng, D, hseq, None)
        env1 = usc_envelope(f, D)
        env2 = usc_envelope(env1, D)
        for n in D.nodes:
            assert fn_le(f.spec(n.node_id), env1.spec(n.node_id), n.mins) is None
            assert (
                fn_compare(env1.spec(n.node_id), env2.spec(n.node_id), n.mins) is None
            )
        g = random_candidate_envelope(rng, D, hseq, None)
        big = fn_on(
            D,
            {
                n.node_id: fn_add(f.spec(n.node_id), g.spec(n.node_id), n.mins)
                for n in D.nodes
            },
        )
        env_big = usc_envelope(big, D)
        for n in D.nodes:  # monotone: f <= f + g implies envelopes ordered
            assert fn_le(env1.spec(n.node_id), env_big.spec(n.node_id), n.mins) is None


def test_u_one_example_structure():
    D = chain2()
    ptail = seq_on(
        D,
        {
            "deep": seq_step(1, lin(j=1), 0),
            "mid": seq_step(1, lin(m=1), 0),
            "top": 0,
        },
        "nonincreasing",
    )
    u1 = u_one(ptail, D)
    assert u1.evaluate("deep", {"m": 2, "j": 9}) == 0
    assert u1.evaluate("mid", {"m": 2}) == 1
    assert u1.evaluate("top", {}) == 1
    verdict = is_repair(u1, ptail, D)
    assert not verdict.repairs
    assert verdict.witness_node == "top" and verdict.residual == 1
    u2 = minimal_repair(ptail, zero_fn(D), D)
    assert u2.evaluate("top", {}) == 2
    assert u2.evaluate("mid", {"m": 5}) == 1
    assert is_repair(u2, ptail, D).repairs


def test_u_one_dominates_pointwise_limit_and_repairs_dominate_u_one():
    rng = random.Random(14)
    for _ in range(100):
        D, hseq, perseq = random_diagram(rng)
        u1 = u_one(perseq, D)
        for n in D.nodes:
            # theta_k -> 0 pointwise, so u_one >= 0 = the pointwise limit
            assert fn_le(const_fn(0), u1.spec(n.node_id), n.mins) is None
        u_min = minimal_repair(perseq, zero_fn(D), D)
        for n in D.nodes:
            assert fn_le(u1.spec(n.node_id), u_min.spec(n.node_id), n.mins) is None


def test_minimal_repair_floor_respected():
    D = chain2()
    ptail = seq_on(
        D,
        {
            "deep": seq_step(1, lin(j=1), 0),
            "mid": seq_step(1, lin(m=1), 0),
            "top": 0,
        },
        "nonincreasing",
    )
    floor = fn_on(
        D, {"deep": const_fn(0), "mid": const_fn(0), "top": const_fn(Fraction(7, 2))}
    )
    u = minimal_repair(ptail, floor, D)
    assert u.evaluate("top", {}) == Fraction(7, 2)  # floor already repairs
    assert is_repair(u, ptail, D).repairs


def test_minimal_repair_rejects_non_usc_floor():
    D = chain2()
    floor = fn_on(
        D, {"deep": const_fn(0), "mid": const_fn(1), "top": const_fn(0)}
    )
    assert not is_usc(floor, D)
    with pytest.raises(ArgumentError, match="upper semicontinuous"):
        minimal_repair(zero_seq(D), floor, D)


def test_is_repair_zero_cases():
    D = chain2()
    assert is_repair(zero_fn(D), zero_seq(D), D).repairs


def test_negative_candidates_and_floors_are_refused_where_they_enter():
    D = chain2()
    negative = fn_on(D, {"deep": const_fn(0), "mid": const_fn(0), "top": const_fn(Fraction(-1, 2))})
    with pytest.raises(ArgumentError, match="^repair candidates must be nonnegative$"):
        is_repair(negative, zero_seq(D), D)
    with pytest.raises(ArgumentError, match="^floor must be nonnegative$"):
        minimal_repair(zero_seq(D), negative, D)


def test_infinite_values_render_as_inf():
    top = Node("top", (), "periodic", "1")
    arm = Node("arm", ("j",), "periodic")
    D = MeasureDiagram((top, arm), (FamilyLink("arm", "j", "top"),))
    theta = seq_on(D, {"top": 0, "arm": seq_step(INF, lin(0, j=1), 0)}, "nonincreasing")
    verdict = is_repair(zero_fn(D), theta, D)
    assert verdict.residual is INF
    assert verdict.render() == "repairs: no (witness top, residual inf)"
    assert const_fn(INF).render() == "inf"
    assert step_fn("j", lin(3), 0, INF).render() == "{j<3: 0; j>=3: inf}"
    assert jsonable(INF) == {"exact": "inf", "approx": None}


def test_superenvelope_trivial_cases():
    # expansive diagram: h_k = h for every k -> E = h works
    top = Node("top", (), "aperiodic")
    arm = Node("arm", ("m",), "aperiodic")
    D = MeasureDiagram((top, arm), (FamilyLink("arm", "m", "top"),))
    hseq = seq_on(D, {"top": Fraction(1), "arm": Fraction(1)}, "nondecreasing")
    E = hseq.limit_fn(D)
    assert is_superenvelope(E, hseq, D).is_superenvelope
    # the constant infinity function is always a superenvelope
    E_inf = fn_on(D, {"top": const_fn(INF), "arm": const_fn(INF)})
    assert is_superenvelope(E_inf, hseq, D).is_superenvelope
    # E below h fails immediately with a witness
    E_low = fn_on(D, {"top": const_fn(0), "arm": const_fn(1)})
    v = is_superenvelope(E_low, hseq, D)
    assert not v.is_superenvelope and v.witness_node == "top"


def test_superenvelope_example_structure():
    # entropy drops in the limit: E must exceed the limit value at the top
    top = Node("top", (), "periodic", "1")
    arm = Node("arm", ("m",), "aperiodic")
    D = MeasureDiagram((top, arm), (FamilyLink("arm", "m", "top"),))
    h0 = Fraction(3, 2)
    hseq = seq_on(
        D, {"top": 0, "arm": seq_step(0, lin(m=1), h0)}, "nondecreasing"
    )
    E_h = hseq.limit_fn(D)  # E = h: fails, h is not usc at the top
    assert not is_superenvelope(E_h, hseq, D).is_superenvelope
    E_fix = fn_on(D, {"top": const_fn(h0), "arm": const_fn(h0)})
    assert is_superenvelope(E_fix, hseq, D).is_superenvelope


def test_duality_on_random_instances():
    rng = random.Random(15)
    for _ in range(150):
        D, hseq, perseq = random_diagram(rng)
        theta = tails_of(hseq, D)
        h = hseq.limit_fn(D)
        E = random_candidate_envelope(rng, D, hseq, None)
        direct = naive_is_superenvelope(E, hseq, D).is_superenvelope
        ge = all(
            fn_le(h.spec(n.node_id), E.spec(n.node_id), n.mins) is None
            for n in D.nodes
        )
        if ge:
            diff = fn_on(
                D,
                {
                    n.node_id: fn_add(
                        E.spec(n.node_id),
                        FnSpec(
                            tuple((a, -v) for a, v in h.spec(n.node_id).pieces)
                        ),
                        n.mins,
                    )
                    for n in D.nodes
                },
            )
            via_repair = is_repair(diff, theta, D).repairs
        else:
            via_repair = False
        assert direct == via_repair == is_superenvelope(E, hseq, D).is_superenvelope


def test_analyze_trivial_diagram():
    top = Node("top", (), "aperiodic")
    D = MeasureDiagram((top,), ())
    h = Fraction(3, 2)
    hseq = seq_on(D, {"top": h}, "nondecreasing")
    perseq = seq_on(D, {"top": 0}, "nonincreasing")
    rep = analyze_diagram(D, hseq, perseq)
    assert rep.value("h_emb", "top") == h == rep.value("h_sex", "top")
    assert rep.p_star == 0
    assert rep.cardinality == 3  # floor(2^(3/2)) + 1


def test_analyze_rejects_period_tail_on_aperiodic():
    top = Node("top", (), "aperiodic")
    arm = Node("arm", ("m",), "aperiodic")
    D = MeasureDiagram((top, arm), (FamilyLink("arm", "m", "top"),))
    hseq = seq_on(D, {"top": 0, "arm": 0}, "nondecreasing")
    bad = seq_on(D, {"top": 0, "arm": seq_step(1, lin(m=1), 0)}, "nonincreasing")
    with pytest.raises(ArgumentError, match="aperiodic"):
        analyze_diagram(D, hseq, bad)


def test_monotone_theta_gives_monotone_envelopes():
    # nonincreasing tails: the k-slices of the envelope are nonincreasing
    D = chain2()
    ptail = seq_on(
        D,
        {
            "deep": seq_step(Fraction(3, 2), lin(1, j=1), 0),
            "mid": seq_step(1, lin(m=1), 0),
            "top": 0,
        },
        "nonincreasing",
    )
    for nid, s in ptail.specs:
        node = D.node(nid)
        prev = None
        for k in (1, 2, 3, 5, 8):
            fk = seq_slice(s, k, node.mins)
            if prev is not None:
                assert fn_le(fk, prev, node.mins) is None
            prev = fk


def test_envelope_slices_nonincreasing_in_k():
    # the envelopes of a nonincreasing tail sequence are nonincreasing in k
    D = chain2()
    ptail = seq_on(
        D,
        {
            "deep": seq_step(1, lin(j=1), 0),
            "mid": seq_step(1, lin(2, m=1), 0),
            "top": 0,
        },
        "nonincreasing",
    )
    prev = None
    for k in (1, 2, 3, 5, 8, 13):
        slice_k = fn_on(
            D, {n.node_id: seq_slice(ptail.spec(n.node_id), k, n.mins) for n in D.nodes}
        )
        env_k = usc_envelope(slice_k, D)
        if prev is not None:
            for n in D.nodes:
                assert fn_le(env_k.spec(n.node_id), prev.spec(n.node_id), n.mins) is None
        prev = env_k


def test_envelope_of_fixed_k_period_tail_slice():
    # at any fixed k the envelope of the tail slice is a full bit on the
    # middle layer: members with threshold beyond k always exist
    D = chain2()
    ptail = seq_on(
        D,
        {
            "deep": seq_step(1, lin(j=1), 0),
            "mid": seq_step(1, lin(m=1), 0),
            "top": 0,
        },
        "nonincreasing",
    )
    for k in (1, 3, 7):
        slice_k = fn_on(
            D, {n.node_id: seq_slice(ptail.spec(n.node_id), k, n.mins) for n in D.nodes}
        )
        env = usc_envelope(slice_k, D)
        for m in (1, 2, 5, 11):
            assert env.evaluate("mid", {"m": m}) == 1
        assert env.evaluate("top", {}) == 1


def mixture_value(f, parts):
    """Harmonic (weighted-average) value of f on a rational mixture.

    parts: list of (node_id, env, weight) with weights summing to 1.
    """
    total = sum((w for _, _, w in parts), Fraction(0))
    if total != 1:
        raise ArgumentError("mixture weights must sum to 1")
    acc = Fraction(0)
    for nid, env, w in parts:
        v = f.evaluate(nid, env)
        if v is INF:
            if w > 0:
                return INF
            continue
        acc += w * v
    return acc


def test_harmonic_mixture_evaluation():
    # functions on the diagram average over rational mixtures of instances
    D = chain2()
    ptail = seq_on(
        D,
        {
            "deep": seq_step(1, lin(j=1), 0),
            "mid": seq_step(1, lin(m=1), 0),
            "top": 0,
        },
        "nonincreasing",
    )
    u2 = minimal_repair(ptail, zero_fn(D), D)
    parts = [
        ("top", {}, Fraction(1, 2)),
        ("mid", {"m": 3}, Fraction(1, 4)),
        ("deep", {"m": 3, "j": 5}, Fraction(1, 4)),
    ]
    assert mixture_value(u2, parts) == Fraction(1, 2) * 2 + Fraction(1, 4) * 1
    with pytest.raises(ArgumentError):
        mixture_value(u2, parts[:2])


# ---------------------------------------------------------------------------
# the per-class witness loops the shared search replaced, kept as references


def naive_is_repair(u, theta, diagram):
    _require_vanishing_tails(theta)
    for node in diagram.nodes:
        if naive_fn_le(const_fn(0), u.spec(node.node_id), node.mins) is not None:
            raise ArgumentError("repair candidates must be nonnegative")
    limit = envelope_limit(u, theta, diagram)
    for node in diagram.nodes:
        w = naive_fn_compare(limit.spec(node.node_id), u.spec(node.node_id), node.mins)
        if w is not None:
            env, lv, uv = w
            return RepairVerdict(False, node.node_id, tuple(sorted(env.items())), lv - uv)
    return RepairVerdict(True)


def is_usc(f, diagram):
    return envelope._equal(usc_envelope(f, diagram), f, diagram)


def k_horizon(hseq, E, diagram):
    """How far the direct check below runs: past every guard and threshold
    constant, and further by the largest threshold at its class's minimums.
    It suffices for the random pools here, not for every input."""
    consts = [3]
    for _, s in hseq.specs:
        consts.append(abs(s.tau.const) + sum(c for _, c in s.tau.coeffs) * 4)
    for _, f in E.specs:
        for atoms, _ in f.pieces:
            for a in atoms:
                consts.append(abs(a.rhs.const))
    at_mins = max(hseq.spec(n.node_id).tau.evaluate(n.mins) for n in diagram.nodes)
    return max(consts) + 4 + at_mins


def seq_slice(s, k, mins=None):
    """The k-th function of the threshold sequence s, as a piecewise spec.

    A single-parameter threshold becomes one step; a two-parameter
    threshold has a finite settled region {a*p + b*q <= k - const},
    which is enumerated one outer value at a time.
    """
    if not s.tau.coeffs:
        return const_fn(s.lo if k < s.tau.const else s.hi)
    if len(s.tau.coeffs) == 1:
        p, c = s.tau.coeffs[0]
        # k < c*p + const  <=>  p > (k - const)/c  <=>  p >= floor(...) + 1
        thr = (k - s.tau.const) // c + 1
        return step_fn(p, lin(max(thr, 0)), s.hi, s.lo)  # p < thr: k >= tau
    (p, a), (q, b) = s.tau.coeffs
    mins = mins or {}
    p_min, q_min = mins.get(p, 1), mins.get(q, 1)
    bound = k - s.tau.const  # settled (hi) region: a*p + b*q <= bound
    p_max = (bound - b * q_min) // a
    if p_max < p_min:
        return const_fn(s.lo)
    pieces = []
    for p0 in range(p_min, p_max + 1):
        q_thr = (bound - a * p0) // b + 1  # q < q_thr: settled
        at_p0 = (Atom(p, False, lin(p0)), Atom(p, True, lin(p0 + 1)))
        pieces.append((at_p0 + (Atom(q, True, lin(q_thr)),), s.hi))
        pieces.append((at_p0 + (Atom(q, False, lin(q_thr)),), s.lo))
    pieces.append(((Atom(p, False, lin(p_max + 1)),), s.lo))
    return FnSpec(tuple(pieces))


def naive_is_superenvelope(E, hseq, diagram):
    """The direct check the repair duality replaced, on the values as given:
    E >= h, then E - h_k upper semicontinuous for k = 1..k_horizon.  E - h_k
    is nonnegative for every k once E >= h, since h_k <= h.  The witness is
    the first class in diagram order that fails at some k, at its least
    failing k."""
    if hseq.monotone != "nondecreasing":
        raise ArgumentError("entropy sequences must be nondecreasing")
    h = hseq.limit_fn(diagram)
    for node in diagram.nodes:
        w = naive_fn_le(h.spec(node.node_id), E.spec(node.node_id), node.mins)
        if w is not None:
            env, hv, ev = w
            return SuperenvelopeVerdict(
                False, node.node_id, tuple(sorted(env.items())), f"E = {ev} < h = {hv}"
            )
    @functools.cache
    def slice_at(k):
        """E - h_k and its usc envelope."""
        diff = {}
        for node in diagram.nodes:
            hk = seq_slice(hseq.spec(node.node_id), k, node.mins)
            if any(v is INF for _, v in hk.pieces):
                raise ArgumentError("entropy sequences must take finite values")
            minus = FnSpec(tuple((atoms, -v) for atoms, v in hk.pieces))
            diff[node.node_id] = fn_add(E.spec(node.node_id), minus, node.mins)
        g = fn_on(diagram, diff)
        return g, usc_envelope(g, diagram)

    horizon = k_horizon(hseq, E, diagram)
    slice_at(horizon)  # every value of h shows here, so it refuses an infinite one
    for node in diagram.nodes:
        for k in range(1, horizon + 1):
            g, env_g = slice_at(k)
            w = naive_fn_compare(env_g.spec(node.node_id), g.spec(node.node_id), node.mins)
            if w is not None:
                env, ev, gv = w
                return SuperenvelopeVerdict(
                    False,
                    node.node_id,
                    tuple(sorted(env.items())),
                    f"E - h_{k} not usc: envelope {ev} > {gv}",
                )
    return SuperenvelopeVerdict(True)


def k_loop_view(verdict):
    """What is_superenvelope shares with the direct check: the whole verdict
    where E < h somewhere (or on a refusal), else the answer and the witness
    class.  The duality's witness point and detail need not be the first
    failing k's."""
    if isinstance(verdict, SuperenvelopeVerdict) and verdict.detail.startswith("E - h"):
        return verdict.is_superenvelope, verdict.witness_node
    return verdict


def naive_pointwise_bounds(rep, diagram):
    """analyze_diagram's lower and upper pointwise verdicts, class by class."""
    lower_pw = upper_pw = True
    for n in diagram.nodes:
        h_plus_u1 = fn_add(rep.h.spec(n.node_id), rep.u1.spec(n.node_id), n.mins)
        lhs = fn_max(rep.h_sex.spec(n.node_id), h_plus_u1, n.mins)
        if naive_fn_le(lhs, rep.h_emb.spec(n.node_id), n.mins) is not None:
            lower_pw = False
        rhs = fn_add(rep.h_sex.spec(n.node_id), rep.u1.spec(n.node_id), n.mins)
        if naive_fn_le(rep.h_emb.spec(n.node_id), rhs, n.mins) is not None:
            upper_pw = False
    return lower_pw, upper_pw


def outcome(fn, *args):
    try:
        return fn(*args)
    except ArgumentError as exc:
        return "error", str(exc)


_CANDIDATE_VALUES = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), INF]


def random_candidate(rng, diagram, negative=False):
    """Per class a constant or a step along one parameter; with `negative`,
    some class may dip below 0."""
    values = _CANDIDATE_VALUES + ([Fraction(-1, 2)] if negative else [])
    specs = {}
    for n in diagram.nodes:
        if not n.params or rng.random() < 0.4:
            specs[n.node_id] = const_fn(rng.choice(values))
        else:
            var = rng.choice(n.params)
            specs[n.node_id] = step_fn(
                var, lin(rng.randrange(1, 5)), rng.choice(values), rng.choice(values)
            )
    return fn_on(diagram, specs)


def with_infinite_tails(rng, theta, diagram):
    """theta with some positive lo sides replaced by infinity."""
    specs = {
        nid: SeqSpec(INF if s.lo > 0 and rng.random() < 0.5 else s.lo, s.tau, s.hi)
        for nid, s in theta.specs
    }
    return seq_on(diagram, specs, "nonincreasing")


def test_repair_verdicts_match_the_reference():
    rng = random.Random(47)
    failing = 0
    for _ in range(400):
        D, hseq, perseq = random_diagram(rng)
        theta = rng.choice([perseq, tails_of(hseq, D)])
        if rng.random() < 0.3:
            theta = with_infinite_tails(rng, theta, D)
        pick = rng.randrange(4)
        if pick == 0:
            u = u_one(theta, D)
        elif pick == 1:
            u = minimal_repair(theta, zero_fn(D), D)
        else:
            u = random_candidate(rng, D, negative=pick == 3)
        got = outcome(is_repair, u, theta, D)
        assert got == outcome(naive_is_repair, u, theta, D)
        failing += got != RepairVerdict(True)
    assert failing > 150


def test_floor_guard_matches_the_reference():
    rng = random.Random(53)
    refused = 0
    for _ in range(60):
        D, _, perseq = random_diagram(rng)
        floor = random_candidate(rng, D, negative=True)
        negative = any(
            naive_fn_le(const_fn(0), floor.spec(n.node_id), n.mins) is not None
            for n in D.nodes
        )
        got = outcome(minimal_repair, perseq, floor, D)
        assert (got == ("error", "floor must be nonnegative")) == negative
        refused += negative
    assert 10 < refused < 50


def test_superenvelope_verdicts_match_the_reference():
    rng = random.Random(59)
    failing = 0
    for _ in range(80):
        D, hseq, _ = random_diagram(rng)
        if rng.random() < 0.25:  # often below h somewhere
            E = random_candidate(rng, D)
            got = is_superenvelope(E, hseq, D)
            assert k_loop_view(got) == k_loop_view(naive_is_superenvelope(E, hseq, D))
            failing += not got.is_superenvelope
            continue
        h_sex = None
        if rng.random() < 0.4:
            u_sex = minimal_repair(tails_of(hseq, D), zero_fn(D), D)
            h_sex = fn_on(
                D,
                {
                    n.node_id: fn_add(
                        hseq.limit_fn(D).spec(n.node_id), u_sex.spec(n.node_id), n.mins
                    )
                    for n in D.nodes
                },
            )
        E = random_candidate_envelope(rng, D, hseq, h_sex)
        if rng.random() < 0.2:
            nid = rng.choice(D.nodes).node_id
            E = fn_on(D, {**dict(E.specs), nid: const_fn(INF)})
        got = is_superenvelope(E, hseq, D)
        assert k_loop_view(got) == k_loop_view(naive_is_superenvelope(E, hseq, D))
        failing += not got.is_superenvelope
    assert 20 < failing < 70


def three_class_diagram(least, v=1):
    """top; mid(m) and deep(m, p) with m starting at `least`.  h steps from 0
    to v on mid at k = m and is 0 elsewhere, and E = v everywhere: so E - h_k
    is 0 at mid(m) for m <= k, below the v its deep members carry, and first
    fails to be usc at k = least."""
    top = Node("top", (), "periodic", "1")
    mid = Node("mid", ("m",), "periodic", None, (least,))
    deep = Node("deep", ("m", "p"), "periodic", None, (least, 1))
    D = MeasureDiagram(
        (top, mid, deep), (FamilyLink("deep", "p", "mid"), FamilyLink("mid", "m", "top"))
    )
    hseq = seq_on(D, {"top": 0, "mid": seq_step(0, lin(m=1), v), "deep": 0}, "nondecreasing")
    return fn_on(D, {n.node_id: const_fn(v) for n in D.nodes}), hseq, D


def test_superenvelope_verdicts_see_past_the_parameter_minimums():
    for least, v in ((1, 1), (100, 1), (100, Fraction(2, 3))):
        E, hseq, D = three_class_diagram(least, v)
        got = is_superenvelope(E, hseq, D)
        assert (got.is_superenvelope, got.witness_node, got.witness_env) == (False, "mid", (("m", least),))
        assert got.detail == f"E - h does not repair the tails: envelope limit {v} > 0"
        assert k_loop_view(naive_is_superenvelope(E, hseq, D)) == (False, "mid")
    # no k is visited, so the answer costs the same at any minimum
    with Budget("superenvelope verdict with mins 10**9", 1.0):
        got = is_superenvelope(*three_class_diagram(10**9))
    assert (got.is_superenvelope, got.witness_node, got.witness_env) == (False, "mid", (("m", 10**9),))


def test_superenvelope_verdicts_refuse_steps_that_ignore_a_parameter():
    # h steps at k = 5 on every arm(m) at once, so h_2 - h_1 = 0 everywhere
    # but h_5 - h_4 is 1 on each arm(m) and 0 at top: not usc.  E - h_1 is 0
    # at top and 1 on each arm(m), not usc either, yet E - h repairs the
    # tails, so the duality would answer True where the k loop says False
    top, arm = Node("top", (), "periodic", "1"), Node("arm", ("m",), "periodic")
    D = MeasureDiagram((top, arm), (FamilyLink("arm", "m", "top"),))
    hseq = seq_on(D, {"top": 0, "arm": seq_step(0, lin(5), 1)}, "nondecreasing")
    E = fn_on(D, {"top": const_fn(0), "arm": const_fn(1)})
    direct = naive_is_superenvelope(E, hseq, D)
    assert (direct.is_superenvelope, direct.witness_node, direct.detail) == (
        False, "top", "E - h_1 not usc: envelope 1 > 0"
    )
    with pytest.raises(ArgumentError, match=r"arm: an entropy step's threshold 5 must grow"):
        is_superenvelope(E, hseq, D)
    # refused before E >= h is checked, and only where the sequence steps up
    with pytest.raises(ArgumentError, match="must grow"):
        is_superenvelope(zero_fn(D), hseq, D)
    flat = seq_on(D, {"top": 0, "arm": seq_step(1, lin(5), 1)}, "nondecreasing")
    assert is_superenvelope(E, flat, D).is_superenvelope


def test_superenvelope_verdicts_match_the_k_loop_on_raised_minimums():
    rng = random.Random(13)
    failing = 0
    for choices in ((1, 3, 5), (1, 10, 40)):
        for _ in range(100):
            D, hseq, _ = random_diagram(rng)
            D = with_drawn_mins(rng, D, choices)
            E = random_candidate_envelope(rng, D, hseq, None)
            got = is_superenvelope(E, hseq, D)
            assert k_loop_view(got) == k_loop_view(naive_is_superenvelope(E, hseq, D))
            failing += not got.is_superenvelope
    assert 100 < failing < 190


def test_pointwise_bounds_match_the_reference():
    rng = random.Random(61)
    for _ in range(80):
        D, hseq, perseq = random_diagram(rng)
        if rng.random() < 0.3:
            perseq = with_infinite_tails(rng, perseq, D)
        rep = analyze_diagram(D, hseq, perseq)
        got = (rep.bounds.lower_pointwise, rep.bounds.upper_pointwise)
        assert got == naive_pointwise_bounds(rep, D)


def test_witness_env_is_sorted_items():
    # the comparison may build its env in any order; the witness sorts it
    D = chain2()
    f = fn_on(D, {n.node_id: const_fn(0) for n in D.nodes})

    def unsorted_compare(fs, gs, mins):
        return ({"m": 3, "j": 1}, 1, 0) if "j" in mins else None

    assert envelope._witness(f, f, D, unsorted_compare) == (
        "deep", (("j", 1), ("m", 3)), 1, 0
    )


# ---------------------------------------------------------------------------
# the Fraction path that integer numerators over one scale replaced, kept as
# the reference: the entry points as they ran before, on the generic algebra


def naive_fraction_u_one(theta, diagram):
    _require_vanishing_tails(theta)
    return envelope_limit(zero_fn(diagram), theta, diagram)


def naive_fraction_is_repair(u, theta, diagram):
    _require_vanishing_tails(theta)
    if envelope._witness(zero_fn(diagram), u, diagram, fn_le) is not None:
        raise ArgumentError("repair candidates must be nonnegative")
    w = envelope._witness(envelope_limit(u, theta, diagram), u, diagram, fn_compare)
    if w is not None:
        nid, env, lv, uv = w
        return RepairVerdict(False, nid, env, lv - uv)
    return RepairVerdict(True)


def naive_fraction_minimal_repair(theta, floor, diagram):
    _require_vanishing_tails(theta)
    if envelope._witness(zero_fn(diagram), floor, diagram, fn_le) is not None:
        raise ArgumentError("floor must be nonnegative")
    if not envelope._equal(envelope_limit(floor, zero_seq(diagram), diagram), floor, diagram):
        raise ArgumentError("floor must be upper semicontinuous")
    pointwise = envelope._pointwise
    u = pointwise(fn_max, floor, naive_fraction_u_one(theta, diagram), diagram)
    for _ in range(diagram.depth + 1):
        nxt = pointwise(fn_max, floor, envelope_limit(u, theta, diagram), diagram)
        if envelope._equal(nxt, u, diagram):
            verdict = naive_fraction_is_repair(u, theta, diagram)
            if not verdict.repairs:
                raise ConstructionError(f"fixpoint fails re-verification: {verdict.render()}")
            return u
        u = nxt
    raise ConstructionError(f"no repair fixpoint within {diagram.depth + 1} iterations")


def naive_fraction_analyze_diagram(diagram, hseq, perseq):
    pointwise, witness, sup_over = envelope._pointwise, envelope._witness, envelope._sup_over
    warnings = []
    envelope._require_vanishing_tails_perseq(perseq, diagram)
    theta = tails_of(hseq, diagram)
    h = hseq.limit_fn(diagram)
    u_sex = naive_fraction_minimal_repair(theta, zero_fn(diagram), diagram)
    u1 = naive_fraction_u_one(perseq, diagram)
    u_emb = naive_fraction_minimal_repair(theta, u1, diagram)
    h_sex = pointwise(fn_add, h, u_sex, diagram)
    h_emb = pointwise(fn_add, h, u_emb, diagram)
    lower = pointwise(fn_max, h_sex, pointwise(fn_add, h, u1, diagram), diagram)
    upper = pointwise(fn_add, h_sex, u1, diagram)
    p_star, sup_h_sex, sup_h_emb = (sup_over(f, diagram) for f in (u1, h_sex, h_emb))
    bounds = envelope.BoundVerdicts(
        witness(lower, h_emb, diagram, fn_le) is None,
        witness(h_emb, upper, diagram, fn_le) is None,
        max(sup_h_sex, p_star) <= sup_h_emb,
        sup_h_emb <= sup_h_sex + p_star,
    )
    cardinality = None
    p_sup = diagram.p_sup
    if sup_h_emb is not INF:
        emb_val = EntropyValue(Fraction(sup_h_emb))
        if p_sup is None:
            warnings.append("cardinality computed from sup h_emb only: no periodic-capacity input")
            cardinality = optimal_alphabet_size(emb_val)
        else:
            cardinality = optimal_alphabet_size(max(p_sup, emb_val))
    else:
        warnings.append("sup h_emb is infinite: no finite-alphabet extension")
    return envelope.DiagramReport(
        h, h_sex, u1, h_emb, p_star, sup_h_sex, sup_h_emb, bounds, cardinality, p_sup, tuple(warnings)
    )


def _times(x, c):
    return x if x is INF else x * c


def rescaled_seq(seq, diagram, c):
    """seq with every lo and hi multiplied by c > 0: still monotone, and
    tails stay nonnegative with limit 0."""
    specs = {nid: SeqSpec(_times(s.lo, c), s.tau, _times(s.hi, c)) for nid, s in seq.specs}
    return seq_on(diagram, specs, seq.monotone)


def rescaled_fn(f, diagram, c):
    return fn_on(
        diagram,
        {nid: FnSpec(tuple((a, _times(v, c)) for a, v in s.pieces)) for nid, s in f.specs},
    )


def odd_factor(rng):
    """A positive rational whose denominator is neither 1 nor 2."""
    while True:
        c = Fraction(rng.randrange(1, 40), rng.randrange(3, 13))
        if c.denominator > 2:
            return c


def same(got, want):
    """Equal, and equal as written: an int where a Fraction was shows in repr."""
    return got == want and repr(got) == repr(want)


def test_scaled_entry_points_match_the_fraction_path():
    rng = random.Random(71)
    seen = {"repairs": 0, "fails": 0, "superenvelope": 0, "not": 0, "odd": 0}
    for i in range(150):
        D, hseq, perseq = random_diagram(rng)
        hseq = rescaled_seq(hseq, D, odd_factor(rng))
        perseq = rescaled_seq(perseq, D, odd_factor(rng))
        if rng.random() < 0.2:
            perseq = with_infinite_tails(rng, perseq, D)
        seen["odd"] += any(v is not INF and v.denominator > 2 for v in hseq.values() + perseq.values())
        assert same(outcome(analyze_diagram, D, hseq, perseq), outcome(naive_fraction_analyze_diagram, D, hseq, perseq))
        theta = rng.choice([perseq, tails_of(hseq, D)])
        floor = rescaled_fn(random_candidate(rng, D, negative=i % 4 == 0), D, odd_factor(rng))
        assert same(outcome(minimal_repair, theta, floor, D), outcome(naive_fraction_minimal_repair, theta, floor, D))
        assert same(outcome(u_one, theta, D), outcome(naive_fraction_u_one, theta, D))
        for u in (
            naive_fraction_u_one(theta, D),
            naive_fraction_minimal_repair(theta, zero_fn(D), D),
            rescaled_fn(random_candidate(rng, D, negative=i % 5 == 0), D, odd_factor(rng)),
        ):
            got = outcome(is_repair, u, theta, D)
            assert same(got, outcome(naive_fraction_is_repair, u, theta, D))
            if isinstance(got, RepairVerdict):
                seen["repairs" if got.repairs else "fails"] += 1
        E = random_candidate_envelope(rng, D, hseq, None)
        if rng.random() < 0.3:
            E = rescaled_fn(E, D, odd_factor(rng))
        got = outcome(is_superenvelope, E, hseq, D)
        assert same(k_loop_view(got), k_loop_view(outcome(naive_is_superenvelope, E, hseq, D)))
        seen["superenvelope" if got.is_superenvelope else "not"] += 1
    # both verdicts of each check occur, on values with denominators past 2
    assert min(seen.values()) > 10, seen


def boundary_values(result):
    """Every value an entry point's result carries out."""
    if isinstance(result, envelope.DiagramReport):
        fns = (result.h, result.h_sex, result.u1, result.h_emb)
        return [v for f in fns for v in f.values()] + [result.p_star, result.sup_h_sex, result.sup_h_emb]
    if isinstance(result, RepairVerdict):
        return [] if result.repairs else [result.residual]
    return result.values()


def assert_fraction_values(result):
    for v in boundary_values(result):
        assert v is INF or type(v) is Fraction, (v, type(v))


def test_values_leave_the_entry_points_as_fractions():
    cases = [scenario_data("example1"), scenario_data("pickupsticks")]
    cases += [scenario_data(name, h0) for name in ("example2", "example3") for h0 in (Fraction(1, 2), 2)]
    cases = [(c.diagram, c.hseq, c.perseq) for c in cases]
    rng = random.Random(73)
    cases += [random_diagram(rng) for _ in range(100)]
    residuals = 0
    for D, hseq, perseq in cases:
        assert_fraction_values(analyze_diagram(D, hseq, perseq))
        theta = tails_of(hseq, D)
        u1 = u_one(perseq, D)
        assert_fraction_values(u1)
        assert_fraction_values(minimal_repair(theta, zero_fn(D), D))
        assert_fraction_values(minimal_repair(theta, u1, D))
        E = random_candidate_envelope(rng, D, hseq, None)
        assert_fraction_values(usc_envelope(E, D))
        for u, th in ((u1, perseq), (zero_fn(D), theta), (random_candidate(rng, D), theta)):
            verdict = is_repair(u, th, D)
            assert_fraction_values(verdict)
            residuals += not verdict.repairs
        v = is_superenvelope(E, hseq, D)
        assert k_loop_view(v) == k_loop_view(naive_is_superenvelope(E, hseq, D))
    assert residuals > 50


def as_int(v):
    """A whole Fraction as the int it equals; any other value as it is."""
    return int(v) if isinstance(v, Fraction) and v.denominator == 1 else v


def test_int_values_give_the_results_of_equal_fractions():
    rng = random.Random(79)
    ints = 0
    for i in range(80):
        D, hseq, perseq = random_diagram(rng)
        # doubled, every value of the random pool is whole: 0, 1, 2, 3 or 4
        hseq, perseq = rescaled_seq(hseq, D, 2), rescaled_seq(perseq, D, 2)
        if i % 4 == 0:
            perseq = with_infinite_tails(rng, perseq, D)
        theta = rng.choice([perseq, tails_of(hseq, D)])
        u = rescaled_fn(random_candidate(rng, D, negative=i % 5 == 0), D, 2)
        E = rescaled_fn(random_candidate_envelope(rng, D, hseq, None), D, 2)
        calls = (
            (analyze_diagram, D, hseq, perseq),
            (u_one, theta, D),
            (is_repair, u, theta, D),
            (minimal_repair, theta, u, D),
            (usc_envelope, u, D),
            (is_superenvelope, E, hseq, D),
        )
        for fn, *args in calls:
            int_args = [a.map_values(as_int) if hasattr(a, "map_values") else a for a in args]
            ints += sum(type(v) is int for a in int_args if hasattr(a, "values") for v in a.values())
            got, want = outcome(fn, *int_args), outcome(fn, *args)
            assert same(got, want), fn.__name__
            if not isinstance(got, (tuple, SuperenvelopeVerdict)):
                assert_fraction_values(got)
    assert ints > 1000


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/2", True, EntropyValue(1)])
def test_values_that_are_not_exact_are_refused(bad):
    D = chain2()
    message = "^" + re.escape(f"diagram values must be exact (int, Fraction or INF), not {bad!r}") + "$"
    assert diagram_module.exact(Fraction(1, 2)) == Fraction(1, 2)
    assert diagram_module.exact(2) == 2 and diagram_module.exact(INF) is INF
    with pytest.raises(ArgumentError, match=message):
        diagram_module.exact(bad)
    # fn_on keeps the value, and an analysis refuses it before any answer
    f = fn_on(D, {"deep": 0, "mid": step_fn("m", lin(3), 0, bad), "top": 0})
    zero = zero_seq(D)
    for run in (
        lambda: usc_envelope(f, D),
        lambda: is_usc(f, D),
        lambda: is_repair(f, zero, D),
        lambda: minimal_repair(zero, f, D),
        lambda: is_superenvelope(f, seq_on(D, {"deep": 0, "mid": 0, "top": 0}, "nondecreasing"), D),
    ):
        with pytest.raises(ArgumentError, match=message):
            run()
    # a sequence refuses it as a SeqSpec lo or hi, or as a bare value
    for spec in (SeqSpec(bad, lin(0, m=1), 0), SeqSpec(1, lin(0, m=1), bad), bad):
        for monotone in ("nonincreasing", "nondecreasing"):
            with pytest.raises(ArgumentError, match=message):
                seq_on(D, {"deep": 0, "mid": spec, "top": 0}, monotone)


def test_a_refused_analysis_leaves_later_answers_unchanged():
    D = chain2()
    ptail = seq_on(
        D,
        {"deep": seq_step(1, lin(j=1), 0), "mid": seq_step(1, lin(m=1), 0), "top": 0},
        "nonincreasing",
    )
    fresh = minimal_repair(ptail, zero_fn(D), D)
    not_usc = fn_on(D, {"deep": const_fn(0), "mid": const_fn(1), "top": const_fn(0)})
    with pytest.raises(ArgumentError, match="upper semicontinuous"):
        minimal_repair(ptail, not_usc, D)
    assert same(minimal_repair(ptail, zero_fn(D), D), fresh)

    # an infinite h is refused once E >= h holds
    top, arm = Node("top", (), "periodic", "1"), Node("arm", ("m",), "periodic")
    D2 = MeasureDiagram((top, arm), (FamilyLink("arm", "m", "top"),))
    hseq = seq_on(D2, {"top": INF, "arm": seq_step(0, lin(m=1), INF)}, "nondecreasing")
    E = fn_on(D2, {"top": const_fn(INF), "arm": const_fn(INF)})
    with pytest.raises(ArgumentError, match="finite values"):
        is_superenvelope(E, hseq, D2)
    finite = seq_on(D2, {"top": 1, "arm": seq_step(0, lin(m=1), 1)}, "nondecreasing")
    assert is_superenvelope(E, finite, D2) == naive_is_superenvelope(E, finite, D2)


def test_no_envelope_limit_is_computed_twice(monkeypatch):
    # the fixpoint's re-verification reuses the limit the loop just took,
    # both repairs of an analysis start from one u_one of the entropy tails,
    # and an analysis takes no usc envelope of its own floor 0
    calls = []

    def counted(u, theta, diagram):
        calls.append(1)
        return real(u, theta, diagram)

    real = envelope.envelope_limit
    monkeypatch.setattr(envelope, "envelope_limit", counted)
    monkeypatch.setitem(globals(), "envelope_limit", counted)

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    rng = random.Random(79)
    for _ in range(40):
        D, hseq, perseq = random_diagram(rng)
        theta = tails_of(hseq, D)
        assert count(minimal_repair, theta, zero_fn(D), D) == count(naive_fraction_minimal_repair, theta, zero_fn(D), D) - 1
        assert count(analyze_diagram, D, hseq, perseq) == count(naive_fraction_analyze_diagram, D, hseq, perseq) - 4
