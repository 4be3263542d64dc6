import random
from fractions import Fraction

import pytest

from symdyn.diagram import (
    INF,
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
    _k_horizon,
    _require_vanishing_tails,
    analyze_diagram,
    envelope_limit,
    is_repair,
    is_superenvelope,
    is_usc,
    minimal_repair,
    u_one,
    usc_envelope,
    zero_fn,
    zero_seq,
)
from symdyn.errors import ArgumentError
from symdyn.randgen import random_candidate_envelope, random_diagram
from symdyn.report import jsonable
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
        direct = is_superenvelope(E, hseq, D).is_superenvelope
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
        assert direct == via_repair


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
            fk = s.as_fn(k, node.mins)
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
            D, {n.node_id: ptail.spec(n.node_id).as_fn(k, n.mins) for n in D.nodes}
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
            D, {n.node_id: ptail.spec(n.node_id).as_fn(k, n.mins) for n in D.nodes}
        )
        env = usc_envelope(slice_k, D)
        for m in (1, 2, 5, 11):
            assert env.evaluate("mid", {"m": m}) == 1
        assert env.evaluate("top", {}) == 1


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
    assert u2.mixture_value(parts) == Fraction(1, 2) * 2 + Fraction(1, 4) * 1
    with pytest.raises(ArgumentError):
        u2.mixture_value(parts[:2])


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


def naive_is_superenvelope(E, hseq, diagram, k_horizon=None):
    h = hseq.limit_fn(diagram)
    for node in diagram.nodes:
        w = naive_fn_le(h.spec(node.node_id), E.spec(node.node_id), node.mins)
        if w is not None:
            env, hv, ev = w
            return SuperenvelopeVerdict(
                False, (), node.node_id, tuple(sorted(env.items())), f"E = {ev} < h = {hv}"
            )
    if k_horizon is None:
        k_horizon = _k_horizon(hseq, E, diagram)
    checked = tuple(range(1, k_horizon + 1))
    for k in checked:
        diff = {}
        for node in diagram.nodes:
            hk = hseq.spec(node.node_id).as_fn(k, node.mins)
            minus = FnSpec(tuple((atoms, -v) for atoms, v in hk.pieces))
            diff[node.node_id] = fn_add(E.spec(node.node_id), minus, node.mins)
        g = fn_on(diagram, diff)
        for node in diagram.nodes:
            lowest = min(v for _, v in g.spec(node.node_id).pieces)
            if lowest < 0:
                w = naive_fn_le(const_fn(0), g.spec(node.node_id), node.mins)
                if w is not None:
                    env, _, gv = w
                    return SuperenvelopeVerdict(
                        False,
                        checked[:k],
                        node.node_id,
                        tuple(sorted(env.items())),
                        f"E - h_{k} = {gv} < 0",
                    )
        env_g = usc_envelope(g, diagram)
        for node in diagram.nodes:
            w = naive_fn_compare(env_g.spec(node.node_id), g.spec(node.node_id), node.mins)
            if w is not None:
                envv, ev_, gv = w
                return SuperenvelopeVerdict(
                    False,
                    checked[:k],
                    node.node_id,
                    tuple(sorted(envv.items())),
                    f"E - h_{k} not usc: envelope {ev_} > {gv}",
                )
    return SuperenvelopeVerdict(True, checked)


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
    for i in range(80):
        D, hseq, _ = random_diagram(rng)
        # the default horizon on every third instance, a short one elsewhere
        horizon = None if i % 3 == 0 else 6
        if rng.random() < 0.25:  # often below h somewhere
            E = random_candidate(rng, D)
            got = is_superenvelope(E, hseq, D, horizon)
            assert got == naive_is_superenvelope(E, hseq, D, horizon)
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
        got = is_superenvelope(E, hseq, D, horizon)
        assert got == naive_is_superenvelope(E, hseq, D, horizon)
        failing += not got.is_superenvelope
    assert 20 < failing < 70


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
