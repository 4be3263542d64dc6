import random
from fractions import Fraction

import pytest

from symdyn.diagram import (
    INF,
    FamilyLink,
    FnSpec,
    MeasureDiagram,
    Node,
    const_fn,
    fn_add,
    fn_compare,
    fn_le,
    fn_on,
    lin,
    seq_on,
    seq_step,
    step_fn,
    tails_of,
)
from symdyn.envelope import (
    analyze_diagram,
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
