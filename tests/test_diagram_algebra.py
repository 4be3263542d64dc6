import copy
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from symdyn.diagram import (
    _SLOPE_STEP,
    INF,
    Atom,
    FamilyLink,
    Lin,
    MeasureDiagram,
    Node,
    SeqSpec,
    const_fn,
    feasible,
    feasible_unbounded,
    fn_add,
    fn_compare,
    fn_eventual,
    fn_le,
    fn_max,
    fn_sup,
    lin,
    seq_on,
    seq_step,
    step_fn,
    tau_unbounded_along,
)
from symdyn.entropy import EntropyValue
from symdyn.errors import ArgumentError
from symdyn.scenarios import scenario_data


def rand_lin(rng, other_vars):
    coeffs = {}
    for v in other_vars:
        c = rng.choice([0, 0, 1, 1, 2])
        if c:
            coeffs[v] = c
    return lin(rng.randrange(0, 7), **coeffs)


def rand_atoms(rng, vars_, max_atoms=4):
    atoms = []
    for _ in range(rng.randrange(0, max_atoms + 1)):
        v = rng.choice(vars_)
        others = [x for x in vars_ if x != v]
        atoms.append(Atom(v, rng.random() < 0.5, rand_lin(rng, others)))
    return atoms


BOX = 60  # brute-force verification box


def brute_feasible(atoms, mins, box=BOX):
    vars_ = sorted({a.var for a in atoms} | {p for a in atoms for p in a.rhs.params} | set(mins))
    if not vars_:
        return {}
    if len(vars_) == 1:
        x = vars_[0]
        for vx in range(mins.get(x, 1), box):
            env = {x: vx}
            if all(a.holds(env) for a in atoms):
                return env
        return None
    x, y = vars_
    for vx in range(mins.get(x, 1), box):
        for vy in range(mins.get(y, 1), box):
            env = {x: vx, y: vy}
            if all(a.holds(env) for a in atoms):
                return env
    return None


def test_feasibility_against_bruteforce():
    rng = random.Random(5)
    agreements = 0
    for _ in range(600):
        nvars = rng.choice([1, 2])
        vars_ = ["m", "j"][:nvars]
        mins = {v: 1 for v in vars_}
        atoms = rand_atoms(rng, vars_)
        got = feasible(atoms, mins)
        ref = brute_feasible(atoms, mins)
        if ref is None:
            # solver may find points beyond the brute box; verify any claim
            if got is not None:
                assert all(a.holds(got) for a in atoms)
            else:
                agreements += 1
        else:
            assert got is not None
            assert all(a.holds(got) for a in atoms)
            agreements += 1
    assert agreements > 300  # the brute box resolves most draws


def test_right_hand_side_parameters_are_variables():
    # guards over m that name j, with only m in mins: j ranges from 1
    rng = random.Random(8)
    found = 0
    for _ in range(400):
        mins = {"m": rng.choice([1, 1, 2, 5])}
        atoms = [Atom("m", rng.random() < 0.5, rand_lin(rng, ["j"])) for _ in range(rng.randrange(1, 4))]
        got = feasible(atoms, mins)
        ref = brute_feasible(atoms, mins)
        if ref is None:
            assert got is None or all(a.holds(got) for a in atoms)
        else:
            found += 1
            assert list(got.items()) == list(ref.items())
    assert found > 250  # the box resolves most draws


def test_a_guard_on_a_second_variable_is_solved():
    assert feasible([Atom("m", True, lin(0, t=1))], {"m": 1}) == {"m": 1, "t": 2}


def test_empty_guard_sets_sit_at_the_mins():
    assert list(feasible((), {"m": 3, "j": 2}).items()) == [("j", 2), ("m", 3)]
    assert feasible((), {}) == {}


def test_feasible_unbounded_against_sampling():
    rng = random.Random(6)
    for _ in range(400):
        vars_ = ["m", "j"]
        mins = {v: 1 for v in vars_}
        atoms = rand_atoms(rng, vars_)
        got = feasible_unbounded(atoms, mins, "m")

        # reference: feasibility somewhere in a far window (regions can be
        # periodic in m, e.g. m = 2j, so a full residue window is scanned)
        def feasible_at(mv):
            for jv in range(1, 3 * mv + 40):
                if all(a.holds({"m": mv, "j": jv}) for a in atoms):
                    return True
            return False

        ref = any(feasible_at(mv) for mv in range(480, 492))
        assert got == ref


def test_tau_unbounded_cases():
    mins = {"m": 1, "j": 1}
    # tau rides m: always unbounded when region is
    assert tau_unbounded_along([], mins, "m", lin(0, m=1))
    # tau = j with j capped by a guard: bounded
    atoms = [Atom("j", True, lin(5))]
    assert not tau_unbounded_along(atoms, mins, "m", lin(0, j=1))
    # tau = j with j >= m: unbounded along the diagonal
    atoms = [Atom("j", False, lin(0, m=1))]
    assert tau_unbounded_along(atoms, mins, "m", lin(0, j=1))
    # constant tau never grows
    assert not tau_unbounded_along([], mins, "m", lin(9))


@given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 6))
def test_step_fn_semantics(m, j, c):
    f = step_fn("j", lin(c, m=1), Fraction(1), Fraction(0))
    expected = Fraction(1) if j < m + c else Fraction(0)
    assert f.evaluate({"m": m, "j": j}) == expected


def test_fn_ops_pointwise():
    rng = random.Random(9)
    mins = {"m": 1, "j": 1}
    for _ in range(200):
        f = rand_fnspec(rng)
        g = rand_fnspec(rng)
        h_add = fn_add(f, g, mins)
        h_max = fn_max(f, g, mins)
        for _ in range(25):
            env = {"m": rng.randrange(1, 40), "j": rng.randrange(1, 40)}
            assert h_add.evaluate(env) == f.evaluate(env) + g.evaluate(env)
            assert h_max.evaluate(env) == max(f.evaluate(env), g.evaluate(env))


def rand_fnspec(rng):
    kind = rng.randrange(3)
    vals = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    if kind == 0:
        return const_fn(rng.choice(vals))
    var = rng.choice(["m", "j"])
    other = "j" if var == "m" else "m"
    tau = rand_lin(rng, [other]) if kind == 2 else lin(rng.randrange(1, 6))
    return step_fn(var, tau, rng.choice(vals), rng.choice(vals))


def test_fn_eventual_matches_large_param():
    rng = random.Random(10)
    mins = {"m": 1, "j": 1}
    for _ in range(300):
        f = rand_fnspec(rng)
        ev = fn_eventual(f, "j", mins)
        for m in (1, 2, 7, 19):
            big = f.evaluate({"m": m, "j": 10_000})
            assert ev.evaluate({"m": m}) == big


def test_fn_sup_matches_sampling():
    rng = random.Random(11)
    mins = {"m": 1, "j": 1}
    for _ in range(200):
        f = rand_fnspec(rng)
        sup = fn_sup(f, mins)
        samples = [
            f.evaluate({"m": m, "j": j})
            for m in list(range(1, 25)) + [400]
            for j in list(range(1, 25)) + [400, 1000]
        ]
        assert sup == max(samples)


def test_fn_compare_and_le():
    mins = {"m": 1}
    f = step_fn("m", lin(3), Fraction(1), Fraction(0))
    g = const_fn(Fraction(1))
    assert fn_compare(f, g, mins) is not None
    assert fn_le(f, g, mins) is None
    w = fn_le(g, f, mins)
    assert w is not None and w[0]["m"] >= 3


def value_at(s, env, k):
    """The k-th value of a threshold sequence at env, read off its definition."""
    return s.lo if k < s.tau.evaluate(env) else s.hi


def test_seq_as_fn_slices():
    from test_envelope import seq_slice  # test_envelope imports this module

    s = seq_step(Fraction(1), lin(2, m=1), Fraction(0))
    for k in (1, 2, 5, 9):
        fk = seq_slice(s, k, {"m": 1})
        for m in range(1, 12):
            assert fk.evaluate({"m": m}) == value_at(s, {"m": m}, k)
    two = seq_step(Fraction(1), lin(1, m=1, j=1), Fraction(0))
    for k in (1, 3, 6, 11):
        fk = seq_slice(two, k, {"m": 1, "j": 1})
        for m in range(1, 10):
            for j in range(1, 10):
                assert fk.evaluate({"m": m, "j": j}) == value_at(
                    two, {"m": m, "j": j}, k
                )


def test_lin_validation():
    with pytest.raises(ArgumentError):
        Lin(0, (("m", 5),))  # coefficient above the supported bound
    with pytest.raises(ArgumentError):
        Atom("m", True, lin(0, m=1))  # self-referencing guard


def test_diagram_validation():
    top = Node("top")
    arm = Node("arm", ("t",))
    with pytest.raises(ArgumentError, match="^a diagram needs at least one node class$"):
        MeasureDiagram((), ())
    with pytest.raises(ArgumentError):  # parameterized class must converge
        MeasureDiagram((top, arm), ())
    with pytest.raises(ArgumentError):  # family parameter must be innermost
        deep = Node("deep", ("m", "j"))
        MeasureDiagram(
            (top, deep), (FamilyLink("deep", "m", "top"),)
        )
    with pytest.raises(ArgumentError):  # limit params must match outer params
        mid = Node("mid", ("x",))
        deep = Node("deep", ("m", "j"))
        MeasureDiagram(
            (top, mid, deep),
            (FamilyLink("deep", "j", "mid"), FamilyLink("mid", "x", "top")),
        )


def test_chains_into_lists_the_families_two_steps_below():
    D = scenario_data("example1").diagram
    bottom_into_middle, middle_into_top = D.families
    assert (bottom_into_middle.limit, middle_into_top.limit) == ("mu_middle", "mu0")
    assert D.chains_into("mu0") == [bottom_into_middle]
    assert D.chains_into("mu_middle") == D.chains_into("mu_bottom") == []


def test_p_sup_is_an_entropy_value_or_none():
    top = Node("top")
    for p_sup in (None, EntropyValue(Fraction(1, 2))):
        assert MeasureDiagram((top,), (), p_sup).p_sup is p_sup
    for bad in (Fraction(1, 2), 1, 0.5):
        with pytest.raises(ArgumentError, match="^p_sup must be an EntropyValue or None, not "):
            MeasureDiagram((top,), (), bad)
    # an infinite capacity is refused where it enters, not deep in an analysis
    with pytest.raises(ArgumentError, match="^p_sup must be an EntropyValue or None, not INF$"):
        MeasureDiagram((top,), (), INF)


# ---------------------------------------------------------------------------
# the one infinity


numbers = st.one_of(st.integers(-64, 64), st.fractions(min_value=-64, max_value=64, max_denominator=64))


@given(numbers, st.fractions(min_value=-64, max_value=64, max_denominator=64))
def test_infinity_absorbs_sums_and_differences(x, q):
    assert INF + x is INF
    assert x + INF is INF
    assert INF - x is INF
    assert INF + INF is INF
    for probe in (lambda: x - INF, lambda: INF - INF):
        with pytest.raises(ArgumentError, match="^cannot subtract infinity$"):
            probe()
    assert INF > x and x < INF and x != INF
    assert INF >= INF and INF <= INF and not INF < INF
    # finite diagram values stay Fractions
    assert type(q - Fraction(1, 3)) is Fraction


def test_infinity_is_one_instance():
    assert not isinstance(INF, EntropyValue)
    assert INF + 3 is INF
    assert max(Fraction(1), INF) is INF and max(INF, 1) is INF
    assert copy.copy(INF) is INF and copy.deepcopy(INF) is INF and copy.deepcopy([INF])[0] is INF
    assert str(INF) == "inf" and INF.render() == "inf"


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_infinity_pickles_at_every_protocol(protocol):
    assert pickle.loads(pickle.dumps(INF, protocol)) is INF
    log_form = EntropyValue.log2_of(9, 2)
    assert pickle.loads(pickle.dumps([INF, log_form, INF], protocol))[2] is INF


@pytest.mark.parametrize(
    "probe",
    [
        lambda: INF * 0.5,
        lambda: INF * None,
        lambda: INF + None,  # the infinity does not absorb what is no number
        lambda: None + INF,
        lambda: INF + 0.5,
        lambda: INF + True,
        lambda: INF + EntropyValue(1),
        lambda: EntropyValue(1) + INF,
        lambda: 0.5 - INF,
    ],
)
def test_infinity_meets_only_exact_numbers(probe):
    with pytest.raises(TypeError, match="unsupported operand"):
        probe()


def level(D, node_id: str) -> int:
    """The accumulation level the diagram computed for a class."""
    D.node(node_id)  # an unknown id is refused by name
    return D._level[node_id]


@pytest.mark.parametrize(
    "name, levels",
    [
        ("example1", {"mu_bottom": 0, "mu_middle": 1, "mu0": 2}),
        ("example2", {"mu_bottom": 0, "mu_middle": 1, "mu0": 2}),
        ("example3", {"mu_per": 0, "mu_ap": 0, "mu0": 1}),
        ("pickupsticks", {"mu_bottom": 0, "mu_middle": 1, "mu0": 2}),
    ],
)
def test_levels_on_the_scenarios(name, levels):
    D = scenario_data(name, Fraction(3, 2) if name in ("example2", "example3") else None).diagram
    assert {n.node_id: level(D, n.node_id) for n in D.nodes} == levels
    assert D.depth == max(levels.values())
    with pytest.raises(ArgumentError, match="^unknown node 'nowhere'$"):
        level(D, "nowhere")


def test_accumulation_deeper_than_two_is_refused():
    # Node refuses a third parameter, so forge one to reach the depth check
    chain = [Node(f"n{i}") for i in range(4)]
    for i, node in enumerate(chain):
        object.__setattr__(node, "params", tuple("abc"[:i]))
    families = tuple(FamilyLink(f"n{i}", "abc"[i - 1], f"n{i - 1}") for i in (1, 2, 3))
    assert MeasureDiagram(tuple(chain[:3]), families[:2]).depth == 2
    with pytest.raises(ArgumentError, match="^accumulation depth exceeds 2$"):
        MeasureDiagram(tuple(chain), families)


def test_seq_monotone_validation():
    top = Node("top")
    D = MeasureDiagram((top,), ())
    with pytest.raises(ArgumentError):
        seq_on(D, {"top": SeqSpec(Fraction(0), lin(3), Fraction(1))}, "nonincreasing")
    with pytest.raises(ArgumentError):
        seq_on(D, {"top": SeqSpec(Fraction(1), lin(0, t=1), Fraction(1))}, "nonincreasing")


# ---------------------------------------------------------------------------
# the probe loops and piece-pair searches these routines replaced, kept as
# references for the residue-class intervals and the witness search

_BIG_OFFSET = 7919  # placed beyond every guard crossing by construction


def _const_budget(atoms):
    return sum(abs(a.rhs.const) for a in atoms) + 16


def _y_bounds_at(atoms, x_var, y_var, x, y_min):
    """Feasible integer y-interval at fixed x, or None when x itself fails."""
    lo, hi = y_min, None
    for a in atoms:
        if a.var == x_var:
            c = a.rhs.coeff(y_var)
            base = a.rhs.const
            if c == 0:
                ok = x < base if a.lt else x >= base
                if not ok:
                    return None
                continue
            if a.lt:  # x < c*y + base  =>  y >= floor((x - base)/c) + 1
                lo = max(lo, (x - base) // c + 1)
            else:  # x >= c*y + base  =>  y <= floor((x - base)/c)
                bound = (x - base) // c
                hi = bound if hi is None else min(hi, bound)
        else:
            c = a.rhs.coeff(x_var)
            base = a.rhs.const + c * x
            if a.lt:  # y < base
                hi = base - 1 if hi is None else min(hi, base - 1)
            else:  # y >= base
                lo = max(lo, base)
    if hi is not None and lo > hi:
        return None
    return lo, hi


def naive_feasible(atoms, mins):
    vars_ = sorted({a.var for a in atoms} | set(mins))
    if not vars_:
        return {}
    if len(vars_) == 1:
        x = vars_[0]
        x_min = mins.get(x, 1)
        lo, hi = x_min, None
        for a in atoms:
            if a.rhs.coeffs:
                raise ArgumentError("one-variable guard references a second variable")
            if a.lt:
                hi = a.rhs.const - 1 if hi is None else min(hi, a.rhs.const - 1)
            else:
                lo = max(lo, a.rhs.const)
        if hi is not None and lo > hi:
            return None
        return {x: lo}
    if len(vars_) != 2:
        raise ArgumentError("feasibility supports at most two variables")
    x_var, y_var = vars_
    x_min, y_min = mins.get(x_var, 1), mins.get(y_var, 1)
    budget = _const_budget(atoms) + x_min + y_min
    for x in range(x_min, x_min + 4 * budget + 2):
        b = _y_bounds_at(atoms, x_var, y_var, x, y_min)
        if b is not None:
            return {x_var: x, y_var: b[0]}
    base = x_min + 4 * budget + _BIG_OFFSET
    for x in range(base, base + _SLOPE_STEP):
        b = _y_bounds_at(atoms, x_var, y_var, x, y_min)
        if b is not None:
            return {x_var: x, y_var: b[0]}
    return None


def naive_feasible_unbounded(atoms, mins, var):
    vars_ = sorted({a.var for a in atoms} | set(mins) | {var})
    if len(vars_) == 1:
        return not any(a.lt for a in atoms)
    if len(vars_) != 2:
        raise ArgumentError("feasibility supports at most two variables")
    x_var, y_var = vars_
    if var != x_var:
        x_var, y_var = y_var, x_var
    x_min, y_min = mins.get(x_var, 1), mins.get(y_var, 1)
    budget = _const_budget(atoms) + x_min + y_min
    base = x_min + 4 * budget + _BIG_OFFSET
    return any(
        _y_bounds_at(atoms, x_var, y_var, x, y_min) is not None
        for x in range(base, base + _SLOPE_STEP)
    )


def naive_tau_unbounded_along(atoms, mins, var, tau):
    if tau.coeff(var) >= 1:
        return True
    other = [p for p in tau.params if p != var]
    if not other:
        return False
    vars_ = sorted({a.var for a in atoms} | set(mins) | {var} | set(other))
    if len(vars_) == 1:
        return False
    x_var, y_var = vars_
    if var != x_var:
        x_var, y_var = y_var, x_var
    x_min, y_min = mins.get(x_var, 1), mins.get(y_var, 1)
    budget = _const_budget(atoms) + x_min + y_min

    def sup_tau(x):
        b = _y_bounds_at(atoms, x_var, y_var, x, y_min)
        if b is None:
            return None
        lo, hi = b
        cy = tau.coeff(y_var)
        if cy == 0:
            return tau.const + tau.coeff(x_var) * x
        if hi is None:
            return INF
        return tau.const + tau.coeff(x_var) * x + cy * hi

    base = x_min + 4 * budget + _BIG_OFFSET
    for x in range(base, base + _SLOPE_STEP):
        s0 = sup_tau(x)
        if s0 is None:
            continue
        if s0 is INF:
            return True
        s1 = sup_tau(x + _SLOPE_STEP)
        if s1 is INF or (s1 is not None and s1 > s0):
            return True
    return False


def naive_fn_compare(f, g, mins):
    for fa, fv in f.pieces:
        for ga, gv in g.pieces:
            if fv == gv:
                continue
            env = naive_feasible(list(fa + ga), mins)
            if env is not None:
                return env, fv, gv
    return None


def naive_fn_le(f, g, mins):
    for fa, fv in f.pieces:
        for ga, gv in g.pieces:
            if fv <= gv:
                continue
            env = naive_feasible(list(fa + ga), mins)
            if env is not None:
                return env, fv, gv
    return None


def outcome(fn, *args):
    """The result with its key order, or the error type and message."""
    try:
        got = fn(*args)
    except ArgumentError as exc:
        return "error", str(exc)
    if isinstance(got, dict):
        return list(got.items())
    if isinstance(got, tuple):
        return list(got[0].items()), got[1], got[2]
    return got


def rand_mins(rng, vars_):
    return {v: rng.choice([1, 1, 1, 2, 5]) for v in vars_}


def test_probe_frame_matches_the_reference():
    rng = random.Random(41)
    for _ in range(1500):
        vars_ = ["m", "j"][: rng.choice([1, 2, 2])]
        mins = rand_mins(rng, vars_)
        atoms = rand_atoms(rng, vars_)
        assert outcome(feasible, atoms, mins) == outcome(naive_feasible, atoms, mins)
        var = rng.choice(["m", "j"])
        assert outcome(feasible_unbounded, atoms, mins, var) == outcome(
            naive_feasible_unbounded, atoms, mins, var
        )
        tau = rand_lin(rng, ["m", "j"])
        assert outcome(tau_unbounded_along, atoms, mins, var, tau) == outcome(
            naive_tau_unbounded_along, atoms, mins, var, tau
        )


def rand_big_atoms(rng, vars_):
    """1-5 guards over m and j with coefficients 0..3 and constants whose
    size is drawn from 1 to 10^4, of either sign."""
    atoms = []
    for _ in range(rng.randrange(1, 6)):
        v = rng.choice(vars_)
        coeffs = {x: rng.randrange(4) for x in vars_ if x != v}
        size = 10 ** rng.randrange(5)
        atoms.append(Atom(v, rng.random() < 0.5, lin(rng.randint(-size, size), **coeffs)))
    return atoms


def test_residue_classes_match_the_reference_on_large_constants():
    rng = random.Random(47)
    found = 0
    for _ in range(200):
        mins = rand_mins(rng, ["m", "j"])
        atoms = rand_big_atoms(rng, ["m", "j"])
        got = outcome(feasible, atoms, mins)
        assert got == outcome(naive_feasible, atoms, mins)
        if got is not None:
            found += 1
            assert all(a.holds(dict(got)) for a in atoms)
        for var in ("m", "j"):
            assert outcome(feasible_unbounded, atoms, mins, var) == outcome(
                naive_feasible_unbounded, atoms, mins, var
            )
            tau = lin(rng.randrange(-50, 50), **{"j" if var == "m" else "m": rng.randrange(4)})
            assert outcome(tau_unbounded_along, atoms, mins, var, tau) == outcome(
                naive_tau_unbounded_along, atoms, mins, var, tau
            )
    assert 50 < found < 150  # both verdicts are well represented


def test_cost_does_not_grow_with_the_constants():
    # m >= p + 10^6 and p >= m + 1 cannot both hold; a scan over m would
    # probe about four million values before saying so
    atoms = [Atom("m", False, lin(10**6, p=1)), Atom("p", False, lin(1, m=1))]
    mins = {"m": 1, "p": 1}
    start = time.perf_counter()
    assert feasible(atoms, mins) is None
    assert not feasible_unbounded(atoms, mins, "m")
    assert not feasible_unbounded(atoms, mins, "p")
    assert time.perf_counter() - start < 0.5


def test_least_point_of_a_large_constant_set():
    # j < 3m - 10^5 and j >= 2m + 10^4: m lies in ((j + 10^5)/3, (j - 10^4)/2],
    # which holds an integer first at j = 230002 (only m = 110001); at
    # j = 230001 it is (110000.33, 110000.5]
    atoms = [Atom("j", True, lin(-(10**5), m=3)), Atom("j", False, lin(10**4, m=2))]
    mins = {"m": 1, "j": 1}
    assert feasible(atoms, mins) == {"j": 230002, "m": 110001}
    assert all(a.holds({"j": 230002, "m": 110001}) for a in atoms)
    assert not any(
        all(a.holds({"j": 230001, "m": m}) for a in atoms) for m in range(109_990, 110_010)
    )
    assert feasible(atoms + [Atom("j", True, lin(230002))], mins) is None
    assert feasible_unbounded(atoms, mins, "j") and feasible_unbounded(atoms, mins, "m")
    assert tau_unbounded_along(atoms, mins, "j", lin(0, m=1))


def test_three_variables_are_refused_alike():
    mins = {"m": 1, "j": 1}
    message = "^feasibility supports at most two variables$"
    for atoms in (
        [Atom("m", True, lin(4, j=1)), Atom("t", False, lin(2))],
        [Atom("m", True, lin(0, t=1))],  # t only on a right-hand side
    ):
        with pytest.raises(ArgumentError, match=message):
            feasible(atoms, mins)
        with pytest.raises(ArgumentError, match=message):
            feasible_unbounded(atoms, mins, "m")
        with pytest.raises(ArgumentError, match=message):
            tau_unbounded_along(atoms, mins, "m", lin(0, j=1))


def test_feasible_answers_are_fresh_and_refusals_repeat():
    atoms = [Atom("j", True, lin(-(10**5), m=3)), Atom("j", False, lin(10**4, m=2))]
    mins = {"m": 1, "j": 1}
    env = feasible(atoms, mins)
    env["j"] = 0
    env["t"] = 5
    assert feasible(atoms, mins) == {"j": 230002, "m": 110001}
    assert feasible(tuple(atoms), mins) is not feasible(tuple(atoms), mins)
    three = [Atom("m", True, lin(4, j=1)), Atom("t", False, lin(2))]
    for _ in range(2):
        with pytest.raises(ArgumentError, match="at most two variables"):
            feasible(three, mins)


def rand_piecewise(rng, mins):
    """A covering FnSpec over m and j: a step, a two-step split or a constant,
    with values that tie often and sometimes are infinite."""
    vals = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), INF]
    kind = rng.randrange(3)
    if kind == 0:
        return const_fn(rng.choice(vals))
    f = step_fn("m", rand_lin(rng, ["j"]), rng.choice(vals), rng.choice(vals))
    if kind == 1:
        return f
    g = step_fn("j", rand_lin(rng, ["m"]), rng.choice(vals), rng.choice(vals))
    return fn_max(f, g, mins)


def test_piece_witnesses_match_the_reference():
    rng = random.Random(43)
    for _ in range(600):
        mins = rand_mins(rng, ["m", "j"])
        f, g = rand_piecewise(rng, mins), rand_piecewise(rng, mins)
        assert outcome(fn_compare, f, g, mins) == outcome(naive_fn_compare, f, g, mins)
        assert outcome(fn_le, f, g, mins) == outcome(naive_fn_le, f, g, mins)
        assert outcome(fn_le, g, f, mins) == outcome(naive_fn_le, g, f, mins)
