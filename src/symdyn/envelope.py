"""Envelope and repair operators on measure diagrams, all exact.

The central operator is the k-limit of the upper semicontinuous envelopes
of u + theta_k.  On a diagram it decomposes per node class:

  * at an isolated class the envelope is the value itself, so the limit is
    u + lim theta_k;
  * at a limit class, each family contributes the stabilized value of u on
    its members plus the tail of theta along the family: the lo side when
    the threshold grows with the family parameter, the settled hi side
    when it does not;
  * at a depth-2 limit, every grandchild class also contributes along the
    diagonal sequences forced by compactness: each guard piece reachable
    with the outer parameter unbounded adds its value, plus theta's lo
    side exactly when the threshold is unbounded over that piece.

Limits in k are taken outside the finite maxima, which keeps every step in
closed form.

Every verdict that compares two functions on a diagram reports the same
witness: the first class, in diagram order, where the comparison fails,
the first failing guard-piece pair in it, and the parameter point found
for that pair as its sorted (parameter, value) items.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diagram import (
    INF,
    FnOnDiagram,
    FnSpec,
    MeasureDiagram,
    SeqOnDiagram,
    const_fn,
    feasible_unbounded,
    fn_add,
    fn_compare,
    fn_eventual,
    fn_le,
    fn_max,
    fn_on,
    fn_shift,
    fn_sup,
    seq_on,
    tails_of,
    tau_unbounded_along,
)
from .entropy import EntropyValue, max_entropy, optimal_alphabet_size
from .errors import ArgumentError, ConstructionError


def zero_fn(diagram: MeasureDiagram) -> FnOnDiagram:
    return fn_on(diagram, {n.node_id: const_fn(0) for n in diagram.nodes})


def zero_seq(diagram: MeasureDiagram) -> SeqOnDiagram:
    return seq_on(diagram, {n.node_id: 0 for n in diagram.nodes}, "nonincreasing")


def _family_tail(seq: SeqOnDiagram, member_id: str, parameter: str):
    """lim_k of theta_k along the family: lo if tau grows with the
    parameter, else the settled hi value."""
    s = seq.spec(member_id)
    return s.lo if s.tau.coeff(parameter) >= 1 else s.hi


def envelope_limit(
    u: FnOnDiagram, theta: SeqOnDiagram, diagram: MeasureDiagram
) -> FnOnDiagram:
    """lim_k of the usc envelope of u + theta_k, one FnSpec per class."""
    if theta.monotone != "nonincreasing":
        raise ArgumentError("envelope limits need nonincreasing sequences")
    out = {}
    for node in diagram.nodes:
        nid = node.node_id
        mins = node.mins
        term = fn_shift(u.spec(nid), theta.spec(nid).limit)
        for fam in diagram.families_into(nid):
            member = diagram.node(fam.member)
            u_ev = fn_eventual(u.spec(fam.member), fam.parameter, member.mins)
            term = fn_max(
                term, fn_shift(u_ev, _family_tail(theta, fam.member, fam.parameter)), mins
            )
        for deep_fam, _mid_fam in diagram.chains_into(nid):
            grand = diagram.node(deep_fam.member)
            outer = grand.params[0]
            spec = theta.spec(grand.node_id)
            best = None
            for atoms, v in u.spec(grand.node_id).pieces:
                if not feasible_unbounded(atoms, grand.mins, outer):
                    continue
                tail = (
                    spec.lo
                    if tau_unbounded_along(atoms, grand.mins, outer, spec.tau)
                    else spec.hi
                )
                cand = v + tail
                if best is None or cand > best:
                    best = cand
            if best is not None:
                term = fn_max(term, const_fn(best), mins)
        out[nid] = term
    return fn_on(diagram, out)


def _pointwise(op, f: FnOnDiagram, g: FnOnDiagram, diagram: MeasureDiagram):
    """op (fn_max or fn_add) applied class by class."""
    return fn_on(
        diagram,
        {
            n.node_id: op(f.spec(n.node_id), g.spec(n.node_id), n.mins)
            for n in diagram.nodes
        },
    )


def _witness(f: FnOnDiagram, g: FnOnDiagram, diagram: MeasureDiagram, compare):
    """The first witness of compare (fn_compare or fn_le) over the classes in
    diagram order: (node id, sorted env items, f value, g value), or None."""
    for n in diagram.nodes:
        w = compare(f.spec(n.node_id), g.spec(n.node_id), n.mins)
        if w is not None:
            env, fv, gv = w
            return n.node_id, tuple(sorted(env.items())), fv, gv
    return None


def _equal(f: FnOnDiagram, g: FnOnDiagram, diagram: MeasureDiagram) -> bool:
    return _witness(f, g, diagram, fn_compare) is None


def usc_envelope(f: FnOnDiagram, diagram: MeasureDiagram) -> FnOnDiagram:
    """The upper semicontinuous envelope of f on the diagram."""
    return envelope_limit(f, zero_seq(diagram), diagram)


def is_usc(f: FnOnDiagram, diagram: MeasureDiagram) -> bool:
    return _equal(usc_envelope(f, diagram), f, diagram)


def _require_vanishing_tails(theta: SeqOnDiagram):
    for nid, s in theta.specs:
        if s.hi != 0 or s.lo < 0:
            raise ArgumentError(
                f"{nid}: tail sequences must be nonnegative with pointwise limit 0"
            )


def u_one(theta: SeqOnDiagram, diagram: MeasureDiagram) -> FnOnDiagram:
    """The limit of the usc envelopes of the tails: the first repair floor."""
    _require_vanishing_tails(theta)
    return envelope_limit(zero_fn(diagram), theta, diagram)


@dataclass(frozen=True)
class RepairVerdict:
    repairs: bool
    witness_node: str | None = None
    witness_env: tuple = ()
    residual: object = None

    def render(self) -> str:
        if self.repairs:
            return "repairs: yes"
        env = ", ".join(f"{p}={v}" for p, v in self.witness_env)
        where = self.witness_node + (f"[{env}]" if env else "")
        return f"repairs: no (witness {where}, residual {self.residual})"


def is_repair(
    u: FnOnDiagram, theta: SeqOnDiagram, diagram: MeasureDiagram
) -> RepairVerdict:
    """Whether the envelopes of u + theta_k settle back down to u."""
    _require_vanishing_tails(theta)
    if _witness(zero_fn(diagram), u, diagram, fn_le) is not None:
        raise ArgumentError("repair candidates must be nonnegative")
    w = _witness(envelope_limit(u, theta, diagram), u, diagram, fn_compare)
    if w is not None:
        nid, env, lv, uv = w
        return RepairVerdict(False, nid, env, lv - uv)
    return RepairVerdict(True)


def minimal_repair(
    theta: SeqOnDiagram, floor: FnOnDiagram, diagram: MeasureDiagram
) -> FnOnDiagram:
    """The least fixpoint of u -> max(floor, lim_k envelope(u + theta_k)).

    Starts from max(floor, u_one) and iterates at most depth+1 times; the
    result is certified to repair theta and dominate the floor.  Every
    iterate stays below any repair function above the floor, so the
    fixpoint is the smallest one this iteration scheme can produce.
    """
    _require_vanishing_tails(theta)
    if _witness(zero_fn(diagram), floor, diagram, fn_le) is not None:
        raise ArgumentError("floor must be nonnegative")
    if not is_usc(floor, diagram):
        raise ArgumentError("floor must be upper semicontinuous")

    u = _pointwise(fn_max, floor, u_one(theta, diagram), diagram)
    for _ in range(diagram.depth + 1):
        nxt = _pointwise(fn_max, floor, envelope_limit(u, theta, diagram), diagram)
        if _equal(nxt, u, diagram):
            verdict = is_repair(u, theta, diagram)
            if not verdict.repairs:
                raise ConstructionError(f"fixpoint fails re-verification: {verdict.render()}")
            return u
        u = nxt
    raise ConstructionError(
        f"no repair fixpoint within {diagram.depth + 1} iterations: "
        "accumulation deeper than the declared diagram depth"
    )


@dataclass(frozen=True)
class SuperenvelopeVerdict:
    is_superenvelope: bool
    checked_k: tuple = ()
    witness_node: str | None = None
    witness_env: tuple = ()
    detail: str = ""


def _k_horizon(hseq: SeqOnDiagram, E: FnOnDiagram, diagram: MeasureDiagram) -> int:
    consts = [3]
    for _, s in hseq.specs:
        consts.append(abs(s.tau.const) + sum(c for _, c in s.tau.coeffs) * 4)
    for _, f in E.specs:
        for atoms, _ in f.pieces:
            for a in atoms:
                consts.append(abs(a.rhs.const))
    return max(consts) + 4


def is_superenvelope(
    E: FnOnDiagram,
    hseq: SeqOnDiagram,
    diagram: MeasureDiagram,
    k_horizon: int | None = None,
) -> SuperenvelopeVerdict:
    """Direct check: E - h_k is nonnegative and usc for each k.

    The check runs over every k up to a horizon past all guard constants;
    beyond it the fixed-k slices repeat their shape, shifted along the
    parameters.  The repair-function route through the tails is the
    independent formulation; the two are asserted to agree in the tests.
    """
    if hseq.monotone != "nondecreasing":
        raise ArgumentError("entropy sequences must be nondecreasing")
    w = _witness(hseq.limit_fn(diagram), E, diagram, fn_le)
    if w is not None:
        nid, env, hv, ev = w
        return SuperenvelopeVerdict(False, (), nid, env, f"E = {ev} < h = {hv}")
    if k_horizon is None:
        k_horizon = _k_horizon(hseq, E, diagram)
    checked = tuple(range(1, k_horizon + 1))
    zero = zero_fn(diagram)
    for k in checked:
        diff = {}
        for node in diagram.nodes:
            hk = hseq.spec(node.node_id).as_fn(k, node.mins)
            if any(v is INF for _, v in hk.pieces):
                raise ArgumentError("entropy sequences must take finite values")
            minus = FnSpec(tuple((atoms, -v) for atoms, v in hk.pieces))
            diff[node.node_id] = fn_add(E.spec(node.node_id), minus, node.mins)
        g = fn_on(diagram, diff)
        w = _witness(zero, g, diagram, fn_le)
        if w is not None:
            nid, env, _, gv = w
            return SuperenvelopeVerdict(
                False, checked[:k], nid, env, f"E - h_{k} = {gv} < 0"
            )
        w = _witness(usc_envelope(g, diagram), g, diagram, fn_compare)
        if w is not None:
            nid, env, ev, gv = w
            return SuperenvelopeVerdict(
                False, checked[:k], nid, env, f"E - h_{k} not usc: envelope {ev} > {gv}"
            )
    return SuperenvelopeVerdict(True, checked)


# ---------------------------------------------------------------------------
# full diagram analysis


@dataclass(frozen=True)
class BoundVerdicts:
    lower_pointwise: bool  # max(h_sex, h + u1) <= h_emb everywhere
    upper_pointwise: bool  # h_emb <= h_sex + u1 everywhere
    lower_topological: bool  # max(sup h_sex, p_star) <= sup h_emb
    upper_topological: bool  # sup h_emb <= sup h_sex + p_star


@dataclass(frozen=True)
class DiagramReport:
    h: FnOnDiagram
    h_sex: FnOnDiagram
    u1: FnOnDiagram
    h_emb: FnOnDiagram
    p_star: object  # Fraction
    sup_h_sex: object
    sup_h_emb: object
    bounds: BoundVerdicts
    cardinality: int | None
    p_sup_used: EntropyValue | None
    warnings: tuple
    label: str = "h_emb minimal under the floor-seeded iteration scheme; repair certified"

    def value(self, which: str, node_id: str, env: dict | None = None):
        fn = getattr(self, which)
        return fn.evaluate(node_id, env or {})


def _sup_over(f: FnOnDiagram, diagram: MeasureDiagram):
    return max(fn_sup(f.spec(n.node_id), n.mins) for n in diagram.nodes)


def analyze_diagram(
    diagram: MeasureDiagram, hseq: SeqOnDiagram, perseq: SeqOnDiagram
) -> DiagramReport:
    """All headline quantities of a diagram, with bound verdicts.

    h_sex adds the minimal repair of the entropy tails; h_emb repeats the
    repair above the floor u1 drawn from the period tails; p_star is the
    supremum of u1 over the diagram.  The two-sided bounds between these
    quantities are re-checked pointwise, never assumed.
    """
    warnings = []
    _require_vanishing_tails_perseq(perseq, diagram)
    theta = tails_of(hseq, diagram)
    h = hseq.limit_fn(diagram)
    u_sex = minimal_repair(theta, zero_fn(diagram), diagram)
    u1 = u_one(perseq, diagram)
    u_emb = minimal_repair(theta, u1, diagram)

    h_sex = _pointwise(fn_add, h, u_sex, diagram)
    h_emb = _pointwise(fn_add, h, u_emb, diagram)
    h_plus_u1 = _pointwise(fn_add, h, u1, diagram)
    lower = _pointwise(fn_max, h_sex, h_plus_u1, diagram)
    upper = _pointwise(fn_add, h_sex, u1, diagram)
    p_star = _sup_over(u1, diagram)
    sup_h_sex = _sup_over(h_sex, diagram)
    sup_h_emb = _sup_over(h_emb, diagram)
    bounds = BoundVerdicts(
        _witness(lower, h_emb, diagram, fn_le) is None,
        _witness(h_emb, upper, diagram, fn_le) is None,
        max(sup_h_sex, p_star) <= sup_h_emb,
        sup_h_emb <= sup_h_sex + p_star,
    )
    cardinality = None
    p_sup = diagram.p_sup
    if sup_h_emb is not INF:
        emb_val = EntropyValue(Fraction(sup_h_emb))
        if p_sup is None:
            warnings.append(
                "cardinality computed from sup h_emb only: no periodic-capacity input"
            )
            cardinality = optimal_alphabet_size(emb_val)
        else:
            cardinality = optimal_alphabet_size(max_entropy(p_sup, emb_val))
    else:
        warnings.append("sup h_emb is infinite: no finite-alphabet extension")
    return DiagramReport(
        h,
        h_sex,
        u1,
        h_emb,
        p_star,
        sup_h_sex,
        sup_h_emb,
        bounds,
        cardinality,
        p_sup,
        tuple(warnings),
    )


def _require_vanishing_tails_perseq(perseq, diagram):
    _require_vanishing_tails(perseq)
    for n in diagram.nodes:
        s = perseq.spec(n.node_id)
        if n.kind == "aperiodic" and (s.lo != 0 or s.hi != 0):
            raise ArgumentError(
                f"{n.node_id}: period tails must vanish on aperiodic classes"
            )
