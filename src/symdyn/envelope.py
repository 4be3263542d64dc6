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

The algebra only adds, subtracts, takes maxima and compares values, so it
runs unchanged on any common multiple of them.  Each entry point below
writes every value it receives as an integer numerator over one scale D,
the lcm of their denominators, and divides back where a value leaves:
values leave as Fractions (or INF), and a value that is not exact is
refused where it enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .diagram import (
    INF,
    FnOnDiagram,
    MeasureDiagram,
    SeqOnDiagram,
    const_fn,
    exact,
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
from .entropy import EntropyValue, optimal_alphabet_size
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
        for deep_fam in diagram.chains_into(nid):
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


def _require_vanishing_tails(theta: SeqOnDiagram):
    for nid, s in theta.specs:
        if s.hi != 0 or s.lo < 0:
            raise ArgumentError(
                f"{nid}: tail sequences must be nonnegative with pointwise limit 0"
            )


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


class _Scaled:
    """One entry point's call: its values as integer numerators over one
    scale D, and the steps that the entry points share, run on those
    numerators.

    D is the lcm of the denominators of every finite value of the inputs,
    and `exact` refuses any input value that is not an int, a Fraction or
    INF.  `num` writes a value as its numerator over D and `out` divides back,
    so a value leaves as a Fraction (or INF) whatever it was inside; values
    leave only through `out` and `fn_out`.  Sums, differences, maxima and
    comparisons commute with both, which is all the algebra does with
    values.
    """

    def __init__(self, diagram: MeasureDiagram, *inputs):
        self.diagram = diagram
        self.D = lcm(1, *{exact(v).denominator for p in inputs for v in p.values() if v is not INF})

    def num(self, v):
        return v if v is INF else v.numerator * (self.D // v.denominator)

    def out(self, v):
        return v if v is INF else Fraction(v, self.D)

    def fn(self, f: FnOnDiagram) -> FnOnDiagram:
        return f.map_values(self.num)

    def seq(self, s: SeqOnDiagram) -> SeqOnDiagram:
        return s.map_values(self.num)

    def fn_out(self, f: FnOnDiagram) -> FnOnDiagram:
        return f.map_values(self.out)

    @cached_property
    def zero(self) -> FnOnDiagram:
        return self.fn(zero_fn(self.diagram))

    @cached_property
    def zero_seq(self) -> SeqOnDiagram:
        return self.seq(zero_seq(self.diagram))

    def usc_envelope(self, f: FnOnDiagram) -> FnOnDiagram:
        return envelope_limit(f, self.zero_seq, self.diagram)

    def u_one(self, theta: SeqOnDiagram) -> FnOnDiagram:
        """u_one of tails the caller has checked."""
        return envelope_limit(self.zero, theta, self.diagram)

    def check_floor(self, floor: FnOnDiagram):
        if _witness(self.zero, floor, self.diagram, fn_le) is not None:
            raise ArgumentError("floor must be nonnegative")
        if not _equal(self.usc_envelope(floor), floor, self.diagram):
            raise ArgumentError("floor must be upper semicontinuous")

    def repair_witness(self, u: FnOnDiagram, theta: SeqOnDiagram, limit=None):
        """is_repair's check of checked tails and a nonnegative u: the first
        witness where the envelope limit of u + theta_k (`limit`, when the
        caller holds it) differs from u, or None."""
        if limit is None:
            limit = envelope_limit(u, theta, self.diagram)
        return _witness(limit, u, self.diagram, fn_compare)

    def repair_verdict(self, w) -> RepairVerdict:
        if w is None:
            return RepairVerdict(True)
        nid, env, lv, uv = w
        return RepairVerdict(False, nid, env, self.out(lv - uv))

    def minimal_repair(
        self, theta: SeqOnDiagram, floor: FnOnDiagram, u_theta: FnOnDiagram
    ) -> FnOnDiagram:
        """minimal_repair for checked tails and a checked floor, given
        u_theta = u_one(theta)."""
        diagram = self.diagram
        u = _pointwise(fn_max, floor, u_theta, diagram)
        for _ in range(diagram.depth + 1):
            limit = envelope_limit(u, theta, diagram)
            nxt = _pointwise(fn_max, floor, limit, diagram)
            if _equal(nxt, u, diagram):
                verdict = self.repair_verdict(self.repair_witness(u, theta, limit))
                if not verdict.repairs:
                    raise ConstructionError(
                        f"fixpoint fails re-verification: {verdict.render()}"
                    )
                return u
            u = nxt
        raise ConstructionError(
            f"no repair fixpoint within {diagram.depth + 1} iterations: "
            "accumulation deeper than the declared diagram depth"
        )


def usc_envelope(f: FnOnDiagram, diagram: MeasureDiagram) -> FnOnDiagram:
    """The upper semicontinuous envelope of f on the diagram."""
    run = _Scaled(diagram, f)
    return run.fn_out(run.usc_envelope(run.fn(f)))


def u_one(theta: SeqOnDiagram, diagram: MeasureDiagram) -> FnOnDiagram:
    """The limit of the usc envelopes of the tails: the first repair floor."""
    _require_vanishing_tails(theta)
    run = _Scaled(diagram, theta)
    return run.fn_out(run.u_one(run.seq(theta)))


def is_repair(
    u: FnOnDiagram, theta: SeqOnDiagram, diagram: MeasureDiagram
) -> RepairVerdict:
    """Whether the envelopes of u + theta_k settle back down to u."""
    _require_vanishing_tails(theta)
    run = _Scaled(diagram, u, theta)
    u = run.fn(u)
    if _witness(run.zero, u, diagram, fn_le) is not None:
        raise ArgumentError("repair candidates must be nonnegative")
    return run.repair_verdict(run.repair_witness(u, run.seq(theta)))


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
    run = _Scaled(diagram, theta, floor)
    theta, floor = run.seq(theta), run.fn(floor)
    run.check_floor(floor)
    return run.fn_out(run.minimal_repair(theta, floor, run.u_one(theta)))


@dataclass(frozen=True)
class SuperenvelopeVerdict:
    is_superenvelope: bool
    witness_node: str | None = None
    witness_env: tuple = ()
    detail: str = ""


def is_superenvelope(
    E: FnOnDiagram, hseq: SeqOnDiagram, diagram: MeasureDiagram
) -> SuperenvelopeVerdict:
    """Whether E >= h and E - h_k is upper semicontinuous for every k.

    By the duality of Boyle and Downarowicz, this holds exactly when E >= h
    and E - h repairs the tails theta_k = h - h_k, and that is the check
    made: `envelope_limit` takes the limit in k in closed form, so no k is
    visited and nothing depends on a horizon or on the parameter minimums.
    A failing verdict names a witness of E < h, or else the first point
    where the envelope limit of E - h_k exceeds E - h.  Once E >= h holds,
    an infinite value of h is refused.

    The duality needs each increment h_{k+1} - h_k to be upper
    semicontinuous.  It is when every class whose sequence steps up has a
    threshold that grows with each of its parameters: then each jump slice
    {tau = k + 1} is finite in every direction of convergence.  A sequence
    that steps up on a threshold missing a parameter is refused.
    """
    if hseq.monotone != "nondecreasing":
        raise ArgumentError("entropy sequences must be nondecreasing")
    for node in diagram.nodes:
        s = hseq.spec(node.node_id)
        if s.lo < s.hi and len(s.tau.coeffs) < len(node.params):
            raise ArgumentError(
                f"{node.node_id}: an entropy step's threshold {s.tau.render()} must grow "
                "with every class parameter, or h_(k+1) - h_k need not be usc"
            )
    run = _Scaled(diagram, E, hseq)
    out = run.out
    scaled_E, scaled_h = run.fn(E), run.seq(hseq)
    w = _witness(scaled_h.limit_fn(diagram), scaled_E, diagram, fn_le)
    if w is not None:
        nid, env, hv, ev = w
        return SuperenvelopeVerdict(False, nid, env, f"E = {out(ev)} < h = {out(hv)}")
    if any(v is INF for v in hseq.values()):
        raise ArgumentError("entropy sequences must take finite values")
    u = fn_on(
        diagram, {nid: fn_shift(scaled_E.spec(nid), -s.limit) for nid, s in scaled_h.specs}
    )
    w = run.repair_witness(u, tails_of(scaled_h, diagram))
    if w is None:
        return SuperenvelopeVerdict(True)
    nid, env, lv, uv = w
    return SuperenvelopeVerdict(
        False, nid, env, f"E - h does not repair the tails: envelope limit {out(lv)} > {out(uv)}"
    )


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
    quantities are re-checked pointwise, never assumed.  Both repairs start
    from one u_one of the entropy tails.
    """
    warnings = []
    _require_vanishing_tails_perseq(perseq, diagram)
    run = _Scaled(diagram, hseq, perseq)
    hseq, perseq = run.seq(hseq), run.seq(perseq)
    theta = tails_of(hseq, diagram)
    h = hseq.limit_fn(diagram)
    u_theta = run.u_one(theta)
    u_sex = run.minimal_repair(theta, run.zero, u_theta)
    u1 = run.u_one(perseq)
    run.check_floor(u1)
    u_emb = run.minimal_repair(theta, u1, u_theta)

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
    out = run.out
    p_star, sup_h_sex, sup_h_emb = out(p_star), out(sup_h_sex), out(sup_h_emb)
    cardinality = None
    p_sup = diagram.p_sup
    if sup_h_emb is not INF:
        emb_val = EntropyValue(sup_h_emb)
        if p_sup is None:
            warnings.append(
                "cardinality computed from sup h_emb only: no periodic-capacity input"
            )
            cardinality = optimal_alphabet_size(emb_val)
        else:
            cardinality = optimal_alphabet_size(max(p_sup, emb_val))
    else:
        warnings.append("sup h_emb is infinite: no finite-alphabet extension")
    return DiagramReport(
        run.fn_out(h),
        run.fn_out(h_sex),
        run.fn_out(u1),
        run.fn_out(h_emb),
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
