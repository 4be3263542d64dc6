"""Countable compact measure diagrams with threshold-form value specs.

A diagram describes a closed set of ergodic measures with accumulation
depth at most 2 using finitely many node classes.  A class carries 0, 1 or
2 integer parameters (outer to inner); a family link says that the members
of a class converge, as their innermost parameter grows, to the instance
of the limit class with the remaining parameters.  Compactness forces the
diagonal convergences as well: if A(m, j) -> B(m) -> z then any sequence
A(m_r, j_r) with m_r -> infinity converges to z, whatever j_r does.

Functions on a diagram are piecewise constant with guards comparing one
parameter against a linear expression in the others; sequences indexed by
k take one value below a linear threshold in the parameters and another
above.  Everything is exact: guard satisfiability is decided in closed
form, one integer interval per residue class of a parameter mod 6, never
by floats.  Values are exact numbers, ints or Fractions, or +infinity,
kept as given: no constructor converts them, and `exact` refuses any
other value where a sequence or an analysis first reads it.  The one
infinity is INF, defined here: it is above every number, `+` and `-`
absorb numbers into it, nothing subtracts it, and `v is INF` tests for
it.  Guard answers are cached by guard set in one bounded cache, and each
`feasible` call gets its own env dict.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering

from .entropy import EntropyValue
from .errors import ArgumentError


def _number(v) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


@total_ordering
class _Infinity:
    """+infinity among diagram values.  It combines only with itself, ints
    and Fractions: any other operand, a float, None or an EntropyValue, is
    NotImplemented, so Python raises TypeError."""

    __slots__ = ()

    def __lt__(self, other):  # nothing is above infinity
        return False if other is self or _number(other) else NotImplemented

    def __add__(self, other):
        return self if other is self or _number(other) else NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if other is self:
            raise ArgumentError("cannot subtract infinity")
        return self if _number(other) else NotImplemented

    def __rsub__(self, other):
        if _number(other):
            raise ArgumentError("cannot subtract infinity")
        return NotImplemented

    def __reduce__(self):  # copies and pickles keep the one instance
        return "INF"

    def render(self) -> str:
        return "inf"

    __str__ = render

    def __repr__(self):
        return "INF"


INF = _Infinity()

MAX_COEFF = 3
_SLOPE_STEP = 6  # lcm of admissible coefficient denominators 1..3


def exact(v):
    """v itself when it is an exact value: an int, a Fraction or INF."""
    if v is INF or _number(v):
        return v
    raise ArgumentError(f"diagram values must be exact (int, Fraction or INF), not {v!r}")


# ---------------------------------------------------------------------------
# linear expressions and guard atoms


@dataclass(frozen=True)
class Lin:
    """const + sum of coeff * param over integer parameters."""

    const: int = 0
    coeffs: tuple = ()  # sorted (param, coeff) pairs, coeff >= 1

    def __post_init__(self):
        for p, c in self.coeffs:
            if not (1 <= c <= MAX_COEFF):
                raise ArgumentError(f"coefficient {c} on {p} outside 1..{MAX_COEFF}")
        if list(self.coeffs) != sorted(self.coeffs):
            raise ArgumentError("Lin coefficients must be sorted")
        # coefficient lookup, kept off the dataclass fields
        object.__setattr__(self, "_by_param", dict(self.coeffs))

    def evaluate(self, env: dict) -> int:
        return self.const + sum(c * env[p] for p, c in self.coeffs)

    def coeff(self, param: str) -> int:
        return self._by_param.get(param, 0)

    @property
    def params(self) -> tuple:
        return tuple(p for p, _ in self.coeffs)

    def render(self) -> str:
        parts = [f"{'' if c == 1 else c}{p}" for p, c in self.coeffs]
        if self.const or not parts:
            parts.append(str(self.const))
        return "+".join(parts)


def lin(const: int = 0, **coeffs) -> Lin:
    return Lin(const, tuple(sorted((p, c) for p, c in coeffs.items() if c)))


@dataclass(frozen=True)
class Atom:
    """var < rhs (lt=True) or var >= rhs; rhs never mentions var."""

    var: str
    lt: bool
    rhs: Lin

    def __post_init__(self):
        if self.var in self.rhs.params:
            raise ArgumentError("guard right-hand side mentions its own variable")

    def holds(self, env: dict) -> bool:
        v, r = env[self.var], self.rhs.evaluate(env)
        return v < r if self.lt else v >= r

    def render(self) -> str:
        return f"{self.var}{'<' if self.lt else '>='}{self.rhs.render()}"


# ---------------------------------------------------------------------------
# integer feasibility over <= 2 parameters


def _vars(atoms, mins: dict, *extra) -> list:
    """The sorted variables a guard set constrains: its atoms' variables,
    every parameter their right-hand sides mention, the keys of `mins` and
    `extra`; at most two of them."""
    vars_ = set(mins).union(extra)
    for a in atoms:
        vars_.add(a.var)
        vars_.update(a.rhs.params)
    if len(vars_) > 2:
        raise ArgumentError("feasibility supports at most two variables")
    return sorted(vars_)


def _frame(atoms, mins: dict, vars_: list, var: str | None = None):
    """(x_var, y_var, lows, highs, classes) for a guard set over `vars_`,
    one or two variables as `_vars` gives them; y_var is None for one.

    x (`var` when given, else the first name) is written x = 6t + r.  All
    coefficients divide 6, so on each residue class r a guard bounds x
    alone or bounds y by an exact affine function of t: y runs from the max
    of the `lows` to the min of the `highs`, each a (slope in t, constant
    per residue) pair.  Each (low, high) pair is one linear inequality in
    t, so each class is one t-interval; `classes` yields the nonempty ones.
    A variable missing from `mins` has least value 1.
    """
    x_var, y_var = vars_ if len(vars_) == 2 else (vars_[0], None)
    if var is not None and var != x_var:
        x_var, y_var = y_var, x_var
    res = range(_SLOPE_STEP)
    x_lo, x_hi = mins.get(x_var, 1), None  # the box on x alone
    lows, highs = [(0, (mins.get(y_var, 1),) * _SLOPE_STEP)], []
    for a in atoms:
        b = a.rhs.const
        if a.var == x_var:
            c = a.rhs.coeff(y_var)
            if c == 0:
                if a.lt:
                    x_hi = b - 1 if x_hi is None else min(x_hi, b - 1)
                else:
                    x_lo = max(x_lo, b)
                continue
            # x < c*y + b  =>  y >= (x - b)//c + 1;  x >= c*y + b  =>  y <= (x - b)//c
            bound = (_SLOPE_STEP // c, tuple([(r - b) // c + a.lt for r in res]))
            (lows if a.lt else highs).append(bound)
        else:  # y < c*x + b  =>  y <= c*x + b - 1;  y >= c*x + b
            c = a.rhs.coeff(x_var)
            bound = (_SLOPE_STEP * c, tuple([c * r + b - a.lt for r in res]))
            (highs if a.lt else lows).append(bound)
    pairs = [(sl - sh, kl, kh) for sl, kl in lows for sh, kh in highs]
    return x_var, y_var, lows, highs, _classes(x_lo, x_hi, pairs)


def _classes(x_lo: int, x_hi, pairs):
    """(x, lo, hi) for each residue class r whose t-interval lo..hi (hi
    None: no upper end) is not empty, x = 6*lo + r its least point, in
    increasing order of x.

    A class starts at its point in the box x_lo..x_lo+5 unless a pair
    raises it, and then by at least 6, so the classes that keep that point
    come first, in order, and the raised ones after them.
    """
    raised = []
    for x in range(x_lo, x_lo + _SLOPE_STEP):
        lo, r = divmod(x, _SLOPE_STEP)
        hi = None if x_hi is None else (x_hi - r) // _SLOPE_STEP
        for s, kl, kh in pairs:
            if hi is not None and lo > hi:
                break
            k = kh[r] - kl[r]  # low <= high  <=>  s*t <= k
            if s > 0:
                hi = k // s if hi is None else min(hi, k // s)
            elif s < 0:
                lo = max(lo, -(k // -s))
            elif k < 0:
                break
        else:
            if hi is None or lo <= hi:
                if _SLOPE_STEP * lo + r == x:
                    yield x, lo, hi
                else:
                    raised.append((_SLOPE_STEP * lo + r, lo, hi))
    yield from sorted(raised)


# Guard sets answered before are looked up, not solved again.  The bound
# keeps a long run's memory flat; an analysis and a superenvelope check of
# one random diagram ask about at most a few dozen guard sets.
_CACHE_SIZE = 1024


def feasible(atoms, mins: dict):
    """The satisfying integer assignment with every var >= its min (1 when
    `mins` has no entry) that has the least first var, and the least second
    var there; or None.

    Answers are cached by guard set; each call gets its own env dict.
    """
    env = _feasible(tuple(atoms), tuple(mins.items()))
    return None if env is None else dict(env)


@lru_cache(maxsize=_CACHE_SIZE)
def _feasible(atoms: tuple, mins: tuple):
    """`feasible`'s answer as None or the env's items."""
    mins = dict(mins)
    vars_ = _vars(atoms, mins)
    if not atoms:
        return tuple((v, mins.get(v, 1)) for v in vars_)
    x_var, y_var, lows, _, classes = _frame(atoms, mins, vars_)
    least = next(classes, None)
    if least is None:
        return None
    x, t, _ = least
    if y_var is None:
        return ((x_var, x),)
    return ((x_var, x), (y_var, max(s * t + k[x % _SLOPE_STEP] for s, k in lows)))


def feasible_unbounded(atoms, mins: dict, var: str) -> bool:
    """Whether satisfying points exist with `var` arbitrarily large: some
    residue class of `var` has no upper end."""
    *_, classes = _frame(atoms, mins, _vars(atoms, mins, var), var)
    return any(hi is None for _, _, hi in classes)


def tau_unbounded_along(atoms, mins: dict, var: str, tau: Lin) -> bool:
    """Whether sup of tau over the region is unbounded as `var` grows.

    tau's growth may come from `var` itself or from the other parameter
    being free to grow.  Along a residue class of `var` with no upper end,
    the other parameter is bounded by the least of the highs, which
    eventually is the high of least slope, so it grows unless some high
    has slope 0.
    """
    if tau.coeff(var) >= 1:
        return True
    other = [p for p in tau.params if p != var]
    if not other:
        return False
    vars_ = _vars(atoms, mins, var, *other)
    _, y_var, _, highs, classes = _frame(atoms, mins, vars_, var)
    if all(hi is not None for _, _, hi in classes):
        return False
    # tau = const + cy*y here; with no highs at all, y is free
    return tau.coeff(y_var) >= 1 and all(s > 0 for s, _ in highs)


# ---------------------------------------------------------------------------
# piecewise-constant functions


@dataclass(frozen=True)
class FnSpec:
    """Disjoint guard pieces covering the whole parameter space."""

    pieces: tuple  # (atoms tuple, value) pairs

    def evaluate(self, env: dict):
        for atoms, v in self.pieces:
            if all(a.holds(env) for a in atoms):
                return v
        raise ArgumentError(f"FnSpec does not cover {env}")

    def render(self) -> str:
        if len(self.pieces) == 1:
            return str(self.pieces[0][1])
        parts = []
        for atoms, v in self.pieces:
            cond = " & ".join(a.render() for a in atoms) or "else"
            parts.append(f"{cond}: {v}")
        return "{" + "; ".join(parts) + "}"


def const_fn(v) -> FnSpec:
    return FnSpec((((), v),))


def step_fn(var: str, tau: Lin, lo, hi) -> FnSpec:
    """Value lo while var < tau, hi afterwards."""
    return FnSpec((((Atom(var, True, tau),), lo), ((Atom(var, False, tau),), hi)))


def _collapse(pieces) -> FnSpec:
    """One constant piece when all values agree, else the pieces as given."""
    if all(v == pieces[0][1] for _, v in pieces):
        return const_fn(pieces[0][1])
    return FnSpec(tuple(pieces))


def fn_binary(f: FnSpec, g: FnSpec, op, mins: dict) -> FnSpec:
    pieces = []
    for fa, fv in f.pieces:
        for ga, gv in g.pieces:
            atoms = fa + ga
            if feasible(atoms, mins) is None:
                continue
            pieces.append((atoms, op(fv, gv)))
    if not pieces:
        raise ArgumentError("operands do not cover the parameter space")
    return _collapse(pieces)


def fn_max(f: FnSpec, g: FnSpec, mins: dict) -> FnSpec:
    return fn_binary(f, g, max, mins)


def fn_add(f: FnSpec, g: FnSpec, mins: dict) -> FnSpec:
    return fn_binary(f, g, operator.add, mins)


def fn_shift(f: FnSpec, c) -> FnSpec:
    return FnSpec(tuple((atoms, v + c) for atoms, v in f.pieces))


def fn_eventual(f: FnSpec, param: str, mins: dict) -> FnSpec:
    """The stabilized value as `param` grows, a function of the rest.

    Guards on `param` resolve by sign; guards on other variables whose
    right side mentions `param` resolve to the large-`param` truth.  The
    surviving pieces are exactly the large-`param` selections, so they
    remain disjoint and covering over the remaining parameters.
    """
    out = []
    for atoms, v in f.pieces:
        keep = []
        dead = False
        for a in atoms:
            if a.var == param:
                if a.lt:  # param < rhs fails eventually (rhs is param-free)
                    dead = True
                    break
                continue  # param >= rhs holds eventually
            elif a.rhs.coeff(param) >= 1:
                if a.lt:  # other < ...param... holds eventually
                    continue
                dead = True
                break
            else:
                keep.append(a)
        if not dead:
            out.append((tuple(keep), v))
    if not out:
        raise ArgumentError(f"no piece survives {param} -> infinity")
    reduced_mins = {p: m for p, m in mins.items() if p != param}
    live = [(a, v) for a, v in out if feasible(a, reduced_mins) is not None]
    return _collapse(live)


def fn_sup(f: FnSpec, mins: dict):
    """Supremum of the function over all parameter values."""
    best = None
    for atoms, v in f.pieces:
        if feasible(atoms, mins) is None:
            continue
        if best is None or v > best:
            best = v
    if best is None:
        raise ArgumentError("FnSpec has no feasible piece")
    return best


def _fn_witness(f: FnSpec, g: FnSpec, mins: dict, holds):
    """The first piece pair, f's pieces outer, where holds(f value, g value)
    fails on a feasible joint guard: (env, f value, g value), or None."""
    for fa, fv in f.pieces:
        for ga, gv in g.pieces:
            if holds(fv, gv):
                continue
            env = feasible(fa + ga, mins)
            if env is not None:
                return env, fv, gv
    return None


def fn_compare(f: FnSpec, g: FnSpec, mins: dict):
    """None if f == g everywhere, else a witness (env, f value, g value)."""
    return _fn_witness(f, g, mins, operator.eq)


def fn_le(f: FnSpec, g: FnSpec, mins: dict):
    """None if f <= g everywhere, else a witness (env, f value, g value)."""
    return _fn_witness(f, g, mins, operator.le)


# ---------------------------------------------------------------------------
# k-indexed sequence specs


@dataclass(frozen=True)
class SeqSpec:
    """Value lo for k < tau(params), hi for k >= tau(params)."""

    lo: object
    tau: Lin
    hi: object

    @property
    def limit(self):
        """Pointwise limit in k at any fixed parameters."""
        return self.hi


def seq_step(lo, tau: Lin, hi) -> SeqSpec:
    return SeqSpec(lo, tau, hi)


# ---------------------------------------------------------------------------
# diagram structure


@dataclass(frozen=True)
class Node:
    """A class of ergodic measures, parameterized outer-to-inner.

    A class with parameters stands for the whole family of instances over
    integer parameter values (each at least its minimum); value specs on
    the class may depend on the parameters, so clusters whose values agree
    collapse into one class.
    """

    node_id: str
    params: tuple = ()
    kind: str = "periodic"  # "periodic" | "aperiodic"
    period: str | None = None  # informational period expression
    param_mins: tuple = ()

    def __post_init__(self):
        if self.kind not in ("periodic", "aperiodic"):
            raise ArgumentError(f"unknown node kind {self.kind!r}")
        if len(self.params) > 2:
            raise ArgumentError("nodes carry at most two parameters (depth <= 2)")
        if self.param_mins and len(self.param_mins) != len(self.params):
            raise ArgumentError("param_mins must match params")
        # built once and shared by every caller, kept off the dataclass fields
        mins = self.param_mins or (1,) * len(self.params)
        object.__setattr__(self, "_mins", dict(zip(self.params, mins)))

    @property
    def mins(self) -> dict:
        """Each parameter's least value; callers read it and never modify it."""
        return self._mins


@dataclass(frozen=True)
class FamilyLink:
    """Members of `member` converge to `limit` as `parameter` grows."""

    member: str
    parameter: str
    limit: str


@dataclass(frozen=True)
class MeasureDiagram:
    nodes: tuple
    families: tuple
    p_sup: EntropyValue | None = None

    def __post_init__(self):
        if not self.nodes:
            raise ArgumentError("a diagram needs at least one node class")
        by_id = {}
        for n in self.nodes:
            if n.node_id in by_id:
                raise ArgumentError(f"duplicate node id {n.node_id!r}")
            by_id[n.node_id] = n
        member_of = {}
        for f in self.families:
            if f.member not in by_id or f.limit not in by_id:
                raise ArgumentError(f"family references unknown node: {f}")
            if f.member in member_of:
                raise ArgumentError(f"{f.member} is a member of two families")
            member_of[f.member] = f
            m, l = by_id[f.member], by_id[f.limit]
            if not m.params or m.params[-1] != f.parameter:
                raise ArgumentError(
                    f"family parameter {f.parameter!r} must be the innermost "
                    f"parameter of {f.member}"
                )
            if m.params[:-1] != l.params:
                raise ArgumentError(
                    f"limit {f.limit} must carry the outer parameters of {f.member}"
                )
            for p, least in l.mins.items():  # every limit instance has members converging to it
                if m.mins[p] > least:
                    raise ArgumentError(
                        f"{f.member}: parameter {p} starts above its limit {f.limit}'s"
                    )
        for n in self.nodes:
            if n.params and n.node_id not in member_of:
                raise ArgumentError(
                    f"parameterized class {n.node_id} must converge somewhere"
                )
        into = {}
        for f in self.families:
            into.setdefault(f.limit, []).append(f)
        # levels: members sit strictly below their limits and carry one
        # parameter more, so settling classes by falling parameter count
        # settles every member before its limit; depth <= 2
        level = {}
        for n in sorted(self.nodes, key=lambda n: -len(n.params)):
            members = (level[f.member] for f in into.get(n.node_id, ()))
            level[n.node_id] = 1 + max(members, default=-1)
        if max(level.values()) > 2:
            raise ArgumentError("accumulation depth exceeds 2")
        if self.p_sup is not None and not isinstance(self.p_sup, EntropyValue):
            raise ArgumentError(f"p_sup must be an EntropyValue or None, not {self.p_sup!r}")
        # lookup indexes, kept off the dataclass fields
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_into", {k: tuple(v) for k, v in into.items()})
        object.__setattr__(self, "_level", level)

    def node(self, node_id: str) -> Node:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise ArgumentError(f"unknown node {node_id!r}") from None

    @property
    def depth(self) -> int:
        return max(self._level.values())

    def families_into(self, node_id: str):
        return self._into.get(node_id, ())

    def chains_into(self, node_id: str):
        """The families two steps below node_id: those whose limit is a
        member of a family into node_id."""
        return [f2 for f1 in self.families_into(node_id) for f2 in self.families_into(f1.member)]


@dataclass(frozen=True)
class FnOnDiagram:
    """A function on the diagram: one FnSpec per node class."""

    specs: tuple  # sorted (node_id, FnSpec) pairs

    def __post_init__(self):
        object.__setattr__(self, "_by_id", dict(self.specs))

    def spec(self, node_id: str) -> FnSpec:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise ArgumentError(f"no spec for node {node_id!r}") from None

    def evaluate(self, node_id: str, env: dict):
        return self.spec(node_id).evaluate(env)

    def values(self) -> list:
        return [v for _, f in self.specs for _, v in f.pieces]

    def map_values(self, g) -> "FnOnDiagram":
        """The same pieces with every value v replaced by g(v)."""
        return FnOnDiagram(
            tuple(
                (nid, FnSpec(tuple((atoms, g(v)) for atoms, v in f.pieces)))
                for nid, f in self.specs
            )
        )


def fn_on(diagram: MeasureDiagram, mapping: dict) -> FnOnDiagram:
    specs = []
    for n in diagram.nodes:
        if n.node_id not in mapping:
            raise ArgumentError(f"no value spec for node {n.node_id}")
        v = mapping[n.node_id]
        specs.append((n.node_id, v if isinstance(v, FnSpec) else const_fn(v)))
    return FnOnDiagram(tuple(sorted(specs)))


@dataclass(frozen=True)
class SeqOnDiagram:
    """A k-indexed sequence of functions in threshold form, per node class."""

    specs: tuple  # sorted (node_id, SeqSpec) pairs
    monotone: str  # "nonincreasing" | "nondecreasing"

    def __post_init__(self):
        if self.monotone not in ("nonincreasing", "nondecreasing"):
            raise ArgumentError("declare the monotone direction")
        for nid, s in self.specs:
            lo, hi = exact(s.lo), exact(s.hi)
            if self.monotone == "nonincreasing" and not lo >= hi:
                raise ArgumentError(f"{nid}: nonincreasing spec needs lo >= hi")
            if self.monotone == "nondecreasing" and not lo <= hi:
                raise ArgumentError(f"{nid}: nondecreasing spec needs lo <= hi")
        object.__setattr__(self, "_by_id", dict(self.specs))

    def spec(self, node_id: str) -> SeqSpec:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise ArgumentError(f"no sequence spec for node {node_id!r}") from None

    def limit_fn(self, diagram: MeasureDiagram) -> FnOnDiagram:
        """The recorded pointwise limit, constant per class."""
        return fn_on(diagram, {nid: const_fn(s.limit) for nid, s in self.specs})

    def values(self) -> list:
        return [v for _, s in self.specs for v in (s.lo, s.hi)]

    def map_values(self, g) -> "SeqOnDiagram":
        """The same thresholds with every lo and hi value v replaced by g(v)."""
        specs = tuple((nid, SeqSpec(g(s.lo), s.tau, g(s.hi))) for nid, s in self.specs)
        return SeqOnDiagram(specs, self.monotone)


def seq_on(diagram: MeasureDiagram, mapping: dict, monotone: str) -> SeqOnDiagram:
    specs = []
    for n in diagram.nodes:
        if n.node_id not in mapping:
            raise ArgumentError(f"no sequence spec for node {n.node_id}")
        s = mapping[n.node_id]
        if not isinstance(s, SeqSpec):
            s = SeqSpec(s, lin(0), s)
        for p in s.tau.params:
            if p not in n.params:
                raise ArgumentError(
                    f"{n.node_id}: threshold parameter {p!r} not a node parameter"
                )
        specs.append((n.node_id, s))
    return SeqOnDiagram(tuple(sorted(specs)), monotone)


def tails_of(hseq: SeqOnDiagram, diagram: MeasureDiagram) -> SeqOnDiagram:
    """The tail sequence h - h_k of a nondecreasing entropy sequence."""
    if hseq.monotone != "nondecreasing":
        raise ArgumentError("entropy sequences must be nondecreasing")
    specs = {}
    for nid, s in hseq.specs:
        h = s.limit
        specs[nid] = SeqSpec(h - s.lo, s.tau, h - s.hi)
    return seq_on(diagram, specs, "nonincreasing")

