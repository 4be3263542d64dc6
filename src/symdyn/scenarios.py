"""Built-in scenario diagrams with their reference values.

The scenarios are code-defined rather than file-loaded so that the shapes
cannot drift; each assertion carries a stable identifier and the exact
reference value it must reproduce.  A scenario run reports per-assertion
verdicts; a false one makes the CLI exit 2, as for every command.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

from .diagram import (
    FamilyLink,
    MeasureDiagram,
    Node,
    lin,
    seq_on,
    seq_step,
)
from .envelope import (
    analyze_diagram,
    is_repair,
    minimal_repair,
    zero_fn,
)
from .errors import ArgumentError
from .report import Report

SCENARIO_NAMES = ("example1", "example2", "example3", "pickupsticks")


@dataclass(frozen=True)
class ScenarioData:
    diagram: MeasureDiagram
    hseq: object
    perseq: object


def _two_level_diagram(bottom_kind: str, middle_kind: str) -> MeasureDiagram:
    bottom = Node("mu_bottom", ("m", "j"), bottom_kind)
    middle = Node("mu_middle", ("m",), middle_kind)
    top = Node("mu0", (), "periodic", "1")
    return MeasureDiagram(
        (bottom, middle, top),
        (FamilyLink("mu_bottom", "j", "mu_middle"), FamilyLink("mu_middle", "m", "mu0")),
    )


def example1_data() -> ScenarioData:
    """Two periodic rows per point: clusters mu_{m,i,j,l} -> mu_{m,i} -> mu0.

    Everything is periodic, so the entropy sequence vanishes; the period
    tails hold value one bit below thresholds given by the indices.
    """
    D = _two_level_diagram("periodic", "periodic")
    hseq = seq_on(D, {n.node_id: 0 for n in D.nodes}, "nondecreasing")
    perseq = seq_on(
        D,
        {
            "mu_bottom": seq_step(1, lin(j=1), 0),
            "mu_middle": seq_step(1, lin(m=1), 0),
            "mu0": 0,
        },
        "nonincreasing",
    )
    return ScenarioData(D, hseq, perseq)


def example2_data(h0: Fraction) -> ScenarioData:
    """Positive-entropy middle layer: the repair floor compounds with the
    entropy tails, forcing h0 + 1 bit at the top."""
    if h0 <= 0:
        raise ArgumentError("h0 must be a positive rational")
    D = _two_level_diagram("periodic", "aperiodic")
    hseq = seq_on(
        D,
        {
            "mu_bottom": 0,
            "mu_middle": seq_step(0, lin(m=1), h0),
            "mu0": 0,
        },
        "nondecreasing",
    )
    perseq = seq_on(
        D,
        {
            "mu_bottom": seq_step(1, lin(m=1, j=1), 0),
            "mu_middle": 0,
            "mu0": 0,
        },
        "nonincreasing",
    )
    return ScenarioData(D, hseq, perseq)


def example3_data(h0: Fraction) -> ScenarioData:
    """One accumulation level: periodic clusters and positive-entropy
    measures converge to the top separately, so the two costs do not add."""
    if h0 <= 0:
        raise ArgumentError("h0 must be a positive rational")
    per = Node("mu_per", ("m",), "periodic", "m")
    ap = Node("mu_ap", ("m",), "aperiodic")
    top = Node("mu0", (), "periodic", "1")
    D = MeasureDiagram(
        (per, ap, top),
        (FamilyLink("mu_per", "m", "mu0"), FamilyLink("mu_ap", "m", "mu0")),
    )
    hseq = seq_on(
        D,
        {"mu_per": 0, "mu_ap": seq_step(0, lin(m=1), h0), "mu0": 0},
        "nondecreasing",
    )
    perseq = seq_on(
        D,
        {"mu_per": seq_step(1, lin(m=1), 0), "mu_ap": 0, "mu0": 0},
        "nonincreasing",
    )
    return ScenarioData(D, hseq, perseq)


def pickupsticks_data() -> ScenarioData:
    """An alias of example 1, returned unchanged.

    The bare two-level tail structure puts single points where example 1
    has clusters, with the same values (one bit below the index
    thresholds, zero entropy).  A class already stands for a cluster whose
    values agree, so both give the same class-level diagram.
    """
    return example1_data()


def scenario_data(name: str, h0: Fraction | None = None) -> ScenarioData:
    if h0 is not None and name in ("example1", "pickupsticks"):
        raise ArgumentError(f"scenario {name!r} takes no h0")
    if name == "example1":
        return example1_data()
    if name == "example2":
        return example2_data(_require_h0(h0))
    if name == "example3":
        return example3_data(_require_h0(h0))
    if name == "pickupsticks":
        return pickupsticks_data()
    raise ArgumentError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")


def _require_h0(h0):
    if h0 is None:
        raise ArgumentError("this scenario needs an exact rational h0")
    return Fraction(h0)


def run_scenario(name: str, h0: Fraction | None = None) -> Report:
    data = scenario_data(name, h0)
    D, hseq, perseq = data.diagram, data.hseq, data.perseq
    rep = analyze_diagram(D, hseq, perseq)
    one = Fraction(1)
    checks = {}
    result = {
        "p_star": rep.p_star,
        "sup_h_sex": rep.sup_h_sex,
        "sup_h_emb": rep.sup_h_emb,
        "cardinality": rep.cardinality,
    }

    def check(key: str, actual, expected):
        checks[key] = actual == expected
        result[key] = {"actual": actual, "reference": expected}

    if name in ("example1", "pickupsticks"):
        u1 = rep.u1
        verdict = is_repair(u1, perseq, D)
        u2 = minimal_repair(perseq, zero_fn(D), D)
        check("u1.top", u1.evaluate("mu0", {}), one)
        check("u1.middle", u1.evaluate("mu_middle", {"m": 3}), one)
        check("u1.bottom", u1.evaluate("mu_bottom", {"m": 3, "j": 5}), Fraction(0))
        check("u1.is_repair", verdict.repairs, False)
        check("u1.witness", verdict.witness_node, "mu0")
        check("u1.residual", verdict.residual, one)
        check("min_repair.top", u2.evaluate("mu0", {}), Fraction(2))
        check("min_repair.middle", u2.evaluate("mu_middle", {"m": 3}), one)
        check("min_repair.bottom", u2.evaluate("mu_bottom", {"m": 3, "j": 5}), Fraction(0))
        check("sup_h_emb", rep.sup_h_emb, one)
    elif name == "example2":
        h0 = Fraction(h0)
        top_h_sex = rep.value("h_sex", "mu0")
        top_u1 = rep.value("u1", "mu0")
        top_h_emb = rep.value("h_emb", "mu0")
        check("h_sex.top", top_h_sex, h0)
        check("u1.top", top_u1, one)
        check("h_emb.top", top_h_emb, h0 + one)
        check("h_emb.equals_h_sex_plus_u1", top_h_emb, top_h_sex + top_u1)
        strict = top_h_emb > max(top_h_sex, rep.value("h", "mu0") + top_u1)
        check("h_emb.strictly_above_lower_bound", strict, True)
        check("p_star", rep.p_star, one)
    elif name == "example3":
        h0 = Fraction(h0)
        top_h_emb = rep.value("h_emb", "mu0")
        check("h_emb.top", top_h_emb, max(h0, one))
        check(
            "h_emb.strictly_below_sum",
            top_h_emb < rep.value("h_sex", "mu0") + rep.value("u1", "mu0"),
            True,
        )
        check("u1.top", rep.value("u1", "mu0"), one)
        check("u1.periodic_cluster", rep.value("u1", "mu_per", {"m": 4}), Fraction(0))
        check("u1.aperiodic", rep.value("u1", "mu_ap", {"m": 4}), Fraction(0))
    verdicts = {f"bounds.{k}": v for k, v in asdict(rep.bounds).items()}
    verdicts.update(checks)
    inputs = {"scenario": name, "h0": None if h0 is None else str(h0)}
    return Report(f"scenario {name}", inputs, result, verdicts, rep.warnings)
