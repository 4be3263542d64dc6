import json
from fractions import Fraction

import pytest

from symdyn.errors import ArgumentError
from symdyn.scenarios import SCENARIO_NAMES, run_scenario, scenario_data


def test_all_scenarios_pass():
    cases = [
        ("example1", None),
        ("example2", Fraction(3, 2)),
        ("example3", Fraction(1, 2)),
        ("example3", Fraction(3, 2)),
        ("pickupsticks", None),
    ]
    for name, h0 in cases:
        report = run_scenario(name, h0)
        assert report.all_passed, {
            k: v for k, v in report.verdicts.items() if not v
        }


def test_example1_reference_values():
    report = run_scenario("example1")
    res = report.result
    assert res["min_repair.top"]["actual"] == Fraction(2)
    assert res["min_repair.middle"]["actual"] == Fraction(1)
    assert res["u1.is_repair"]["actual"] is False
    assert res["sup_h_emb"]["actual"] == Fraction(1)


def test_example2_reference_values():
    report = run_scenario("example2", Fraction(3, 2))
    res = report.result
    assert res["h_sex.top"]["actual"] == Fraction(3, 2)
    assert res["u1.top"]["actual"] == Fraction(1)
    assert res["h_emb.top"]["actual"] == Fraction(5, 2)
    assert res["p_star"]["actual"] == Fraction(1)


def test_example3_both_parameter_values():
    for h0, expected in ((Fraction(1, 2), Fraction(1)), (Fraction(3, 2), Fraction(3, 2))):
        report = run_scenario("example3", h0)
        assert report.result["h_emb.top"]["actual"] == expected


def test_scenarios_deterministic_json():
    a = run_scenario("example2", Fraction(3, 2)).to_json()
    b = run_scenario("example2", Fraction(3, 2)).to_json()
    assert a == b
    json.loads(a)  # well-formed


def test_h0_required():
    with pytest.raises(ArgumentError):
        run_scenario("example2")
    with pytest.raises(ArgumentError):
        scenario_data("nosuch")
    for name in ("example1", "pickupsticks"):
        with pytest.raises(ArgumentError, match=f"^scenario {name!r} takes no h0$"):
            scenario_data(name, Fraction(3, 2))


def test_scenario_names_exported():
    assert set(SCENARIO_NAMES) == {
        "example1",
        "example2",
        "example3",
        "pickupsticks",
    }


def test_example2_cluster_level_values():
    from symdyn.envelope import analyze_diagram
    from symdyn.scenarios import scenario_data

    h0 = Fraction(3, 2)
    data = scenario_data("example2", h0)
    rep = analyze_diagram(data.diagram, data.hseq, data.perseq)
    # middle layer keeps its entropy, clusters stay at zero
    assert rep.value("h_sex", "mu_middle", {"m": 4}) == h0
    assert rep.value("h_sex", "mu_bottom", {"m": 4, "j": 2}) == 0
    # the period-tail floor is one bit on the whole middle layer
    for m in (1, 3, 9):
        assert rep.value("u1", "mu_middle", {"m": m}) == 1
    assert rep.value("u1", "mu_bottom", {"m": 2, "j": 7}) == 0
    assert rep.value("h_emb", "mu_middle", {"m": 4}) == h0 + 1
