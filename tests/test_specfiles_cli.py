import argparse
import io
import json
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import Budget
from symdyn.cli import build_parser, main
from symdyn.errors import SpecFileError
from symdyn.markers import OPEN, WRAP, window_from_rows
from symdyn.randgen import random_aperiodic_window
from symdyn.sft import DEFAULT_PERIOD_CAP
from symdyn.specfiles import KINDS, load_spec, rational, window_to_json

ROOT = Path(__file__).resolve().parent.parent


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def gm_spec(tmp_path):
    return write(
        tmp_path,
        "gm.json",
        {"kind": "sft", "version": 1, "alphabet": ["0", "1"], "forbidden": ["11"]},
    )


def test_load_sft(tmp_path):
    spec = load_spec(gm_spec(tmp_path))
    assert spec["kind"] == "sft"
    assert spec["payload"].alphabet.size == 2


def test_unknown_field_rejected(tmp_path):
    path = write(
        tmp_path,
        "bad.json",
        {"kind": "sft", "version": 1, "alphabet": ["0"], "bogus": 1},
    )
    with pytest.raises(SpecFileError, match="bogus"):
        load_spec(path)


def test_version_mismatch(tmp_path):
    path = write(tmp_path, "v9.json", {"kind": "sft", "version": 9, "alphabet": ["0"]})
    with pytest.raises(SpecFileError, match="version"):
        load_spec(path)


def test_diagram_schema_error_names_field(tmp_path):
    path = write(
        tmp_path,
        "diag.json",
        {
            "kind": "diagram",
            "version": 1,
            "nodes": [{"id": "top", "param_mins": [-1], "params": ["m"]}],
            "families": [],
            "h": {"top": "0"},
            "ptail": {"top": "0"},
        },
    )
    with pytest.raises(SpecFileError, match="param_mins"):
        load_spec(path)


def test_window_roundtrip(tmp_path):
    payload = {
        "kind": "window",
        "version": 1,
        "rows": ["0101", "0011"],
        "markers": [[0, 2], [2]],
        "boundary": "open",
    }
    path = write(tmp_path, "w.json", payload)
    w = load_spec(path)["payload"]
    again = window_to_json(w)
    assert again["rows"] == payload["rows"]
    assert again["markers"] == payload["markers"]
    doubled = window_to_json(w, doubled=True)
    assert doubled["rows_doubled"][0] == "0|10|1"


def naive_doubled(w) -> dict:
    """The doubled rows cell by cell, each column looked up in its row's markers."""
    rows = []
    for k, row in enumerate(w.rows, start=1):
        cells = [c + ("|" if i in w.markers[k - 1] else "") for i, c in enumerate(row)]
        rows.append("".join(cells))
    return {"rows_doubled": rows, "boundary": w.boundary}


def test_doubled_rows_match_the_cell_by_cell_rendering():
    rng = random.Random(31)

    def rows(width, depth):
        return ["".join(rng.choice("01") for _ in range(width)) for _ in range(depth)]

    windows = [
        window_from_rows(["0110"], [[0, 3]]),  # markers at both end columns
        window_from_rows(["0110", "1001"], [[], []]),
        window_from_rows(["01101"] * 3, [[4], [], [0, 2, 4]], WRAP),
        window_from_rows(rows(1600, 4), [rng.sample(range(1600), n) for n in (0, 1, 400, 1600)]),
    ]
    for _ in range(300):
        width, depth = rng.randint(1, 25), rng.randint(1, 4)
        marks = [rng.sample(range(width), rng.randint(0, width)) for _ in range(depth)]
        windows.append(window_from_rows(rows(width, depth), marks, rng.choice((OPEN, WRAP))))
    for w in windows:
        assert window_to_json(w, doubled=True) == naive_doubled(w)


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_cli_per(tmp_path):
    code, out, _ = run_cli(["per", "--spec", gm_spec(tmp_path), "-n", "3"])
    assert code == 0
    body = json.loads(out)
    assert body["result"]["counts"]["1"] == 1
    assert body["result"]["counts"]["3"] == 3


def test_cli_entropy_and_capacities(tmp_path):
    code, out, _ = run_cli(["entropy", "--spec", gm_spec(tmp_path)])
    assert code == 0
    body = json.loads(out)
    assert body["result"]["bracket"]["tolerance_met"] is True
    code, out, _ = run_cli(["capacities", "--spec", gm_spec(tmp_path), "-n", "8"])
    assert code == 0


def test_cli_dbar(tmp_path):
    code, out, _ = run_cli(
        ["dbar", "--spec", gm_spec(tmp_path), "--a", "0", "--b", "01"]
    )
    assert code == 0
    assert json.loads(out)["result"]["distance"]["exact"] == "1/2"
    code, out, _ = run_cli(
        [
            "dbar",
            "--spec",
            gm_spec(tmp_path),
            "--mix-a",
            "0:1/2,01:1/2",
            "--mix-b",
            "0:1",
        ]
    )
    assert code == 0
    assert json.loads(out)["result"]["bound"]["exact"] == "1/4"


def test_cli_dbar_rejects_orbits_outside_spec(tmp_path):
    for args in (
        ["--a", "1", "--b", "0"],
        ["--a", "0", "--b", "011"],
        ["--a", "2", "--b", "0"],
        ["--mix-a", "0:1/2,1:1/2", "--mix-b", "0:1"],
        ["--mix-a", "0:1", "--mix-b", "011:1"],
    ):
        code, out, err = run_cli(["dbar", "--spec", gm_spec(tmp_path), *args])
        assert code == 3 and out == ""
        assert "not in the subshift" in err


@pytest.mark.parametrize(
    "orbits, mixtures",
    [
        (["--a", "0", "--b", "01"], ["--mix-a", "0:1", "--mix-b", "01:1"]),
        (["--a", "0"], ["--mix-a", "0:1", "--mix-b", "01:1"]),
        (["--b", "01"], ["--mix-a", "0:1"]),
    ],
)
def test_cli_dbar_refuses_orbits_beside_mixtures(tmp_path, orbits, mixtures):
    # the mixture bound alone was printed, and --a and --b were dropped unread
    full2 = write(tmp_path, "full2.json", {"kind": "sft", "version": 1, "alphabet": ["0", "1"], "forbidden": []})
    code, out, err = run_cli(["dbar", "--spec", full2, *orbits, *mixtures])
    assert (code, out) == (3, "")
    assert "give --a and --b or --mix-a and --mix-b, not both" in err


def _parsers(parser, path=()):
    yield " ".join(path), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, path + (name,))


def test_cap_offered_only_where_read():
    parsers = dict(_parsers(build_parser()))
    assert {"per", "entropy", "markers run", "extend hall", "diagram analyze"} <= set(parsers)
    with_cap = {path for path, p in parsers.items() if "--cap" in p._option_string_actions}
    assert with_cap == {"per", "capacities"}


def test_cli_markers_pipeline(tmp_path):
    import random

    from symdyn.randgen import random_aperiodic_window

    w = random_aperiodic_window(random.Random(3), 120, 3, 3)
    path = write(
        tmp_path,
        "w.json",
        {
            "kind": "window",
            "version": 1,
            "rows": list(w.rows),
            "markers": [[], [], []],
        },
    )
    code, out, _ = run_cli(
        [
            "markers",
            "run",
            "--pass",
            "pipeline",
            "--spec",
            path,
            "--rules",
            "D,E",
        ]
    )
    assert code == 0
    body = json.loads(out)
    assert body["verdicts"]["D"] is True and body["verdicts"]["E"] is True


def test_cli_extend_and_hall(tmp_path):
    hier = {
        "kind": "hierarchy",
        "version": 1,
        "alphabet_size": 2,
        "rectangles": [
            {"id": "B1", "level": 1, "word": "01001"},
            {"id": "B2", "level": 1, "word": "11000"},
            {"id": "R1", "level": 2, "children": ["B1", "B2"], "bottom": "0000000000"},
            {"id": "R2", "level": 2, "children": ["B1", "B2"], "bottom": "1111111111"},
        ],
        "oracle": {"1": {"B1": 2, "B2": 1}, "2": {"R1": 1, "R2": 1}},
    }
    hpath = write(tmp_path, "h.json", hier)
    code, out, _ = run_cli(["extend", "build", "--spec", hpath])
    assert code == 0
    code, out, _ = run_cli(
        ["extend", "selector", "--spec", hpath, "--path", "B1,R1"]
    )
    assert code == 0
    assert len(json.loads(out)["result"]["word"]) == 10
    hall = {
        "kind": "hall",
        "version": 1,
        "strips": {"s1": ["ab", "cd"], "s2": ["ab"], "s3": ["ef"]},
    }
    code, out, _ = run_cli(["extend", "hall", "--spec", write(tmp_path, "hall.json", hall)])
    assert code == 0
    assert json.loads(out)["result"]["feasible"] is True
    bad = {
        "kind": "hall",
        "version": 1,
        "strips": {"s1": ["ab"], "s2": ["ab"], "s3": ["ab"]},
    }
    code, out, _ = run_cli(["extend", "hall", "--spec", write(tmp_path, "bad.json", bad)])
    assert code == 2


def test_cli_hall_one_augmenting_path_through_3000_strips(tmp_path):
    # strips s0001..s2999 take their own words first; strip t, matched last,
    # can only get a word by shifting every one of them along the path
    strips = {f"s{i:04d}": [f"{i:04d}", f"{i + 1:04d}"] for i in range(1, 3000)}
    strips["t"] = ["9999", "0001"]
    hall = {"kind": "hall", "version": 1, "strips": strips}
    code, out, _ = run_cli(["extend", "hall", "--spec", write(tmp_path, "path.json", hall)])
    assert code == 0
    assignment = json.loads(out)["result"]["assignment"]
    assert assignment["t"] == "0001"
    assert assignment["s2999"] == "3000"


def test_cli_generator(tmp_path):
    codefile = write(
        tmp_path,
        "code.json",
        {"kind": "blockcode", "version": 1, "radius": 0, "table": {"0": "0", "1": "1"}},
    )
    code, out, _ = run_cli(
        [
            "extend",
            "generator",
            "--spec",
            gm_spec(tmp_path),
            "--code",
            codefile,
            "--depth",
            "4",
        ]
    )
    assert code == 0
    body = json.loads(out)
    assert body["verdicts"]["multiplicity_nonincreasing"] is True


def test_cli_generator_deeper_than_the_recursion_limit(tmp_path):
    alternating = write(
        tmp_path,
        "alt.json",
        {"kind": "sft", "version": 1, "alphabet": ["0", "1"], "forbidden": ["00", "11"]},
    )
    codefile = write(
        tmp_path,
        "code.json",
        {"kind": "blockcode", "version": 1, "radius": 0, "table": {"0": "0", "1": "1"}},
    )
    code, out, err = run_cli(
        ["extend", "generator", "--spec", alternating, "--code", codefile, "--depth", "600"]
    )
    assert code == 0, err
    body = json.loads(out)
    assert body["verdicts"]["multiplicity_nonincreasing"] is True
    assert set(body["result"]["multiplicities"].values()) == {1}


def zero_code(tmp_path):
    return write(
        tmp_path,
        "code.json",
        {"kind": "blockcode", "version": 1, "radius": 0, "table": {"0": "0", "1": "1"}},
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--depth", "-1"], "depth must be >= 0, got -1"),
        (["--center", "-1"], "center radius must lie in 0..depth = 0..4, got -1"),
        (["--center", "5", "--depth", "2"], "center radius must lie in 0..depth = 0..2, got 5"),
    ],
)
def test_cli_generator_rejects_bad_depth_and_center(tmp_path, flags, message):
    args = ["extend", "generator", "--spec", gm_spec(tmp_path), "--code", zero_code(tmp_path), *flags]
    assert run_cli(args) == (3, "", f"error: {message}\n")


def check_long_capacities(code, out, err):
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["estimate_window"] == list(range(15, 21))
    assert result["p_sup"]["approx"] == 3.0  # the 8 fixed points; p_n <= 8**n bounds it above


def check_long_entropy(code, out, err):
    assert code == 0, err
    body = json.loads(out)
    bracket = body["result"]["bracket"]
    assert (bracket["lo"]["exact"], bracket["hi"]["exact"]) == ("30621/10240", "3")
    assert bracket["tolerance_met"] and "warnings" not in body


def check_long_per(code, out, err):
    # 8**7 - 1 words of length 7: listing the orbits up to period 20 is refused at once
    assert (code, out) == (4, "")
    assert err == "resource cap: more than 2000000 admissible words of length 7\n"


@pytest.mark.parametrize(
    "args, check",
    [
        (["capacities", "-n", "20"], check_long_capacities),
        (["entropy"], check_long_entropy),
        (["per", "-n", "20"], check_long_per),
    ],
    ids=["capacities", "entropy", "per"],
)
def test_cli_capacities_on_a_long_forbidden_word(tmp_path, args, check):
    # the (L-1)-block graph of this spec has 8**6 = 262,144 states; its automaton has 7
    path = write(
        tmp_path,
        "long.json",
        {"kind": "sft", "version": 1, "alphabet": list("01234567"), "forbidden": ["0123456"]},
    )
    start = time.perf_counter()
    code, out, err = run_cli([args[0], "--spec", path, *args[1:]])
    assert time.perf_counter() - start < 5.0
    check(code, out, err)


DIAGRAM = {
    "kind": "diagram",
    "version": 1,
    "nodes": [
        {"id": "top", "kind": "periodic", "period": "1"},
        {"id": "mid", "params": ["m"], "kind": "aperiodic"},
        {"id": "deep", "params": ["m", "p"], "kind": "periodic"},
    ],
    "families": [
        {"member": "deep", "parameter": "p", "limit": "mid"},
        {"member": "mid", "parameter": "m", "limit": "top"},
    ],
    "h": {
        "top": "0",
        "mid": {"lo": "0", "tau": {"m": 1}, "hi": "3/2"},
        "deep": "0",
    },
    "ptail": {
        "top": "0",
        "mid": "0",
        "deep": {"lo": "1", "tau": {"m": 1, "p": 1}, "hi": "0"},
    },
}


def test_cli_diagram_analyze(tmp_path):
    path = write(tmp_path, "diag.json", DIAGRAM)
    code, out, _ = run_cli(["diagram", "analyze", "--spec", path])
    assert code == 0
    body = json.loads(out)
    assert body["result"]["sup_h_emb"]["exact"] == "5/2"
    assert body["verdicts"]["upper_pointwise"] is True


def with_h(h_arm, **extra):
    """A two-class diagram spec with h on the arm set to h_arm."""
    diag = {
        "kind": "diagram",
        "version": 1,
        "nodes": [{"id": "top"}, {"id": "arm", "params": ["m"]}],
        "families": [{"member": "arm", "parameter": "m", "limit": "top"}],
        "h": {"top": "0", "arm": h_arm},
        "ptail": {"top": "0", "arm": "0"},
    }
    for field, value in extra.items():
        diag[field] = {**diag.get(field, {}), **value} if isinstance(value, dict) else value
    return diag


def hierarchy(rectangles=None, **extra):
    """A two-rectangle hierarchy spec, with fields replaced by `extra`."""
    rects = [{"id": "B1", "level": 1, "word": "01001"}, {"id": "B2", "level": 1, "word": "11000"}]
    return {
        "kind": "hierarchy",
        "version": 1,
        "alphabet_size": 2,
        "rectangles": rects if rectangles is None else rectangles,
        "oracle": {"1": {"B1": 2, "B2": 1}},
        **extra,
    }


TWO_LEVELS = [
    {"id": "B1", "level": 1, "word": "01001"},
    {"id": "B2", "level": 1, "word": "11000"},
    {"id": "R1", "level": 2, "children": ["B1", "B2"], "bottom": "0000000000"},
]


def identity_code(**extra):
    return {"kind": "blockcode", "version": 1, "radius": 0, "table": {"0": "0", "1": "1"}, **extra}


WRONG_SHAPES = [
    (
        "per",
        {"kind": "sft", "version": 1, "alphabet": ["0", "1"], "forbidden": [11]},
        "forbidden[0]: must be a string or a list of strings, not 11",
    ),
    (
        "per",
        {"kind": "sft", "version": 1, "rows": [["0", "1"], ["0", "1"]], "forbidden": [11]},
        "forbidden[0]: must be a string or a list of strings, not 11",
    ),
    (
        "markers",
        {"kind": "window", "version": 1, "rows": ["0101"], "markers": [5]},
        "markers[0]: must be a list of columns, not 5",
    ),
    (
        "markers",
        {"kind": "window", "version": 1, "rows": ["0101"], "markers": ["18"]},
        "markers[0]: must be a list of columns, not '18'",
    ),
    (
        "markers",
        {"kind": "window", "version": 1, "rows": ["0101"], "markers": [[2.7, 5]]},
        "markers[0][0]: must be an integer, not 2.7",
    ),
    (
        "diagram",
        with_h({"lo": "0", "hi": "1", "tau": {"m": 1.5}}),
        "h.arm.tau.m: must be an integer, not 1.5",
    ),
    (
        "diagram",
        with_h({"lo": "0", "hi": "1", "tau": {"m": 1, "const": True}}),
        "h.arm.tau.const: must be an integer, not True",
    ),
    (
        "diagram",
        with_h({"lo": "0", "hi": "1", "tau": True}),
        "h.arm.tau: threshold must be an integer or an object",
    ),
    (
        "diagram",
        with_h("0", nodes=[{"id": "top"}, {"id": "arm", "params": ["m"], "param_mins": [1.5]}]),
        "nodes[1].param_mins[0]: must be an integer, not 1.5",
    ),
    ("diagram", with_h("0", h={"typo": "5"}), "h.typo: no node 'typo'"),
    ("diagram", with_h("0", ptail={"zz": "1"}), "ptail.zz: no node 'zz'"),
    # bools are not integers, and no value is cast to the type its field wants
    ("code", identity_code(radius=True), "radius: must be an integer, not True"),
    (
        "per",
        {"kind": "sft", "version": 1, "alphabet": [["0"], 1]},
        "alphabet[0]: must be a string, not ['0']",
    ),
    (
        "markers",
        {"kind": "window", "version": 1, "rows": [101, 110], "markers": [[], []]},
        "rows[0]: must be a string, not 101",
    ),
    (
        "markers",
        {
            "kind": "window",
            "version": 1,
            "rows": ["0101"],
            "markers": [[0, 2]],
            "flags": [{"row": True, "lo": 0, "hi": 2, "period": 1}],
        },
        "flags[0].row: must be an integer, not True",
    ),
    ("build", hierarchy(alphabet_size=True), "alphabet_size: must be an integer, not True"),
    (
        "hall",
        {"kind": "hall", "version": 1, "strips": {"a": [12, ["x"]]}},
        "strips.a[0]: must be a string, not 12",
    ),
    ("code", identity_code(table={"0": 1, "1": "1"}), "table.0: must be a string, not 1"),
    (
        "build",
        hierarchy([{"id": "B1", "level": 1, "word": "0a"}, {"id": "B2", "level": 1, "word": "11"}]),
        "rectangles[0].word: must be a string of decimal digits, not '0a'",
    ),
    (
        "build",
        hierarchy(oracle={"1_0": {"B1": True}}),
        "oracle.1_0: oracle levels must be integers",
    ),
    (
        "per",
        {"kind": "sft", "version": 1, "rows": [["0", "1"], [0, 1]]},
        "rows[1][0]: must be a string, not 0",
    ),
    # rectangle words and bottoms are digits of the hierarchy's alphabet
    (
        "build",
        hierarchy([{"id": "B1", "level": 1, "word": "01901"}, {"id": "B2", "level": 1, "word": "11000"}]),
        "hierarchy: B1: digit 9 is not below alphabet_size 2",
    ),
    (
        "build",
        hierarchy(
            [
                {"id": "B1", "level": 1, "word": "01001"},
                {"id": "B2", "level": 1, "word": "11000"},
                {"id": "R1", "level": 2, "children": ["B1", "B2"], "bottom": "0000020000"},
            ]
        ),
        "hierarchy: R1: digit 2 is not below alphabet_size 2",
    ),
    # every oracle entry names a rectangle of its level
    (
        "build",
        hierarchy(oracle={"1": {"B1": 1, "B2": 1, "ZZ": 99}, "2": {"R1": 1, "B1": 5}, "7": {"Q": 3}}),
        "oracle.1.ZZ: no rectangle 'ZZ'",
    ),
    ("build", hierarchy(oracle={"1": {"B1": 1, "B2": 1}, "7": {"Q": 3}}), "oracle.7.Q: no rectangle 'Q'"),
    (
        "build",
        hierarchy(
            [
                {"id": "B1", "level": 1, "word": "01001"},
                {"id": "B2", "level": 1, "word": "11000"},
                {"id": "R1", "level": 2, "children": ["B1", "B2"], "bottom": "0000000000"},
            ],
            oracle={"1": {"B1": 1, "B2": 1}, "2": {"R1": 1, "B1": 5}},
        ),
        "oracle.2.B1: rectangle 'B1' is at level 1",
    ),
    # each oracle level once: "1" and "01" spell the same level
    (
        "build",
        hierarchy(
            TWO_LEVELS,
            oracle={"1": {"B1": 2, "B2": 1}, "01": {"B1": 1, "B2": 1}, "2": {"R1": 1}},
        ),
        "oracle.01: repeats the key 1",
    ),
    # every rectangle has a budget, named at its level
    ("build", hierarchy(TWO_LEVELS, oracle={"1": {"B1": 2, "B2": 1}}), "oracle.2.R1: missing field"),
    ("build", hierarchy(oracle={"1": {"B1": 2}}), "oracle.1.B2: missing field"),
    # word only at level 1, children and bottom only above it, and at least one rectangle
    (
        "build",
        hierarchy(
            TWO_LEVELS[:2] + [{**TWO_LEVELS[2], "word": "0000000000"}],
            oracle={"1": {"B1": 2, "B2": 1}, "2": {"R1": 1}},
        ),
        "hierarchy: R1: a level-2 rectangle takes no word",
    ),
    (
        "build",
        hierarchy([{**TWO_LEVELS[0], "children": ["B2", "B2"]}, TWO_LEVELS[1]]),
        "hierarchy: B1: a level-1 rectangle takes no children or bottom",
    ),
    (
        "build",
        hierarchy([{**TWO_LEVELS[0], "bottom": "01001"}, TWO_LEVELS[1]]),
        "hierarchy: B1: a level-1 rectangle takes no children or bottom",
    ),
    ("build", hierarchy([], oracle={}), "hierarchy: a hierarchy needs at least one rectangle"),
    # the exit-3 probes that CI ran on the console script, input for input
    (
        "build",
        hierarchy(oracle={"1": {"B1": 2, "B2": 1}, "01": {"B1": 1, "B2": 1}}),
        "oracle.01: repeats the key 1",
    ),
    (
        "diagram",
        with_h({"lo": "0", "hi": "1", "tau": {"t": 1}}),
        "diagram: arm: threshold parameter 't' not a node parameter",
    ),
]


@pytest.mark.parametrize("command, payload, message", WRONG_SHAPES)
def test_cli_wrong_shaped_values_name_their_field(tmp_path, command, payload, message):
    path = write(tmp_path, "spec.json", payload)
    argv = {
        "per": ["per", "--spec", path, "-n", "2"],
        "markers": ["markers", "run", "--pass", "pipeline", "--spec", path],
        "diagram": ["diagram", "analyze", "--spec", path],
        "build": ["extend", "build", "--spec", path],
        "hall": ["extend", "hall", "--spec", path],
        "code": ["extend", "generator", "--spec", gm_spec(tmp_path), "--code", path],
    }[command]
    code, out, err = run_cli(argv)
    assert (code, out, err) == (3, "", f"error: {message}\n")
    with pytest.raises(SpecFileError, match=re.escape(message)):
        load_spec(path)


NESTED = [{"id": "top", "colour": "red"}, {"id": "arm", "params": ["m"]}]
BAD_KIND = [{"id": "top"}, {"id": "arm", "params": ["m"], "kind": "x"}]


@pytest.mark.parametrize(
    "payload, message",
    [
        (with_h("0", nodes=NESTED), "nodes[0].colour: unknown field"),
        (
            with_h("0", families=[{"member": "arm", "limit": "top"}]),
            "families[0].parameter: missing field",
        ),
        (with_h({"lo": 0.5, "hi": "1"}), "h.arm.lo: not an exact rational: 0.5"),
        (with_h("0", p_sup=None), "p_sup: not an exact rational: None"),
        (hierarchy(oracle={"1": {"B1": 0, "B2": 1}}), "oracle.1.B1: must be at least 1, not 0"),
        (identity_code(radius=-1), "radius: must be at least 0, not -1"),
        ({"kind": "sft", "version": 1, "forbidden": ["0"]}, "alphabet: missing field"),
        # a constructor's refusal of the whole spec carries the kind as its path
        (with_h("0", nodes=BAD_KIND), "diagram: unknown node kind 'x'"),
        (
            {"kind": "window", "version": 1, "rows": ["01", "0"], "markers": [[], []]},
            "window: all rows must have the same width",
        ),
        (
            with_h({"lo": "0", "hi": "1", "tau": {"t": 1}}),
            "diagram: arm: threshold parameter 't' not a node parameter",
        ),
    ],
)
def test_spec_errors_name_the_field_path(tmp_path, payload, message):
    with pytest.raises(SpecFileError, match=f"^{re.escape(message)}$"):
        load_spec(write(tmp_path, "spec.json", payload))


def example1_with_mins(middle, bottom):
    """Example 1's shape, with zero entropies and the given parameter minima."""
    return {
        "kind": "diagram",
        "version": 1,
        "nodes": [
            {"id": "mu0"},
            {"id": "mu_middle", "params": ["m"], "param_mins": middle},
            {"id": "mu_bottom", "params": ["m", "j"], "param_mins": bottom},
        ],
        "families": [
            {"member": "mu_bottom", "parameter": "j", "limit": "mu_middle"},
            {"member": "mu_middle", "parameter": "m", "limit": "mu0"},
        ],
        "h": {"mu0": "0", "mu_middle": "0", "mu_bottom": "0"},
        "ptail": {
            "mu0": "0",
            "mu_middle": {"lo": "1", "tau": {"m": 1}, "hi": "0"},
            "mu_bottom": {"lo": "1", "tau": {"j": 1}, "hi": "0"},
        },
    }


def test_a_member_starting_above_its_limit_exits_3(tmp_path):
    # no member converges to mu_middle(1) or mu_middle(2), so the family envelope has nothing to read there
    path = write(tmp_path, "above.json", example1_with_mins([1], [3, 1]))
    assert run_cli(["diagram", "analyze", "--spec", path]) == (
        3, "", "error: diagram: mu_bottom: parameter m starts above its limit mu_middle's\n"
    )
    # a member may start lower than its limit
    path = write(tmp_path, "lower.json", example1_with_mins([3], [1, 1]))
    assert run_cli(["diagram", "analyze", "--spec", path])[0] == 0


def test_scenario_spec_kind_is_unknown(tmp_path):
    path = write(tmp_path, "s.json", {"kind": "scenario", "version": 1, "name": "example1"})
    code, _, err = run_cli(["diagram", "analyze", "--spec", path])
    assert code == 3
    assert "unknown kind 'scenario'" in err
    assert KINDS == ("sft", "window", "hierarchy", "diagram", "hall", "blockcode")


def test_cli_scenario_exit_codes(tmp_path):
    code, out, _ = run_cli(["scenario", "example2", "--h0", "3/2"])
    assert code == 0
    code, _, err = run_cli(["scenario", "example2"])  # missing h0
    assert code == 3
    for name in ("example1", "pickupsticks"):  # an h0 the scenario does not take
        assert run_cli(["scenario", name, "--h0", "3/2"]) == (
            3, "", f"error: scenario {name!r} takes no h0\n"
        )


def failing_e_window(tmp_path):
    """One constant row with a marker every third column: rule E fails."""
    return write(
        tmp_path, "w2.json", {"kind": "window", "version": 1, "rows": ["0" * 10], "markers": [[0, 3, 6, 9]]}
    )


def test_a_false_verdict_exits_2_after_the_full_report(tmp_path):
    argv = ["markers", "run", "--pass", "verify", "--spec", failing_e_window(tmp_path), "--rules", "E"]
    code, out, err = run_cli(argv)
    assert (code, err) == (2, "")
    body = json.loads(out)
    assert body["verdicts"] == {"E": False}
    assert body["result"]["window"]["markers"] == [[0, 3, 6, 9]]
    code, out, err = run_cli([*argv, "--format", "table"])
    assert (code, err) == (2, "")
    assert "check E: FAIL" in out.splitlines()


def test_the_exit_code_follows_the_verdicts(tmp_path):
    import random

    from symdyn.randgen import random_aperiodic_window

    w = random_aperiodic_window(random.Random(3), 120, 3, 3)
    window = write(tmp_path, "w.json", {"kind": "window", "version": 1, "rows": list(w.rows), "markers": [[]] * 3})
    feasible = write(tmp_path, "h1.json", {"kind": "hall", "version": 1, "strips": {"s1": ["ab", "cd"], "s2": ["ab"]}})
    infeasible = write(tmp_path, "h2.json", {"kind": "hall", "version": 1, "strips": {"s1": ["ab"], "s2": ["ab"]}})
    gm = gm_spec(tmp_path)
    cases = [
        (["markers", "run", "--pass", "pipeline", "--spec", window, "--rules", "D,E"], 0),
        (["extend", "generator", "--spec", gm, "--code", zero_code(tmp_path), "--depth", "4"], 0),
        (["extend", "hall", "--spec", feasible], 0),
        (["scenario", "example1"], 0),
        (["scenario", "example3", "--h0", "1/2"], 0),
        (["extend", "hall", "--spec", infeasible], 2),
        (["markers", "run", "--pass", "verify", "--spec", failing_e_window(tmp_path), "--rules", "E,D"], 2),
    ]
    for argv, expected in cases:
        code, out, err = run_cli(argv)
        assert (code, err) == (expected, ""), argv
        verdicts = json.loads(out)["verdicts"]
        assert verdicts and (False in verdicts.values()) == (expected == 2), argv
    body = json.loads(run_cli(["extend", "hall", "--spec", infeasible])[1])
    assert body["result"] == {"feasible": False, "violator": ["s1", "s2"], "neighborhood_size": 1}
    assert body["verdicts"] == {"matching": False}


@pytest.mark.parametrize(
    "argv",
    [[], ["per"], ["per", "--spec", "x.json"], ["extend", "nope"], ["scenario", "nope"], ["entropy", "--spec"]],
)
def test_usage_errors_exit_3(argv):
    code, out, err = run_outcome(argv)
    assert (code, out) == (3, "")
    assert err.startswith("usage: symdyn")
    assert "error: " in err.splitlines()[-1]


def test_unknown_pass_exits_3(tmp_path):
    argv = ["markers", "run", "--pass", "x", "--spec", failing_e_window(tmp_path)]
    assert run_cli(argv) == (3, "", "error: unknown pass 'x'\n")


def two_row_window(tmp_path):
    return write(tmp_path, "w22.json", {"kind": "window", "version": 1, "rows": ["0" * 10] * 2, "markers": [[], []]})


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--pass", "periodic", "--row", "0"], "row 0 out of range"),
        (["--pass", "periodic", "--row", "-1"], "row -1 out of range"),
        (["--pass", "periodic", "--row", "3"], "row 3 out of range"),
        (["--pass", "subdivide", "--schedule-m", "0_3"], "--schedule-m: expected m1,m2,..., not '0_3'"),
        (["--pass", "subdivide", "--schedule-m", " 3"], "--schedule-m: expected m1,m2,..., not ' 3'"),
        (["--pass", "subdivide", "--schedule-m", "+3,4"], "--schedule-m: expected m1,m2,..., not '+3,4'"),
        (["--pass", "verify", "--rules", "A", "--gap-bounds", "1,2"], "--gap-bounds: expected row,lo,hi, not '1,2'"),
        (["--pass", "verify", "--rules", "A", "--gap-bounds", "x,1,2"], "--gap-bounds: expected row,lo,hi, not 'x,1,2'"),
        (
            ["--pass", "verify", "--rules", "A", "--gap-bounds", "1,1,2;2,1,2,3"],
            "--gap-bounds: expected row,lo,hi, not '2,1,2,3'",
        ),
        # a row named twice is refused, not judged by its last triple
        (["--pass", "krieger", "-n", "2", "--rules", "A", "--gap-bounds", "1,2,5;1,3,4"], "--gap-bounds: row 1 given twice"),
        (["--pass", "verify", "--rules", "A", "--gap-bounds", "2,1,9;1,2,5;02,3,4"], "--gap-bounds: row 2 given twice"),
        # a rule flag that no requested rule reads is refused, not dropped
        (["--pass", "verify", "--gap-bounds", "1,2,5"], "--gap-bounds: read only by rule A, which --rules does not name"),
        (
            ["--pass", "verify", "--rules", "B,C-ratio", "--ratio", "1/2", "--gap-bounds", "1,2,5"],
            "--gap-bounds: read only by rule A, which --rules does not name",
        ),
        (["--pass", "verify", "--ratio", "1/2"], "--ratio: read only by rule C-ratio, which --rules does not name"),
        (
            ["--pass", "pipeline", "--rules", "A,D,E", "--gap-bounds", "1,1,9", "--ratio", "1/2"],
            "--ratio: read only by rule C-ratio, which --rules does not name",
        ),
        # a pass flag that the chosen pass does not read is refused, not dropped
        (["--pass", "verify", "--schedule-m", "3", "--row", "1", "-n", "7"], "-n: read only by pass krieger, not verify"),
        (["--pass", "adjust", "-n", "9"], "-n: read only by pass krieger, not adjust"),
        (["--pass", "periodic", "--row", "2", "-n", "5"], "-n: read only by pass krieger, not periodic"),
        (["--pass", "subdivide", "--row", "1"], "--row: read only by passes krieger and periodic, not subdivide"),
        (["--pass", "pipeline", "--row", "2", "--rules", "D"], "--row: read only by passes krieger and periodic, not pipeline"),
        (["--pass", "krieger", "--schedule-m", "3,4"], "--schedule-m: read only by pass subdivide, not krieger"),
        (["--pass", "verify", "--schedule-m", "3"], "--schedule-m: read only by pass subdivide, not verify"),
        # a subdivision base below 1 is refused as such, not reported as a gap with no split
        (["--pass", "subdivide", "--schedule-m", "0,0"], "m_k must be >= 1, got 0"),
        (["--pass", "subdivide", "--schedule-m", "3,0"], "m_k must be >= 1, got 0"),
    ],
)
def test_markers_flags_outside_their_range_exit_3(tmp_path, flags, message):
    argv = ["markers", "run", "--spec", two_row_window(tmp_path), *flags]
    assert run_cli(argv) == (3, "", f"error: {message}\n")


def test_markers_integer_flags_in_the_grammar(tmp_path):
    window = failing_e_window(tmp_path)  # row 1 has gaps of 3
    for bounds, passed in (("1,3,3", True), ("1,-1,03;2,9,9", True), ("1,4,9", False)):
        argv = ["markers", "run", "--pass", "verify", "--spec", window, "--rules", "A", "--gap-bounds", bounds]
        code, out, err = run_cli(argv)
        assert (code, err, json.loads(out)["verdicts"]) == (0 if passed else 2, "", {"A": passed}), bounds
    code, _, err = run_cli(["markers", "run", "--pass", "subdivide", "--spec", two_row_window(tmp_path), "--schedule-m", "3,04"])
    assert (code, err) == (0, "")


def test_markers_pass_flags_default_where_read(tmp_path):
    # -n and --row are read by the passes that take them, 5 and 1 when not given
    thue_morse = "".join(str(bin(i).count("1") % 2) for i in range(41))  # no long periodic stretch
    rows = [thue_morse[:40], thue_morse[1:]]
    window = write(tmp_path, "wide.json", {"kind": "window", "version": 1, "rows": rows, "markers": [[], []]})
    for name, given in (("krieger", ["-n", "5", "--row", "1"]), ("periodic", ["--row", "1"])):
        argv = ["markers", "run", "--pass", name, "--spec", window]
        bare, explicit = run_cli(argv), run_cli(argv + given)
        assert bare == explicit and bare[0] == 0, name
    argv = ["markers", "run", "--pass", "krieger", "--spec", window]
    assert run_cli(argv + ["-n", "3"]) != run_cli(argv)
    assert run_cli(argv + ["--row", "2"]) != run_cli(argv)
    # the one-row window of the CI smoke step, with no pass flag
    w2 = write(tmp_path, "w2.json", {"kind": "window", "version": 1, "rows": ["0" * 10], "markers": [[0, 3, 6, 9]]})
    assert run_cli(["markers", "run", "--pass", "verify", "--spec", w2])[0] == 0


def test_markers_rule_flags_read_by_their_rules(tmp_path):
    window = failing_e_window(tmp_path)  # row 1 has gaps of 3
    for ratio, passed in (("1", True), ("1/2", True), ("3/2", False)):
        argv = ["markers", "run", "--pass", "verify", "--spec", window]
        argv += ["--rules", "C-ratio,A", "--ratio", ratio, "--gap-bounds", "1,3,3"]
        code, out, err = run_cli(argv)
        assert (code, err, json.loads(out)["verdicts"]) == (0 if passed else 2, "", {"C-ratio": passed, "A": True}), ratio


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (["markers", "run", "--pass", "krieger"], "-n", " 0_2"),
        (["markers", "run", "--pass", "krieger"], "--row", "+1"),
        (["markers", "run", "--pass", "periodic"], "--row", "1.0"),
        (["per", "-n", "3"], "--cap", "2_0"),
        (["per"], "-n", " 0_3"),
        (["capacities", "-n", "3"], "--window", " 3"),
        (["capacities"], "-n", "3\n"),
        (["extend", "generator", "--code", "c.json"], "--depth", "\u0664"),
        (["extend", "generator", "--code", "c.json"], "--center", "0x0"),
    ],
)
def test_integer_flags_outside_the_grammar_exit_3(tmp_path, command, flag, value):
    # argparse refuses the value: no command runs, and no traceback escapes
    prog = " ".join(command[:2] if command[0] in ("markers", "extend") else command[:1])
    code, out, err = run_outcome([*command, "--spec", failing_e_window(tmp_path), flag, value])
    assert (code, out) == (3, "")
    assert err.splitlines()[-1] == f"symdyn {prog}: error: argument {flag}: expected an integer, not {value!r}"


def test_integer_flags_in_the_grammar(tmp_path):
    gm = gm_spec(tmp_path)
    assert run_cli(["per", "--spec", gm, "-n", "03", "--cap", "010"]) == run_cli(["per", "--spec", gm, "-n", "3"])
    assert run_cli(["capacities", "--spec", gm, "-n", "6", "--window", "04"])[0] == 0
    argv = ["markers", "run", "--pass", "krieger", "--spec", failing_e_window(tmp_path)]
    assert run_cli([*argv, "-n", "02", "--row", "01"]) == run_cli([*argv, "-n", "2"])


@pytest.mark.parametrize("n", ["0", "-1"])
def test_krieger_refuses_n_below_1_at_once(tmp_path, n):
    # in a fresh process with a timeout: a placement loop that never
    # advances would hang the suite rather than fail it
    argv = ["markers", "run", "--pass", "krieger", "-n", n, "--spec", failing_e_window(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "symdyn.cli", *argv], capture_output=True, text=True, cwd=ROOT, timeout=20
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"error: marker parameter n={n} must be at least 1\n")


def test_cap_defaults_to_the_period_cap():
    parser = build_parser()
    for command in ("per", "capacities"):
        assert parser.parse_args([command, "--spec", "x.json", "-n", "3"]).cap == DEFAULT_PERIOD_CAP


@pytest.mark.parametrize(
    "text", [" 1_0 ", "1_0", "1e3", "+.5", ".5", "1.", "1/", "-", "inf", "nan", "0x10", "1 / 2", "\u0663", "3/2\n"]
)
def test_spec_rationals_outside_the_grammar_exit_3(tmp_path, text):
    assert analyze_one_node(tmp_path, text) == (3, "", f"error: h.a: not an exact rational: {text!r}\n")


@pytest.mark.parametrize(
    "value, exact",
    [("3/2", "3/2"), ("-1", "-1"), ("0.25", "1/4"), ("007", "7"), ("-10/4", "-5/2"), ("-0.5", "-1/2"), (4, "4")],
)
def test_rationals_in_the_grammar_are_read_exactly(value, exact):
    assert rational(value, "x") == Fraction(exact)


def test_rational_flags_are_read_by_the_spec_reader(tmp_path):
    gm = gm_spec(tmp_path)
    diagram = write(tmp_path, "d.json", with_h("0"))
    window = failing_e_window(tmp_path)
    cases = [
        (["entropy", "--spec", gm, "--tol", "1/0"], "--tol: not an exact rational: '1/0' (Fraction(1, 0))"),
        (["entropy", "--spec", gm, "--tol", "1e-3"], "--tol: not an exact rational: '1e-3'"),
        (["entropy", "--spec", gm, "--tol", "-1"], "tolerance must be >= 0, got -1"),
        (["dbar", "--spec", gm, "--mix-a", "0:1_0", "--mix-b", "0"], "--mix-a: not an exact rational: '1_0'"),
        (["dbar", "--spec", gm, "--mix-a", "0", "--mix-b", "01:+1"], "--mix-b: not an exact rational: '+1'"),
        (["diagram", "analyze", "--spec", diagram, "--p-sup", "2.5e0"], "--p-sup: not an exact rational: '2.5e0'"),
        (["scenario", "example2", "--h0", " 3/2"], "--h0: not an exact rational: ' 3/2'"),
        (
            ["markers", "run", "--pass", "verify", "--spec", window, "--rules", "C-ratio", "--ratio", "1/0"],
            "--ratio: not an exact rational: '1/0' (Fraction(1, 0))",
        ),
        (["capacities", "--spec", gm, "-n", "6", "--window", "0"], "tail window must be >= 1, got 0"),
        (["capacities", "--spec", gm, "-n", "6", "--window", "-3"], "tail window must be >= 1, got -3"),
    ]
    for argv, message in cases:
        assert run_cli(argv) == (3, "", f"error: {message}\n"), argv


def test_cli_generator_refuses_a_partial_radius_10_code_at_once(tmp_path):
    full = write(tmp_path, "full.json", {"kind": "sft", "version": 1, "alphabet": ["0", "1"], "forbidden": []})
    one = write(tmp_path, "one.json", {"kind": "blockcode", "version": 1, "radius": 10, "table": {"0" * 21: "a"}})
    start = time.perf_counter()
    got = run_cli(["extend", "generator", "--spec", full, "--code", one, "--depth", "10"])
    assert time.perf_counter() - start < 1.0
    # 2**21 - 1 windows are uncovered; the refusal names the first five
    first = [tuple(format(i, "021b")) for i in range(1, 6)]
    assert got == (3, "", f"error: code not total on the language; uncovered: {first}...\n")


def test_cli_input_error_paths(tmp_path):
    code, _, err = run_cli(["per", "--spec", str(tmp_path / "nope.json"), "-n", "2"])
    assert code == 3
    code, _, err = run_cli(["per", "--spec", gm_spec(tmp_path), "-n", "25"])
    assert code == 4  # period cap


@pytest.mark.parametrize(
    "command, text, key",
    [
        (
            ["per", "-n", "2"],
            '{"kind": "sft", "version": 1, "alphabet": ["0", "1"], "forbidden": ["11"], "forbidden": []}',
            "forbidden",
        ),
        (
            ["extend", "build"],
            '{"kind": "hierarchy", "version": 1, "alphabet_size": 2, "rectangles": '
            '[{"id": "B1", "level": 1, "word": "01001"}, {"id": "B2", "level": 1, "word": "11000"}], '
            '"oracle": {"1": {"B1": 2, "B2": 1}, "1": {"B1": 1, "B2": 1}}}',
            "1",
        ),
    ],
)
def test_a_key_written_twice_exits_3(tmp_path, command, text, key):
    path = tmp_path / "twice.json"
    path.write_text(text)
    with pytest.raises(SpecFileError, match=f"^{re.escape(str(path))}: repeats the key '{key}'$"):
        load_spec(str(path))
    code, out, err = run_cli(command + ["--spec", str(path)])
    assert (code, out, err) == (3, "", f"error: {path}: repeats the key '{key}'\n")


def test_cli_spec_path_not_a_file(tmp_path):
    code, _, err = run_cli(["per", "--spec", str(tmp_path), "-n", "3"])
    assert code == 3
    assert "file not readable" in err


def analyze_one_node(tmp_path, h):
    diag = {
        "kind": "diagram",
        "version": 1,
        "nodes": [{"id": "a", "kind": "periodic", "period": "1"}],
        "families": [],
        "h": {"a": h},
        "ptail": {"a": "0"},
    }
    return run_cli(["diagram", "analyze", "--spec", write(tmp_path, "one.json", diag)])


@pytest.mark.parametrize("h, p, q", [("2000/3", 2000, 3), ("301/2", 301, 2)])
def test_cli_diagram_analyze_huge_entropy(tmp_path, h, p, q):
    # 2**(2000/3) is past the float range; 2**(301/2) sits where a float
    # root is off by far more than a unit step
    code, out, _ = analyze_one_node(tmp_path, h)
    assert code == 0
    card = json.loads(out)["result"]["cardinality"]
    # cardinality == floor(2**(p/q)) + 1
    assert (card - 1) ** q <= 2**p < card**q


def test_cli_diagram_analyze_power_past_cap(tmp_path):
    # floor(2**(10**400)) has 10**400 bits: refused as a resource cap, not built
    code, _, err = analyze_one_node(tmp_path, "1" + "0" * 400)
    assert code == 4
    assert "bits" in err


def test_cli_diagram_analyze_root_of_huge_degree(tmp_path):
    # 2**(1/10**400) lies in (1, 2); its root must not step through 2**(10**400)
    code, out, _ = analyze_one_node(tmp_path, "1/1" + "0" * 400)
    assert code == 0
    assert json.loads(out)["result"]["cardinality"] == 2


def test_cli_determinism(tmp_path):
    args = ["per", "--spec", gm_spec(tmp_path), "-n", "4"]
    assert run_cli(args)[1] == run_cli(args)[1]


def markers_window(tmp_path):
    w = random_aperiodic_window(random.Random(3), 60, 2, 2)
    return write(tmp_path, "wm.json", {"kind": "window", "version": 1, "rows": list(w.rows), "markers": [[], []]})


TWO_LEVEL_HIERARCHY = hierarchy(TWO_LEVELS, oracle={"1": {"B1": 2, "B2": 1}, "2": {"R1": 1}})
NON_ASCII_HALL = {"kind": "hall", "version": 1, "strips": {"σ1": ["ab"], "é\t2": ["ab", "cd"]}}
# one invocation of each command
REPORT_COMMANDS = {
    "per": lambda t: ["per", "--spec", gm_spec(t), "-n", "6"],
    "capacities": lambda t: ["capacities", "--spec", gm_spec(t), "-n", "10"],
    "entropy": lambda t: ["entropy", "--spec", gm_spec(t), "--tol", "1/100"],
    "dbar": lambda t: ["dbar", "--spec", gm_spec(t), "--mix-a", "0:1/2,01:1/2", "--mix-b", "0:1"],
    "markers run": lambda t: ["markers", "run", "--pass", "pipeline", "--spec", markers_window(t), "--rules", "D,E"],
    "extend build": lambda t: ["extend", "build", "--spec", write(t, "h.json", TWO_LEVEL_HIERARCHY)],
    "extend selector": lambda t: [
        "extend", "selector", "--spec", write(t, "h.json", TWO_LEVEL_HIERARCHY), "--path", "B1,R1"
    ],
    "extend hall": lambda t: ["extend", "hall", "--spec", write(t, "hall.json", NON_ASCII_HALL)],
    "extend generator": lambda t: ["extend", "generator", "--spec", gm_spec(t), "--code", zero_code(t), "--depth", "4"],
    "diagram analyze": lambda t: ["diagram", "analyze", "--spec", write(t, "diag.json", DIAGRAM)],
    "scenario": lambda t: ["scenario", "example2", "--h0", "3/2"],
}


def test_report_commands_cover_the_parser():
    commands = set()
    for name, parser in _parsers(build_parser()):
        if not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions):
            commands.add(name)
    assert commands == set(REPORT_COMMANDS)


@pytest.mark.parametrize("command", sorted(REPORT_COMMANDS))
def test_json_report_is_json_dumps_sorted_with_indent_2(tmp_path, command):
    code, out, err = run_cli(REPORT_COMMANDS[command](tmp_path))
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def run_outcome(args):
    """(exit code, stdout, stderr) of main, an argparse exit included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cli_commands_in_one_process_match_fresh_processes(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to this width
    gm = gm_spec(tmp_path)
    commands = [
        ["per", "--spec", gm, "-n", "4"],
        ["per", "--spec", gm],  # -n missing: a usage error, exit 3
        ["capacities", "--spec", gm, "-n", "6", "--format", "table"],
        ["entropy", "--spec", gm, "--bogus"],
        ["extend", "generator", "--spec", gm, "--code", zero_code(tmp_path), "--depth", "3"],
        ["per", "--spec", gm, "-n", "4"],
    ]
    in_process = [run_outcome(args) for args in commands]
    assert [code for code, _, _ in in_process] == [0, 3, 0, 3, 0, 0]
    for args, got in zip(commands, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "symdyn.cli", *args], capture_output=True, text=True, cwd=ROOT
        )
        assert got == (proc.returncode, proc.stdout, proc.stderr)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "symdyn.cli", "scenario", "example1"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0


def test_cli_markers_subdivide(tmp_path):
    path = write(
        tmp_path,
        "w2.json",
        {
            "kind": "window",
            "version": 1,
            "rows": ["0" * 30],
            "markers": [[0, 13, 26]],
        },
    )
    code, out, _ = run_cli(
        [
            "markers",
            "run",
            "--pass",
            "subdivide",
            "--spec",
            path,
            "--schedule-m",
            "3",
        ]
    )
    assert code == 0
    body = json.loads(out)
    assert body["result"]["window"]["markers"][0] == [0, 3, 6, 9, 13, 16, 19, 22, 26]


def test_cli_diagram_analyze_with_capacity(tmp_path):
    diag = {
        "kind": "diagram",
        "version": 1,
        "nodes": [
            {"id": "top", "kind": "periodic", "period": "1"},
            {"id": "arm", "params": ["m"], "kind": "periodic"},
        ],
        "families": [{"member": "arm", "parameter": "m", "limit": "top"}],
        "h": {"top": "0", "arm": "0"},
        "ptail": {"top": "0", "arm": {"lo": "1", "tau": {"m": 1}, "hi": "0"}},
    }
    path = write(tmp_path, "d2.json", diag)
    code, out, _ = run_cli(["diagram", "analyze", "--spec", path, "--p-sup", "2"])
    assert code == 0
    body = json.loads(out)
    # sup h_emb = 1 bit, capacity 2 bits: cardinality floor(2^2) + 1
    assert body["result"]["sup_h_emb"]["exact"] == "1"
    assert body["result"]["cardinality"] == 5
    assert body["warnings"] if "warnings" in body else True


def test_cli_capacities_past_the_period_cap(tmp_path):
    code, out, err = run_cli(["capacities", "--spec", gm_spec(tmp_path), "-n", "21"])
    assert (code, out) == (4, "")
    assert err == "resource cap: period 21 exceeds cap 20\n"
    code, _, err = run_cli(["capacities", "--spec", gm_spec(tmp_path), "-n", "8", "--cap", "5"])
    assert (code, err) == (4, "resource cap: period 6 exceeds cap 5\n")


@pytest.mark.parametrize("command", ["per", "capacities"])
def test_a_negative_cap_is_bad_input(tmp_path, command):
    argv = [command, "--spec", gm_spec(tmp_path), "-n", "5"]
    code, out, err = run_cli(argv + ["--cap", "-1"])
    assert (code, out, err) == (3, "", "error: period cap must be >= 0, got -1\n")
    code, out, err = run_cli(argv + ["--cap", "0"])
    assert (code, out, err) == (4, "", "resource cap: period 1 exceeds cap 0\n")


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_cli_broken_pipe_exits_quietly(tmp_path):
    err = io.StringIO()
    with redirect_stdout(ClosedPipe()), redirect_stderr(err):
        code = main(["per", "--spec", gm_spec(tmp_path), "-n", "6"])
    assert (code, err.getvalue()) == (1, "")


def test_console_broken_pipe_exits_quietly(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-m", "symdyn.cli", "per", "--spec", gm_spec(tmp_path), "-n", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
    )
    proc.stdout.close()  # the reader is gone before the report is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


def test_an_empty_diagram_exits_3_with_a_named_message(tmp_path):
    empty = {"kind": "diagram", "version": 1, "nodes": [], "families": [], "h": {}, "ptail": {}}
    spec = write(tmp_path, "empty.json", empty)
    assert run_cli(["diagram", "analyze", "--spec", spec]) == (
        3,
        "",
        "error: diagram: a diagram needs at least one node class\n",
    )


# Timed runs, each under a budget no looser than the 20 s timeout they had
# as shell lines: a quadratic or exponential path fails the budget here.


def full_shift_spec(tmp_path, symbols):
    return write(tmp_path, f"full{len(symbols)}.json", {"kind": "sft", "version": 1, "alphabet": list(symbols), "forbidden": []})


def letter_code(tmp_path, symbols):
    table = {s: "abc"[i] for i, s in enumerate(symbols)}
    return write(tmp_path, f"c{len(symbols)}.json", {"kind": "blockcode", "version": 1, "radius": 0, "table": table})


@pytest.mark.parametrize("p, q", [(251, 241), (80000, 80001)])
def test_dbar_of_long_coprime_orbits_in_time(tmp_path, p, q):
    # coprime periods meet in every phase pair once, so the two one-defect
    # orbits agree on (p-1)(q-1) + 1 of their p*q aligned pairs; the 80,000-
    # symbol orbits also need their least rotations in linear time
    a, b = "0" * (p - 1) + "1", "0" * (q - 1) + "1"
    with Budget(f"dbar of coprime periods {p} and {q}", 20.0):
        code, out, err = run_cli(["dbar", "--spec", full_shift_spec(tmp_path, "01"), "--a", a, "--b", b])
    assert code == 0, err
    assert Fraction(json.loads(out)["result"]["distance"]["exact"]) == Fraction(p * q - (p - 1) * (q - 1) - 1, p * q)


def test_per_to_period_14_on_the_ternary_spec_in_time(tmp_path):
    # one walk names every orbit of period <= 14; the points of period
    # dividing n are the trace of the n-th power of the transfer matrix
    spec = write(tmp_path, "tern.json", {"kind": "sft", "version": 1, "alphabet": ["0", "1", "2"], "forbidden": ["00"]})
    with Budget("per -n 14 on the ternary 00-free spec", 20.0):
        code, out, err = run_cli(["per", "-n", "14", "--spec", spec])
    assert code == 0, err
    counts = {int(n): c for n, c in json.loads(out)["result"]["counts"].items()}
    A = [[0, 1, 1], [1, 1, 1], [1, 1, 1]]
    power = A
    for n in range(1, 15):
        assert sum(counts[d] for d in range(1, n + 1) if n % d == 0) == sum(power[i][i] for i in range(3))
        power = [[sum(power[i][k] * A[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


@pytest.mark.parametrize("symbols, depth", [("012", 12), ("01", 2000)])
def test_generator_on_a_full_shift_in_time(tmp_path, symbols, depth):
    # the identity-like code names every word, so every multiplicity is 1;
    # the tables step state sets, not the 3**25 words of depth 12
    argv = ["extend", "generator", "--spec", full_shift_spec(tmp_path, symbols), "--code", letter_code(tmp_path, symbols)]
    with Budget(f"extend generator on the full {len(symbols)}-shift at depth {depth}", 20.0):
        code, out, err = run_cli([*argv, "--depth", str(depth)])
    assert code == 0, err
    assert list(json.loads(out)["result"]["multiplicities"].values()) == [1] * (depth + 1)


def test_generator_set_cap_refuses_depth_ten_million_in_time(tmp_path):
    # past level 1 each level holds one forward set and one backward set and
    # combines one pair: the default cap of a million passes at level 333331
    argv = ["extend", "generator", "--spec", full_shift_spec(tmp_path, "01"), "--code", letter_code(tmp_path, "01")]
    with Budget("extend generator refused at depth 10**7", 10.0):
        code, out, err = run_cli([*argv, "--depth", "10000000"])
    assert (code, out) == (4, "")
    assert err == "resource cap: more than 1000000 reachable sets stepped by level 333331\n"
