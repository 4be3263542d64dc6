import argparse
import io
import json
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from symdyn.cli import build_parser, main
from symdyn.errors import SpecFileError
from symdyn.specfiles import KINDS, load_spec, window_to_json

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


def test_cli_diagram_analyze(tmp_path):
    diag = {
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
    path = write(tmp_path, "diag.json", diag)
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
        "rectangles": rectangles or rects,
        "oracle": {"1": {"B1": 2, "B2": 1}},
        **extra,
    }


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
    ],
)
def test_spec_errors_name_the_field_path(tmp_path, payload, message):
    with pytest.raises(SpecFileError, match=f"^{re.escape(message)}$"):
        load_spec(write(tmp_path, "spec.json", payload))


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


def test_cli_input_error_paths(tmp_path):
    code, _, err = run_cli(["per", "--spec", str(tmp_path / "nope.json"), "-n", "2"])
    assert code == 3
    code, _, err = run_cli(["per", "--spec", gm_spec(tmp_path), "-n", "25"])
    assert code == 4  # period cap


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
        ["per", "--spec", gm],  # -n missing: argparse exits 2
        ["capacities", "--spec", gm, "-n", "6", "--format", "table"],
        ["entropy", "--spec", gm, "--bogus"],
        ["extend", "generator", "--spec", gm, "--code", zero_code(tmp_path), "--depth", "3"],
        ["per", "--spec", gm, "-n", "4"],
    ]
    in_process = [run_outcome(args) for args in commands]
    assert [code for code, _, _ in in_process] == [0, 2, 0, 2, 0, 0]
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
