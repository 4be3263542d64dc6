"""Loading and validation of JSON spec files.

Every file carries "kind" and "version"; unknown fields are rejected with
the offending field path.  Exact rationals travel as "p/q" strings.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .diagram import (
    FamilyLink,
    Lin,
    MeasureDiagram,
    Node,
    SeqSpec,
    lin,
    seq_on,
)
from .entropy import EntropyValue
from .errors import SpecFileError
from .extension import Rectangle, RectangleHierarchy, oracle_from_dict
from .generator import BlockCode, block_code
from .markers import ArrayWindow, LongGapFlag, window_from_rows
from .sft import Alphabet, SftSpec, validate as validate_sft

SUPPORTED_VERSION = 1


def _expect_fields(obj: dict, required: dict, optional: dict, path: str):
    for k in obj:
        if k not in required and k not in optional:
            raise SpecFileError(f"unknown field {k!r}", path)
    for k, typ in required.items():
        if k not in obj:
            raise SpecFileError(f"missing field {k!r}", path)
        if typ is not None and not isinstance(obj[k], typ):
            raise SpecFileError(f"field {k!r} must be {typ.__name__}", path)
    for k, typ in optional.items():
        if k in obj and typ is not None and not isinstance(obj[k], typ):
            raise SpecFileError(f"field {k!r} must be {typ.__name__}", path)


def _int(value, path: str) -> int:
    """An integer field; a bool, a float or a string is refused, not cast."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecFileError(f"must be an integer, not {value!r}", path)
    return value


def _word(value, path: str) -> tuple:
    """A forbidden word: a string of symbols or a list of symbol strings."""
    if isinstance(value, str):
        return tuple(value)
    if isinstance(value, list) and all(isinstance(s, str) for s in value):
        return tuple(value)
    raise SpecFileError(f"must be a string or a list of strings, not {value!r}", path)


def _fraction(text, path: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFileError(f"not an exact rational: {text!r} ({exc})", path)


def load_spec(path: str) -> dict:
    """Parse, check kind and version, and validate the payload."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError:
        raise SpecFileError("file not readable", path)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"invalid JSON: {exc}", path)
    if not isinstance(raw, dict):
        raise SpecFileError("top level must be an object", path)
    kind = raw.get("kind")
    if kind not in KINDS:
        raise SpecFileError(f"unknown kind {kind!r}; expected one of {KINDS}", "kind")
    version = raw.get("version")
    if version != SUPPORTED_VERSION:
        raise SpecFileError(
            f"unsupported version {version!r}; this build reads version {SUPPORTED_VERSION}",
            "version",
        )
    payload = {k: v for k, v in raw.items() if k not in ("kind", "version")}
    parsed = _PARSERS[kind](payload)
    return {"kind": kind, "version": version, "payload": parsed, "raw": raw}


def _parse_sft(obj: dict) -> SftSpec:
    _expect_fields(
        obj, {}, {"alphabet": list, "forbidden": list, "rows": list}, "sft"
    )
    rows = obj.get("rows")
    if rows is not None:
        if "alphabet" in obj:
            raise SpecFileError("alphabet is derived from rows; give only one", "sft")
        row_alphabets = []
        for i, syms in enumerate(rows):
            if not isinstance(syms, list) or not syms:
                raise SpecFileError("each row needs a symbol list", f"rows[{i}]")
            row_alphabets.append(Alphabet(tuple(str(s) for s in syms)))
        import itertools

        symbols = tuple(itertools.product(*[a.symbols for a in row_alphabets]))
        forbidden = set()
        for i, w in enumerate(obj.get("forbidden", [])):
            word = []
            for j, sym in enumerate(_word(w, f"forbidden[{i}]")):
                if len(sym) != len(rows):
                    raise SpecFileError(
                        "product symbol needs one character per row",
                        f"forbidden[{i}][{j}]",
                    )
                word.append(tuple(sym))
            forbidden.add(tuple(word))
        spec = SftSpec(Alphabet(symbols), frozenset(forbidden), tuple(row_alphabets))
    else:
        if "alphabet" not in obj:
            raise SpecFileError("missing field 'alphabet'", "sft")
        alphabet = Alphabet(tuple(str(s) for s in obj["alphabet"]))
        forbidden = frozenset(
            _word(w, f"forbidden[{i}]") for i, w in enumerate(obj.get("forbidden", []))
        )
        spec = SftSpec(alphabet, forbidden)
    try:
        validate_sft(spec)
    except Exception as exc:
        raise SpecFileError(str(exc), "sft")
    return spec


def _parse_window(obj: dict) -> ArrayWindow:
    _expect_fields(
        obj,
        {"rows": list, "markers": list},
        {"boundary": str, "flags": list},
        "window",
    )
    markers = []
    for i, m in enumerate(obj["markers"]):
        if not isinstance(m, list):
            raise SpecFileError(f"must be a list of columns, not {m!r}", f"markers[{i}]")
        markers.append([_int(c, f"markers[{i}][{j}]") for j, c in enumerate(m)])
    w = window_from_rows(
        [str(r) for r in obj["rows"]],
        markers,
        obj.get("boundary", "open"),
    )
    flags = []
    for i, f in enumerate(obj.get("flags", [])):
        _expect_fields(
            f,
            {"row": int, "lo": int, "hi": int, "period": int},
            {},
            f"flags[{i}]",
        )
        if f["period"] < 1:
            raise SpecFileError("period must be positive", f"flags[{i}].period")
        flags.append(LongGapFlag(f["row"], f["lo"], f["hi"], f["period"]))
    if flags:
        from dataclasses import replace

        w = replace(w, flags=tuple(flags))
    return w


def window_to_json(w: ArrayWindow, doubled: bool = False) -> dict:
    """Serialize a window; doubled renders marked cells as 'a|'."""
    if doubled:
        rows = []
        for k, row in enumerate(w.rows, start=1):
            cells = [
                c + ("|" if i in w.markers[k - 1] else "") for i, c in enumerate(row)
            ]
            rows.append("".join(cells))
        return {"rows_doubled": rows, "boundary": w.boundary}
    return {
        "kind": "window",
        "version": 1,
        "rows": list(w.rows),
        "markers": [list(m) for m in w.markers],
        "boundary": w.boundary,
        "flags": [
            {"row": f.row, "lo": f.lo, "hi": f.hi, "period": f.period} for f in w.flags
        ],
    }


def _parse_hierarchy(obj: dict):
    _expect_fields(
        obj,
        {"alphabet_size": int, "rectangles": list, "oracle": dict},
        {},
        "hierarchy",
    )
    s = obj["alphabet_size"]
    rects = []
    for i, r in enumerate(obj["rectangles"]):
        _expect_fields(
            r,
            {"id": str, "level": int},
            {"word": str, "children": list, "bottom": str},
            f"rectangles[{i}]",
        )
        word = tuple(int(c) for c in r["word"]) if "word" in r else None
        bottom = tuple(int(c) for c in r["bottom"]) if "bottom" in r else None
        rects.append(
            Rectangle(r["id"], r["level"], word, tuple(r.get("children", ())), bottom)
        )
    hierarchy = RectangleHierarchy(s, tuple(rects))
    oracle = {}
    for lv, entries in obj["oracle"].items():
        try:
            level = int(lv)
        except ValueError:
            raise SpecFileError("oracle levels must be integers", f"oracle.{lv}")
        if not isinstance(entries, dict):
            raise SpecFileError("oracle entries must map ids to budgets", f"oracle.{lv}")
        for rid, b in entries.items():
            if not isinstance(b, int) or b < 1:
                raise SpecFileError("budgets must be positive integers", f"oracle.{lv}.{rid}")
        oracle[level] = {rid: b for rid, b in entries.items()}
    return {"hierarchy": hierarchy, "oracle": oracle_from_dict(oracle), "s": s}


def _parse_lin(obj, path: str) -> Lin:
    if isinstance(obj, int) and not isinstance(obj, bool):
        return lin(obj)
    if not isinstance(obj, dict):
        raise SpecFileError("threshold must be an integer or an object", path)
    const = 0
    coeffs = {}
    for k, v in obj.items():
        if k == "const":
            const = _int(v, f"{path}.const")
        else:
            coeffs[k] = _int(v, f"{path}.{k}")
    return lin(const, **coeffs)


def _parse_seq(obj, path: str) -> SeqSpec:
    if isinstance(obj, (str, int)):
        v = _fraction(obj, path)
        return SeqSpec(v, lin(0), v)
    _expect_fields(obj, {"lo": None, "hi": None}, {"tau": None}, path)
    lo = _fraction(obj["lo"], f"{path}.lo")
    hi = _fraction(obj["hi"], f"{path}.hi")
    tau = _parse_lin(obj.get("tau", 0), f"{path}.tau")
    return SeqSpec(lo, tau, hi)


def _parse_diagram(obj: dict):
    _expect_fields(
        obj,
        {"nodes": list, "families": list, "h": dict, "ptail": dict},
        {"p_sup": None},
        "diagram",
    )
    nodes = []
    for i, n in enumerate(obj["nodes"]):
        _expect_fields(
            n,
            {"id": str},
            {"params": list, "kind": str, "period": str, "param_mins": list},
            f"nodes[{i}]",
        )
        mins = tuple(
            _int(x, f"nodes[{i}].param_mins[{j}]")
            for j, x in enumerate(n.get("param_mins", ()))
        )
        if any(m < 1 for m in mins):
            raise SpecFileError("parameter minimums must be positive", f"nodes[{i}].param_mins")
        nodes.append(
            Node(
                n["id"],
                tuple(n.get("params", ())),
                n.get("kind", "periodic"),
                n.get("period"),
                mins,
            )
        )
    families = []
    for i, f in enumerate(obj["families"]):
        _expect_fields(
            f, {"member": str, "parameter": str, "limit": str}, {}, f"families[{i}]"
        )
        families.append(FamilyLink(f["member"], f["parameter"], f["limit"]))
    p_sup = None
    if obj.get("p_sup") is not None:
        p_sup = EntropyValue(_fraction(obj["p_sup"], "diagram.p_sup"))
    try:
        diagram = MeasureDiagram(tuple(nodes), tuple(families), p_sup)
        hseq = seq_on(diagram, _parse_seqs(obj, "h", nodes), "nondecreasing")
        perseq = seq_on(diagram, _parse_seqs(obj, "ptail", nodes), "nonincreasing")
    except SpecFileError:
        raise
    except Exception as exc:
        raise SpecFileError(str(exc), "diagram")
    return {"diagram": diagram, "h": hseq, "ptail": perseq}


def _parse_seqs(obj: dict, field: str, nodes: list) -> dict:
    """The sequence specs of one field, keyed by node id; a key that names
    no node is an unknown field."""
    ids = {n.node_id for n in nodes}
    specs = {}
    for nid, s in obj[field].items():
        if nid not in ids:
            raise SpecFileError(f"no node {nid!r}", f"{field}.{nid}")
        specs[nid] = _parse_seq(s, f"{field}.{nid}")
    return specs


def _parse_hall(obj: dict):
    _expect_fields(obj, {"strips": dict}, {}, "hall")
    mapping = {}
    for strip, words in obj["strips"].items():
        if not isinstance(words, list):
            raise SpecFileError("each strip needs a word list", f"strips.{strip}")
        mapping[str(strip)] = {tuple(str(w)) for w in words}
    return mapping


def _parse_blockcode(obj: dict) -> BlockCode:
    _expect_fields(obj, {"radius": int, "table": dict}, {}, "blockcode")
    if obj["radius"] < 0:
        raise SpecFileError("radius must be nonnegative", "blockcode.radius")
    table = {tuple(str(k)): str(v) for k, v in obj["table"].items()}
    return block_code(obj["radius"], table)


_PARSERS = {
    "sft": _parse_sft,
    "window": _parse_window,
    "hierarchy": _parse_hierarchy,
    "diagram": _parse_diagram,
    "hall": _parse_hall,
    "blockcode": _parse_blockcode,
}
KINDS = tuple(_PARSERS)
