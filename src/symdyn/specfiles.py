"""Loading and validation of JSON spec files.

Every file carries "kind" and "version"; unknown fields are rejected with
the offending field path.  Exact rationals travel as "p/q" strings.

Each field has one reader, a function of (value, path) that checks the
value's JSON type and returns it converted, or raises SpecFileError naming
the field as `field`, `field[i]` (a list item) or `field.key` (an object
member).  Errors the constructors find once every field is read concern the
spec as a whole and carry its kind as their path.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from .diagram import FamilyLink, Lin, MeasureDiagram, Node, SeqSpec, lin, seq_on
from .entropy import EntropyValue
from .errors import ArgumentError, SpecFileError
from .extension import OracleTable, Rectangle, RectangleHierarchy
from .generator import BlockCode, block_code
from .markers import ArrayWindow, LongGapFlag, window_from_rows
from .sft import Alphabet, SftSpec, validate as validate_sft

SUPPORTED_VERSION = 1
_DIGITS = "0123456789"
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+|\.[0-9]+)?")
_INTEGER = re.compile(r"-?[0-9]+")


def _member(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _fields(obj, path: str, required: dict, optional: dict) -> dict:
    """The fields of an object, each read by its reader in `required` or
    `optional`; a missing required field or an unknown field is refused."""
    if not isinstance(obj, dict):
        raise SpecFileError(f"must be an object, not {obj!r}", path)
    for k in obj:
        if k not in required and k not in optional:
            raise SpecFileError("unknown field", _member(path, k))
    for k in required:
        if k not in obj:
            raise SpecFileError("missing field", _member(path, k))
    readers = {**required, **optional}
    return {k: readers[k](v, _member(path, k)) for k, v in obj.items()}


def _int(value, path: str) -> int:
    """An integer; a bool, a float or a string is refused, not cast."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecFileError(f"must be an integer, not {value!r}", path)
    return value


def _int_min(least: int):
    """An integer reader that also refuses values below `least`."""

    def read(value, path: str) -> int:
        if _int(value, path) < least:
            raise SpecFileError(f"must be at least {least}, not {value}", path)
        return value

    return read


def _str(value, path: str) -> str:
    if not isinstance(value, str):
        raise SpecFileError(f"must be a string, not {value!r}", path)
    return value


def _word(value, path: str) -> tuple:
    """A forbidden word: a string of symbols or a list of symbol strings."""
    if isinstance(value, str):
        return tuple(value)
    if isinstance(value, list) and all(isinstance(s, str) for s in value):
        return tuple(value)
    raise SpecFileError(f"must be a string or a list of strings, not {value!r}", path)


def _digits(value, path: str) -> tuple:
    """A rectangle word: a string of decimal digits, one symbol each."""
    if _str(value, path).strip(_DIGITS):
        raise SpecFileError(f"must be a string of decimal digits, not {value!r}", path)
    return tuple(map(int, value))  # only ASCII digits get here


def _level(key: str, path: str) -> int:
    """An oracle level: an object key spelling a decimal integer."""
    if not key or key.strip(_DIGITS):
        raise SpecFileError("oracle levels must be integers", path)
    return int(key)  # only ASCII digits get here


def rational(value, path: str) -> Fraction:
    """An exact rational: an integer, or a string "n", "n/d" or "n.d" of
    ASCII digits with an optional leading "-".  Command-line flags are read
    here too, with the flag as the path."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SpecFileError(f"not an exact rational: {value!r}", path)
    if isinstance(value, str) and not _RATIONAL.fullmatch(value):
        raise SpecFileError(f"not an exact rational: {value!r}", path)
    try:
        return Fraction(value)
    except ZeroDivisionError as exc:  # the grammar lets only "n/0" through
        raise SpecFileError(f"not an exact rational: {value!r} ({exc})", path)


def integers(text: str, path: str, form: str, count: int | None = None) -> tuple:
    """Comma-separated integers, each "n" of ASCII digits with an optional
    leading "-" and nothing else; `count` fixes how many.  Command-line
    flags are read here, with the flag as the path and `form` the expected
    shape, e.g. "row,lo,hi"."""
    parts = text.split(",")
    if (count is not None and len(parts) != count) or not all(map(_INTEGER.fullmatch, parts)):
        raise SpecFileError(f"expected {form}, not {text!r}", path)
    return tuple(map(int, parts))


def _list(read, what: str = "a list"):
    """A list reader: item i read by `read` at `path[i]`."""

    def read_list(value, path: str) -> list:
        if not isinstance(value, list):
            raise SpecFileError(f"must be {what}, not {value!r}", path)
        return [read(v, f"{path}[{i}]") for i, v in enumerate(value)]

    return read_list


def _dict(read, key=_str):
    """An object reader: each member's key read by `key`, then its value by
    `read`, both at `path.key`."""

    def read_dict(value, path: str) -> dict:
        if not isinstance(value, dict):
            raise SpecFileError(f"must be an object, not {value!r}", path)
        out = {}
        for k, v in value.items():
            at = _member(path, k)
            k = key(k, at)
            if k in out:  # two spellings of one key, such as oracle levels "1" and "01"
                raise SpecFileError(f"repeats the key {k!r}", at)
            out[k] = read(v, at)
        return out

    return read_dict


def load_spec(path: str) -> dict:
    """Parse, check kind and version, and validate the payload: the kind
    and the parsed payload, keyed "kind" and "payload"."""

    def members(pairs) -> dict:  # a key written twice is refused, not overwritten
        out = {}
        for k, v in pairs:
            if k in out:
                raise SpecFileError(f"repeats the key {k!r}", path)
            out[k] = v
        return out

    try:
        raw = json.loads(Path(path).read_text(), object_pairs_hook=members)
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
    try:
        parsed = _PARSERS[kind](payload)
    except SpecFileError:
        raise
    except ArgumentError as exc:  # a constructor's check of the whole spec
        raise SpecFileError(str(exc), kind)
    return {"kind": kind, "payload": parsed}


def _row(value, path: str) -> Alphabet:
    if not (symbols := _list(_str)(value, path)):
        raise SpecFileError("each row needs a symbol list", path)
    return Alphabet(tuple(symbols))


def _parse_sft(obj: dict) -> SftSpec:
    optional = {"alphabet": _list(_str), "forbidden": _list(_word), "rows": _list(_row)}
    f = _fields(obj, "", {}, optional)
    words = f.get("forbidden", [])
    if "rows" not in f:
        if "alphabet" not in f:
            raise SpecFileError("missing field", "alphabet")
        spec = SftSpec(Alphabet(tuple(f["alphabet"])), frozenset(words))
    elif "alphabet" in f:
        raise SpecFileError("alphabet is derived from rows; give only one", "sft")
    else:
        rows = tuple(f["rows"])
        for i, w in enumerate(words):
            for j, sym in enumerate(w):
                if len(sym) != len(rows):
                    raise SpecFileError(
                        "product symbol needs one character per row", f"forbidden[{i}][{j}]"
                    )
        symbols = tuple(itertools.product(*[a.symbols for a in rows]))
        forbidden = frozenset(tuple(map(tuple, w)) for w in words)
        spec = SftSpec(Alphabet(symbols), forbidden, rows)
    validate_sft(spec)
    return spec


def _flag(value, path: str) -> LongGapFlag:
    fields = {"row": _int, "lo": _int, "hi": _int, "period": _int_min(1)}
    return LongGapFlag(**_fields(value, path, fields, {}))


def _parse_window(obj: dict) -> ArrayWindow:
    required = {"rows": _list(_str), "markers": _list(_list(_int, "a list of columns"))}
    f = _fields(obj, "", required, {"boundary": _str, "flags": _list(_flag)})
    w = window_from_rows(f["rows"], f["markers"], f.get("boundary", "open"))
    return replace(w, flags=tuple(f.get("flags", ())))


def window_to_json(w: ArrayWindow, doubled: bool = False) -> dict:
    """Serialize a window; doubled renders marked cells as 'a|'."""
    if doubled:
        rows = []
        for row, marks in zip(w.rows, w.markers):  # ArrayWindow keeps marks in range
            cells = list(row)
            for i in marks:
                cells[i] += "|"
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


def _rectangle(value, path: str) -> Rectangle:
    optional = {"word": _digits, "children": _list(_str), "bottom": _digits}
    r = _fields(value, path, {"id": _str, "level": _int}, optional)
    children = tuple(r.get("children", ()))
    return Rectangle(r["id"], r["level"], r.get("word"), children, r.get("bottom"))


def _parse_hierarchy(obj: dict):
    required = {
        "alphabet_size": _int,
        "rectangles": _list(_rectangle),
        "oracle": _dict(_dict(_int_min(1)), key=_level),
    }
    f = _fields(obj, "", required, {})
    s = f["alphabet_size"]
    hierarchy = RectangleHierarchy(s, tuple(f["rectangles"]))
    levels = {r.rect_id: r.level for r in hierarchy.rects}
    budgets = {}  # keyed by id alone: each id is checked to name a rectangle of its level
    for lv, entries in f["oracle"].items():
        for rid, b in entries.items():
            if rid not in levels:
                raise SpecFileError(f"no rectangle {rid!r}", f"oracle.{lv}.{rid}")
            if levels[rid] != lv:
                raise SpecFileError(f"rectangle {rid!r} is at level {levels[rid]}", f"oracle.{lv}.{rid}")
            budgets[rid] = b
    for rid, lv in levels.items():
        if rid not in budgets:
            raise SpecFileError("missing field", f"oracle.{lv}.{rid}")
    return {"hierarchy": hierarchy, "oracle": OracleTable(budgets), "s": s}


def _lin(value, path: str) -> Lin:
    """A threshold: an integer constant, or an object of integer
    coefficients keyed by parameter name, with "const" the constant."""
    if isinstance(value, dict):
        coeffs = _dict(_int)(value, path)
        return lin(coeffs.pop("const", 0), **coeffs)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecFileError("threshold must be an integer or an object", path)
    return lin(value)


def _seq(value, path: str) -> SeqSpec:
    """A sequence spec: one exact rational, or lo, hi and a threshold tau."""
    if not isinstance(value, dict):
        v = rational(value, path)
        return SeqSpec(v, lin(0), v)
    s = _fields(value, path, {"lo": rational, "hi": rational}, {"tau": _lin})
    return SeqSpec(s["lo"], s.get("tau", lin(0)), s["hi"])


def _node(value, path: str) -> Node:
    optional = {
        "params": _list(_str),
        "kind": _str,
        "period": _str,
        "param_mins": _list(_int_min(1)),
    }
    n = _fields(value, path, {"id": _str}, optional)
    params, mins = tuple(n.get("params", ())), tuple(n.get("param_mins", ()))
    return Node(n["id"], params, n.get("kind", "periodic"), n.get("period"), mins)


def _family(value, path: str) -> FamilyLink:
    fields = {"member": _str, "parameter": _str, "limit": _str}
    return FamilyLink(**_fields(value, path, fields, {}))


def _parse_diagram(obj: dict):
    required = {
        "nodes": _list(_node),
        "families": _list(_family),
        "h": _dict(_seq),
        "ptail": _dict(_seq),
    }
    f = _fields(obj, "", required, {"p_sup": rational})
    ids = {n.node_id for n in f["nodes"]}
    for field in ("h", "ptail"):
        for nid in f[field]:
            if nid not in ids:
                raise SpecFileError(f"no node {nid!r}", f"{field}.{nid}")
    p_sup = EntropyValue(f["p_sup"]) if "p_sup" in f else None
    diagram = MeasureDiagram(tuple(f["nodes"]), tuple(f["families"]), p_sup)
    hseq = seq_on(diagram, f["h"], "nondecreasing")
    perseq = seq_on(diagram, f["ptail"], "nonincreasing")
    return {"diagram": diagram, "h": hseq, "ptail": perseq}


def _parse_hall(obj: dict):
    f = _fields(obj, "", {"strips": _dict(_list(_str))}, {})
    return {strip: set(map(tuple, words)) for strip, words in f["strips"].items()}


def _parse_blockcode(obj: dict) -> BlockCode:
    f = _fields(obj, "", {"radius": _int_min(0), "table": _dict(_str)}, {})
    return block_code(f["radius"], {tuple(k): v for k, v in f["table"].items()})


_PARSERS = {
    "sft": _parse_sft,
    "window": _parse_window,
    "hierarchy": _parse_hierarchy,
    "diagram": _parse_diagram,
    "hall": _parse_hall,
    "blockcode": _parse_blockcode,
}
KINDS = tuple(_PARSERS)
