"""Deterministic result reports: stable JSON and a plain table rendering."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .diagram import INF
from .entropy import EntropyBracket, EntropyValue

_INF = float("inf")


def _float(x: float) -> str:
    """json's text for a float: its repr, or NaN and the two infinities."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# json's text for each exact scalar type; a subclass takes the isinstance
# chain in `_dump`
_WRITE = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda x: "null",
}


def jsonable(x):
    """Exact values rendered as p/q strings plus a float approximation."""
    if type(x) in _WRITE:  # an exact scalar stays as it is
        return x
    if isinstance(x, Fraction):
        return {"exact": str(x), "approx": float(x)}
    if isinstance(x, EntropyValue):
        return {"exact": x.render(), "approx": x.approx()}
    if x is INF:
        return {"exact": "inf", "approx": None}
    if isinstance(x, EntropyBracket):
        return {
            "lo": jsonable(x.lo),
            "hi": jsonable(x.hi),
            "tolerance_met": x.tolerance_met,
        }
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [v if type(v) in _WRITE else jsonable(v) for v in x]
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    if hasattr(x, "render"):
        return x.render()
    return str(x)


def _dump(x, indent: str = "\n") -> str:
    """`json.dumps(x, sort_keys=True, indent=2)` for every value `jsonable`
    returns, built by joins rather than the pure-Python generators that
    json runs whenever an indent is given.  The type tests keep json's
    isinstance order, so subclasses of str, int and float print as json
    prints them; `indent` is the newline and indent of x's own line."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _float(x)
    inner = indent + "  "
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        try:  # a list of exact scalars, written in one join
            items = [_WRITE[type(v)](v) for v in x]
        except KeyError:  # it holds a container or a subclass
            items = [_dump(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _dump(v, inner) for k, v in sorted(x.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def digest(payload) -> str:
    blob = json.dumps(jsonable(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Report:
    command: str
    inputs: dict
    result: dict
    verdicts: dict = field(default_factory=dict)
    warnings: tuple = ()

    def to_json(self) -> str:
        body = {
            "command": self.command,
            "inputs_digest": digest(self.inputs),
            "result": jsonable(self.result),
            "verdicts": jsonable(self.verdicts),
        }
        if self.warnings:
            body["warnings"] = list(self.warnings)
        return _dump(body)

    def to_table(self) -> str:
        lines = [f"command: {self.command}", f"inputs: {digest(self.inputs)}"]

        def emit(prefix, value):
            if isinstance(value, dict):
                for k in sorted(value, key=str):
                    emit(f"{prefix}{k}.", value[k])
            elif isinstance(value, (list, tuple)):
                lines.append(f"{prefix[:-1]}: " + ", ".join(str(jsonable(v)) for v in value))
            else:
                lines.append(f"{prefix[:-1]}: {jsonable(value)}")

        emit("", self.result)
        for k in sorted(self.verdicts, key=str):
            v = self.verdicts[k]
            mark = "PASS" if v else "FAIL"
            lines.append(f"check {k}: {mark}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines)

    def render(self, fmt: str = "json") -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "table":
            return self.to_table()
        raise ValueError(f"unknown format {fmt!r}")

    @property
    def all_passed(self) -> bool:
        def flatten(v):
            if isinstance(v, dict):
                for x in v.values():
                    yield from flatten(x)
            else:
                yield bool(v)

        return all(flatten(self.verdicts))
