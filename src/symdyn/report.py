"""Deterministic result reports: stable JSON and a plain table rendering."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .entropy import EntropyBracket, EntropyValue


def jsonable(x):
    """Exact values rendered as p/q strings plus a float approximation."""
    if isinstance(x, Fraction):
        return {"exact": str(x), "approx": float(x)}
    if isinstance(x, EntropyValue):
        return {"exact": x.render(), "approx": None if x.is_infinite else x.approx()}
    if isinstance(x, EntropyBracket):
        return {
            "lo": jsonable(x.lo),
            "hi": jsonable(x.hi),
            "tolerance_met": x.tolerance_met,
        }
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    if hasattr(x, "render"):
        return x.render()
    return str(x)


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
        return json.dumps(body, sort_keys=True, indent=2)

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
