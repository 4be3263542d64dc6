"""Command-line dispatch.

Every command returns a Report; `main` alone prints it and picks the exit
code.  Exit codes: 0 every verdict in the report holds, 1 stdout closed
before the report was written (broken pipe), 2 some verdict in the report
is false (the report is still printed), 3 input or argument error, usage
errors included, 4 resource cap exceeded.  Results go to stdout as JSON
(default) or a plain table; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict, replace

from .dbar import OrbitMixture, dbar_mixture, dbar_periodic
from .diagram import MeasureDiagram
from .entropy import EntropyValue
from .envelope import analyze_diagram
from .errors import ArgumentError, ResourceCapError, SpecFileError, SymdynError
from .extension import (
    HallInfeasible,
    build_families,
    embed_selector,
    hall_match,
    normalize_oracle,
)
from .generator import extract_generator, partition_to_extension
from .markers import (
    MarkerSchedule,
    aperiodicize,
    leftward_stretch,
    periodic_markers,
    place_krieger,
    subdivide_balance,
    upward_adjust,
    upward_stretch,
    verify_invariants,
)
from .report import Report
from .scenarios import SCENARIO_NAMES, run_scenario
from .sft import (
    DEFAULT_PERIOD_CAP,
    PeriodicOrbit,
    capacities,
    per_table,
    periodic_orbits,
    top_entropy,
    word,
)
from .specfiles import integers, load_spec, rational, window_to_json


def _load(path: str, kind: str):
    spec = load_spec(path)
    if spec["kind"] != kind:
        raise ArgumentError(f"expected a {kind!r} spec, found {spec['kind']!r}")
    return spec["payload"]


def _cmd_per(args) -> Report:
    sft = _load(args.spec, "sft")
    orbits = {
        n: ["".join(map(str, o.representative)) for o in found]
        for n, found in periodic_orbits(sft, args.n, args.cap).items()
    }
    return Report(
        "per",
        {"spec": args.spec, "n": args.n},
        {"counts": {n: n * len(reps) for n, reps in orbits.items()}, "orbits": orbits},
    )


def _cmd_capacities(args) -> Report:
    sft = _load(args.spec, "sft")
    table = per_table(sft, args.n, cap=args.cap)
    caps = capacities(table, tail_window=args.window)
    return Report(
        "capacities",
        {"spec": args.spec, "n": args.n},
        {
            "p_sup": caps.p_sup,
            "p_lim_estimate": caps.p_lim_estimate,
            "estimate_window": list(caps.window),
        },
        warnings=(caps.note,),
    )


def _cmd_entropy(args) -> Report:
    sft = _load(args.spec, "sft")
    bracket = top_entropy(sft, tolerance=rational(args.tol, "--tol"))
    warnings = () if bracket.tolerance_met else ("tolerance not met at cap depth",)
    return Report(
        "entropy",
        {"spec": args.spec, "tol": args.tol},
        {"bracket": bracket},
        warnings=warnings,
    )


def _orbit(text: str, sft) -> PeriodicOrbit:
    w = word(text)
    if not sft.admits_cyclic(w):
        raise ArgumentError(f"orbit {text!r} is not in the subshift")
    return PeriodicOrbit.of(w)


def _parse_mixture(text: str, sft, flag: str) -> OrbitMixture:
    parts = []
    for chunk in text.split(","):
        rep, _, weight = chunk.partition(":")
        parts.append((_orbit(rep.strip(), sft), rational(weight.strip() or "1", flag)))
    return OrbitMixture(tuple(parts))


def _cmd_dbar(args) -> Report:
    sft = _load(args.spec, "sft")
    if (args.a or args.b) and (args.mix_a or args.mix_b):
        raise ArgumentError("give --a and --b or --mix-a and --mix-b, not both")
    if args.mix_a or args.mix_b:
        if not (args.mix_a and args.mix_b):
            raise ArgumentError("mixtures need both --mix-a and --mix-b")
        mu = _parse_mixture(args.mix_a, sft, "--mix-a")
        nu = _parse_mixture(args.mix_b, sft, "--mix-b")
        return Report(
            "dbar",
            {"mix_a": args.mix_a, "mix_b": args.mix_b},
            {"bound": dbar_mixture(mu, nu), "meaning": "optimal-coupling upper bound"},
        )
    if not (args.a and args.b):
        raise ArgumentError("give --a and --b orbit representatives")
    va = dbar_periodic(_orbit(args.a, sft), _orbit(args.b, sft))
    return Report("dbar", {"a": args.a, "b": args.b}, {"distance": va})


def _schedule(args) -> MarkerSchedule:
    m = integers(args.schedule_m, "--schedule-m", "m1,m2,...") if args.schedule_m else ()
    return MarkerSchedule((), m)


_PASSES = {
    "krieger": lambda w, args: place_krieger(w, _or(args.row, 1), _or(args.n, 5)),
    "adjust": lambda w, args: upward_adjust(w),
    "subdivide": lambda w, args: subdivide_balance(w, _schedule(args)),
    "periodic": lambda w, args: periodic_markers(w, _or(args.row, 1)),
    "upstretch": lambda w, args: upward_stretch(w),
    "leftstretch": lambda w, args: leftward_stretch(w),
    "pipeline": lambda w, args: aperiodicize(w),
    "verify": lambda w, args: w,
}

# the flags that only some passes read, and those passes
_PASS_FLAGS = (
    ("-n", "n", ("krieger",)),
    ("--row", "row", ("krieger", "periodic")),
    ("--schedule-m", "schedule_m", ("subdivide",)),
)


def _or(value, default):
    return default if value is None else value


def _cmd_markers(args) -> Report:
    name = args.pass_name
    if name not in _PASSES:
        raise ArgumentError(f"unknown pass {name!r}")
    for flag, dest, passes in _PASS_FLAGS:
        if getattr(args, dest) is not None and name not in passes:
            readers = f"pass {passes[0]}" if len(passes) == 1 else f"passes {' and '.join(passes)}"
            raise ArgumentError(f"{flag}: read only by {readers}, not {name}")
    rules = tuple(args.rules.split(",")) if args.rules else ()
    for flag, value, rule in (("--gap-bounds", args.gap_bounds, "A"), ("--ratio", args.ratio, "C-ratio")):
        if value is not None and rule not in rules:
            raise ArgumentError(f"{flag}: read only by rule {rule}, which --rules does not name")
    bounds = None
    if args.gap_bounds is not None:
        bounds = {}
        for part in args.gap_bounds.split(";"):
            row, lo, hi = integers(part, "--gap-bounds", "row,lo,hi", 3)
            if row in bounds:  # "1" and "01" alike: a later triple must not replace an earlier one
                raise ArgumentError(f"--gap-bounds: row {row} given twice")
            bounds[row] = (lo, hi)
    ratio = rational(args.ratio, "--ratio") if args.ratio is not None else None
    w = _load(args.spec, "window")
    out = _PASSES[name](w, args)
    verdicts = {}
    if rules:
        report = verify_invariants(out, rules, gap_bounds=bounds, ratio_target=ratio)
        verdicts = {v.rule: v.passed for v in report.verdicts}
    return Report(
        f"markers run --pass {name}",
        {"spec": args.spec},
        {"window": window_to_json(out), "doubled": window_to_json(out, doubled=True)},
        verdicts,
        out.notes,
    )


def _families(path: str):
    """A hierarchy spec and its families under the normalized oracle."""
    data = _load(path, "hierarchy")
    oracle = normalize_oracle(data["oracle"], data["s"], data["hierarchy"])
    return data, build_families(data["hierarchy"], oracle, data["s"])


def _cmd_extend_build(args) -> Report:
    data, table = _families(args.spec)
    fams = {}
    for rid, f in table.families.items():
        fams.setdefault(str(data["hierarchy"].get(rid).level), {})[rid] = {
            "fixed": {str(p): d for p, d in f.fixed},
            "free": list(f.free),
            "size": f.size(data["s"]),
        }
    return Report("extend build", {"spec": args.spec}, {"families": fams})


def _cmd_extend_selector(args) -> Report:
    data, table = _families(args.spec)
    path = [p.strip() for p in args.path.split(",")]
    chosen = embed_selector(path, table, data["hierarchy"])
    return Report(
        "extend selector",
        {"spec": args.spec, "path": path},
        {"word": "".join(map(str, chosen))},
    )


def _cmd_extend_hall(args) -> Report:
    mapping = _load(args.spec, "hall")
    try:
        match = hall_match(mapping)
        result = {
            "feasible": True,
            "assignment": {str(k): "".join(map(str, v)) for k, v in sorted(match.items(), key=lambda kv: str(kv[0]))},
        }
    except HallInfeasible as exc:
        result = {
            "feasible": False,
            "violator": ["".join(map(str, s)) if isinstance(s, tuple) else str(s) for s in exc.violator],
            "neighborhood_size": len(exc.neighborhood),
        }
    return Report("extend hall", {"spec": args.spec}, result, {"matching": result["feasible"]})


def _cmd_extend_generator(args) -> Report:
    sft = _load(args.spec, "sft")
    code = _load(args.code, "blockcode")
    gen = extract_generator(sft, code, args.depth, center_radius=args.center)
    image = partition_to_extension(sft, code, min(args.depth, 6))
    return Report(
        "extend generator",
        {"spec": args.spec, "code": args.code, "depth": args.depth},
        {
            "multiplicities": dict(gen.multiplicities),
            "image_language_counts": dict(image.lengths),
            "decode_consistent": image.decode_consistent,
            "decode_unique": image.decode_unique,
        },
        {"multiplicity_nonincreasing": all(
            a[1] >= b[1] for a, b in zip(gen.multiplicities, gen.multiplicities[1:])
        )},
    )


def _cmd_diagram(args) -> Report:
    data = _load(args.spec, "diagram")
    diagram: MeasureDiagram = data["diagram"]
    if args.p_sup is not None:
        diagram = replace(diagram, p_sup=EntropyValue(rational(args.p_sup, "--p-sup")))
    rep_data = analyze_diagram(diagram, data["h"], data["ptail"])
    per_node = {}
    for n in diagram.nodes:
        per_node[n.node_id] = {
            "h": rep_data.h.spec(n.node_id).render(),
            "h_sex": rep_data.h_sex.spec(n.node_id).render(),
            "u1": rep_data.u1.spec(n.node_id).render(),
            "h_emb": rep_data.h_emb.spec(n.node_id).render(),
        }
    return Report(
        "diagram analyze",
        {"spec": args.spec},
        {
            "per_node": per_node,
            "p_star": rep_data.p_star,
            "sup_h_sex": rep_data.sup_h_sex,
            "sup_h_emb": rep_data.sup_h_emb,
            "cardinality": rep_data.cardinality,
            "note": rep_data.label,
        },
        asdict(rep_data.bounds),
        rep_data.warnings,
    )


def _cmd_scenario(args) -> Report:
    return run_scenario(args.name, rational(args.h0, "--h0") if args.h0 is not None else None)


def _integer(text: str) -> int:
    """An integer flag, in the grammar of `specfiles.integers`.  A value
    outside it is a usage error: argparse names the flag and exits 3."""
    try:
        return integers(text, "", "an integer", 1)[0]
    except SpecFileError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 3, not argparse's 2, which
    here means a failed check."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


@functools.cache  # parsing leaves the parser as it was, so one per process serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="symdyn",
        description="exact combinatorics for subshifts, marker systems, and entropy diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cap=False):
        p.add_argument("--spec", required=True, help="input spec file (JSON)")
        p.add_argument("--format", choices=("json", "table"), default="json")
        if cap:
            p.add_argument("--cap", type=_integer, default=DEFAULT_PERIOD_CAP, help="largest period enumerated")

    p = sub.add_parser("per", help="periodic orbit counts")
    common(p, cap=True)
    p.add_argument("-n", type=_integer, required=True)
    p.set_defaults(fn=_cmd_per)

    p = sub.add_parser("capacities", help="periodic capacities from a count table")
    common(p, cap=True)
    p.add_argument("-n", type=_integer, required=True)
    p.add_argument("--window", type=_integer, default=None)
    p.set_defaults(fn=_cmd_capacities)

    p = sub.add_parser("entropy", help="topological entropy bracket")
    common(p)
    p.add_argument("--tol", default="1/100")
    p.set_defaults(fn=_cmd_entropy)

    p = sub.add_parser("dbar", help="distance between periodic orbits or mixtures")
    common(p)
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--mix-a", dest="mix_a")
    p.add_argument("--mix-b", dest="mix_b")
    p.set_defaults(fn=_cmd_dbar)

    p = sub.add_parser("markers", help="marker passes on array windows")
    msub = p.add_subparsers(dest="markers_command", required=True)
    mp = msub.add_parser("run", help="run a pass and verify invariants")
    common(mp)
    mp.add_argument("--pass", dest="pass_name", required=True)
    mp.add_argument("--row", type=_integer, help="krieger and periodic; default 1")
    mp.add_argument("-n", type=_integer, help="krieger; default 5")
    mp.add_argument("--schedule-m", dest="schedule_m")
    mp.add_argument("--rules", help="comma list from A,B,C-ratio,D,E")
    mp.add_argument("--gap-bounds", dest="gap_bounds", help="row,lo,hi;row,lo,hi")
    mp.add_argument("--ratio")
    mp.set_defaults(fn=_cmd_markers)

    p = sub.add_parser("extend", help="extension-builder operations")
    esub = p.add_subparsers(dest="extend_command", required=True)
    ep = esub.add_parser("build")
    common(ep)
    ep.set_defaults(fn=_cmd_extend_build)
    ep = esub.add_parser("selector")
    common(ep)
    ep.add_argument("--path", required=True, help="comma list, level 1 first")
    ep.set_defaults(fn=_cmd_extend_selector)
    ep = esub.add_parser("hall")
    common(ep)
    ep.set_defaults(fn=_cmd_extend_hall)
    ep = esub.add_parser("generator")
    common(ep)
    ep.add_argument("--code", required=True)
    ep.add_argument("--depth", type=_integer, default=4)
    ep.add_argument("--center", type=_integer, default=0)
    ep.set_defaults(fn=_cmd_extend_generator)

    p = sub.add_parser("diagram", help="measure-diagram analysis")
    dsub = p.add_subparsers(dest="diagram_command", required=True)
    dp = dsub.add_parser("analyze")
    common(dp)
    dp.add_argument("--p-sup", dest="p_sup", help="periodic capacity as p/q")
    dp.set_defaults(fn=_cmd_diagram)

    p = sub.add_parser("scenario", help="run a built-in scenario")
    p.add_argument("name", choices=SCENARIO_NAMES)
    p.add_argument("--h0", help="exact rational, e.g. 3/2")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(fn=_cmd_scenario)

    return parser


def _silence_stdout() -> None:
    """After a broken pipe (`symdyn ... | head`), point stdout at devnull so
    the flush at interpreter exit stays quiet (the SIGPIPE note in the
    Python docs)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not backed by a file
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rep = args.fn(args)
        print(rep.render(args.format))
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return 0 if rep.all_passed else 2
    except BrokenPipeError:
        _silence_stdout()
        return 1
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except (SymdynError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
