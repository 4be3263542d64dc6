"""Command-line dispatch.

Exit codes: 0 all checks pass, 1 stdout closed before the report was
written (broken pipe), 2 scenario/assertion diff, 3 input or argument
error, 4 resource cap exceeded.  Results go to stdout as JSON
(default) or a plain table; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict, replace
from fractions import Fraction

from .dbar import OrbitMixture, dbar_mixture, dbar_periodic
from .diagram import MeasureDiagram
from .entropy import EntropyValue
from .envelope import analyze_diagram
from .errors import ArgumentError, AssertionDiff, ResourceCapError, SymdynError
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
    PeriodicOrbit,
    _orbits_by_period,
    capacities,
    per_table,
    top_entropy,
    word,
)
from .specfiles import load_spec, window_to_json


def _load(path: str, kind: str):
    spec = load_spec(path)
    if spec["kind"] != kind:
        raise ArgumentError(f"expected a {kind!r} spec, found {spec['kind']!r}")
    return spec["payload"]


def _emit(report: Report, fmt: str) -> None:
    print(report.render(fmt))


def _cmd_per(args) -> int:
    sft = _load(args.spec, "sft")
    orbits = {
        n: ["".join(map(str, o.representative)) for o in found]
        for n, found in _orbits_by_period(sft, args.n, args.cap).items()
    }
    rep = Report(
        "per",
        {"spec": args.spec, "n": args.n},
        {"counts": {n: n * len(reps) for n, reps in orbits.items()}, "orbits": orbits},
    )
    _emit(rep, args.format)
    return 0


def _cmd_capacities(args) -> int:
    sft = _load(args.spec, "sft")
    table = per_table(sft, args.n, cap=args.cap)
    caps = capacities(table, tail_window=args.window)
    rep = Report(
        "capacities",
        {"spec": args.spec, "n": args.n},
        {
            "p_sup": caps.p_sup,
            "p_lim_estimate": caps.p_lim_estimate,
            "estimate_window": list(caps.window),
        },
        warnings=(caps.note,),
    )
    _emit(rep, args.format)
    return 0


def _cmd_entropy(args) -> int:
    sft = _load(args.spec, "sft")
    bracket = top_entropy(sft, tolerance=Fraction(args.tol))
    warnings = () if bracket.tolerance_met else ("tolerance not met at cap depth",)
    rep = Report(
        "entropy",
        {"spec": args.spec, "tol": args.tol},
        {"bracket": bracket},
        warnings=warnings,
    )
    _emit(rep, args.format)
    return 0


def _orbit(text: str, sft) -> PeriodicOrbit:
    w = word(text)
    if not sft.admits_cyclic(w):
        raise ArgumentError(f"orbit {text!r} is not in the subshift")
    return PeriodicOrbit.of(w)


def _parse_mixture(text: str, sft) -> OrbitMixture:
    parts = []
    for chunk in text.split(","):
        rep, _, weight = chunk.partition(":")
        parts.append((_orbit(rep.strip(), sft), Fraction(weight.strip() or "1")))
    return OrbitMixture(tuple(parts))


def _cmd_dbar(args) -> int:
    sft = _load(args.spec, "sft")
    if args.mix_a or args.mix_b:
        if not (args.mix_a and args.mix_b):
            raise ArgumentError("mixtures need both --mix-a and --mix-b")
        mu = _parse_mixture(args.mix_a, sft)
        nu = _parse_mixture(args.mix_b, sft)
        value = dbar_mixture(mu, nu)
        rep = Report(
            "dbar",
            {"mix_a": args.mix_a, "mix_b": args.mix_b},
            {"bound": value, "meaning": "optimal-coupling upper bound"},
        )
    else:
        if not (args.a and args.b):
            raise ArgumentError("give --a and --b orbit representatives")
        va = dbar_periodic(_orbit(args.a, sft), _orbit(args.b, sft))
        rep = Report("dbar", {"a": args.a, "b": args.b}, {"distance": va})
    _emit(rep, args.format)
    return 0


def _schedule(args) -> MarkerSchedule:
    m = tuple(int(x) for x in args.schedule_m.split(",")) if args.schedule_m else ()
    return MarkerSchedule((), m)


def _cmd_markers(args) -> int:
    w = _load(args.spec, "window")
    name = args.pass_name
    if name == "krieger":
        out = place_krieger(w, args.row, args.n)
    elif name == "adjust":
        out = upward_adjust(w)
    elif name == "subdivide":
        out = subdivide_balance(w, _schedule(args))
    elif name == "periodic":
        out = periodic_markers(w, args.row)
    elif name == "upstretch":
        out = upward_stretch(w)
    elif name == "leftstretch":
        out = leftward_stretch(w)
    elif name == "pipeline":
        out = aperiodicize(w)
    elif name == "verify":
        out = w
    else:
        raise ArgumentError(f"unknown pass {name!r}")
    rules = tuple(args.rules.split(",")) if args.rules else ()
    bounds = None
    if args.gap_bounds:
        bounds = {}
        for part in args.gap_bounds.split(";"):
            row, lo, hi = part.split(",")
            bounds[int(row)] = (int(lo), int(hi))
    verdicts = {}
    if rules:
        report = verify_invariants(
            out,
            rules,
            gap_bounds=bounds,
            ratio_target=Fraction(args.ratio) if args.ratio else None,
        )
        verdicts = {
            v.rule: v.passed for v in report.verdicts
        }
    rep = Report(
        f"markers run --pass {name}",
        {"spec": args.spec},
        {"window": window_to_json(out), "doubled": window_to_json(out, doubled=True)},
        verdicts,
        out.notes,
    )
    _emit(rep, args.format)
    return 0


def _cmd_extend_build(args) -> int:
    data = _load(args.spec, "hierarchy")
    oracle = normalize_oracle(data["oracle"], data["s"], data["hierarchy"])
    table = build_families(data["hierarchy"], oracle, data["s"])
    fams = {}
    for level, members in table.families:
        fams[str(level)] = {
            f.rect_id: {
                "fixed": {str(p): d for p, d in f.fixed},
                "free": list(f.free),
                "size": f.size(data["s"]),
            }
            for f in members
        }
    rep = Report("extend build", {"spec": args.spec}, {"families": fams})
    _emit(rep, args.format)
    return 0


def _cmd_extend_selector(args) -> int:
    data = _load(args.spec, "hierarchy")
    oracle = normalize_oracle(data["oracle"], data["s"], data["hierarchy"])
    table = build_families(data["hierarchy"], oracle, data["s"])
    path = [p.strip() for p in args.path.split(",")]
    chosen = embed_selector(path, table, data["hierarchy"])
    rep = Report(
        "extend selector",
        {"spec": args.spec, "path": path},
        {"word": "".join(map(str, chosen))},
    )
    _emit(rep, args.format)
    return 0


def _cmd_extend_hall(args) -> int:
    mapping = _load(args.spec, "hall")
    try:
        match = hall_match(mapping)
    except HallInfeasible as exc:
        rep = Report(
            "extend hall",
            {"spec": args.spec},
            {
                "feasible": False,
                "violator": ["".join(map(str, s)) if isinstance(s, tuple) else str(s) for s in exc.violator],
                "neighborhood_size": len(exc.neighborhood),
            },
            {"matching": False},
        )
        _emit(rep, args.format)
        return 2
    rep = Report(
        "extend hall",
        {"spec": args.spec},
        {
            "feasible": True,
            "assignment": {str(k): "".join(map(str, v)) for k, v in sorted(match.items(), key=lambda kv: str(kv[0]))},
        },
        {"matching": True},
    )
    _emit(rep, args.format)
    return 0


def _cmd_extend_generator(args) -> int:
    sft = _load(args.spec, "sft")
    code = _load(args.code, "blockcode")
    gen = extract_generator(sft, code, args.depth, center_radius=args.center)
    image = partition_to_extension(sft, code, min(args.depth, 6))
    rep = Report(
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
    _emit(rep, args.format)
    return 0


def _cmd_diagram(args) -> int:
    data = _load(args.spec, "diagram")
    diagram: MeasureDiagram = data["diagram"]
    if args.p_sup:
        diagram = replace(diagram, p_sup=EntropyValue(Fraction(args.p_sup)))
    rep_data = analyze_diagram(diagram, data["h"], data["ptail"])
    per_node = {}
    for n in diagram.nodes:
        per_node[n.node_id] = {
            "h": rep_data.h.spec(n.node_id).render(),
            "h_sex": rep_data.h_sex.spec(n.node_id).render(),
            "u1": rep_data.u1.spec(n.node_id).render(),
            "h_emb": rep_data.h_emb.spec(n.node_id).render(),
        }
    rep = Report(
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
    _emit(rep, args.format)
    return 0


def _cmd_scenario(args) -> int:
    h0 = Fraction(args.h0) if args.h0 else None
    rep = run_scenario(args.name, h0)
    _emit(rep, args.format)
    return 0 if rep.all_passed else 2


@functools.cache  # parsing leaves the parser as it was, so one per process serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symdyn",
        description="exact combinatorics for subshifts, marker systems, and entropy diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cap=False):
        p.add_argument("--spec", required=True, help="input spec file (JSON)")
        p.add_argument("--format", choices=("json", "table"), default="json")
        if cap:
            p.add_argument("--cap", type=int, default=20, help="largest period enumerated")

    p = sub.add_parser("per", help="periodic orbit counts")
    common(p, cap=True)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(fn=_cmd_per)

    p = sub.add_parser("capacities", help="periodic capacities from a count table")
    common(p, cap=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--window", type=int, default=None)
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
    mp.add_argument("--row", type=int, default=1)
    mp.add_argument("-n", type=int, default=5)
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
    ep.add_argument("--depth", type=int, default=4)
    ep.add_argument("--center", type=int, default=0)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        _silence_stdout()
        return 1
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except AssertionDiff as exc:
        print(f"assertion diff: {exc}", file=sys.stderr)
        return 2
    except (ArgumentError, SymdynError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
