"""Command line front end.

Subcommands:
    census      cycle census table of a graph
    verify      named parity checks on an immersion
    validate    genericity report for an immersion file
    crossings   list the crossings of an immersion
    invariant   weighted linking invariant of a diagram
    tb          writhe sums of a diagram by cycle length
    construct   zero-rotation immersion of a K4-minor-free graph
    fuzz        seeded random immersions / lifts with parity checks
    render      SVG picture of an immersion or diagram

Inputs are file paths, or shorthands: "@PG"-style graph names for graph
arguments, "@PG-star"-style model names (plus "@theta N") for immersion
arguments.  Reports are plain text, identical bytes for identical command
and seed.  Exit codes: 0 all checks pass, 1 a check failed, 2 usage or
parse error, 3 construction refused because of a K4 minor.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from .census import census_table, girth, tb_ratio
from .diagrams import Diagram, L_invariant, random_lift, tb_by_length, tb_total
from .formats import (
    ParseError,
    format_number,
    parse_diagram,
    parse_graph,
    parse_immersion,
    serialize_diagram,
    serialize_immersion,
)
from .graphs import MultiGraph, cycle_lengths, enumerate_cycles, heawood_graph, petersen_graph
from .immersion import (
    PlaneImmersion,
    crossings,
    cycle_crossing_number,
    kappa,
    random_immersion,
    rotation_number,
    sum_crossing,
    validate,
)
from .sp import K4MinorError, construct_zero_rotation
from .standard import MODEL_NAMES, standard_immersion
from .svg import render_svg
from .verify import CheckVerdict, detect_theorem, run_checks, theorem_ids


@dataclass(frozen=True)
class RunReport:
    """Outcome of one verify or fuzz run.

    Attributes:
        command: The invoked command line, echoed verbatim.
        seeds: Seeds consumed, in order.
        verdicts: One CheckVerdict per check.
        counterexample: Path of the serialized offender, None when all pass.
    """

    command: str
    seeds: tuple
    verdicts: tuple
    counterexample: str | None = None

    @property
    def ok(self):
        return all(v.ok for v in self.verdicts)

    def lines(self, fmt="table"):
        out = [f"command: {self.command}"]
        if self.seeds:
            lo, hi = min(self.seeds), max(self.seeds)
            out.append(f"seeds: {lo}..{hi}" if len(self.seeds) > 1 else f"seed: {lo}")
        rows = [(v.theorem, v.check, str(v.value), v.expected,
                 "pass" if v.ok else "FAIL") for v in self.verdicts]
        out.extend(_render_rows(
            ("theorem", "check", "value", "expected", "verdict"), rows, fmt))
        if self.counterexample:
            out.append(f"counterexample: {self.counterexample}")
        passed = sum(v.ok for v in self.verdicts)
        word = "PASS" if self.ok else "FAIL"
        out.append(f"result: {word} ({passed}/{len(self.verdicts)} checks)")
        return out


def _render_rows(header, rows, fmt):
    if fmt == "tsv":
        return ["\t".join(header)] + ["\t".join(r) for r in rows]
    table = [header, *rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    return ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
            for r in table]


def _emit(text, output):
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_graph(spec: str) -> MultiGraph:
    if spec.startswith("@"):
        return parse_graph(spec)
    return parse_graph(Path(spec).read_text(encoding="utf-8"))


def _load_immersion(spec: str) -> PlaneImmersion:
    if spec.startswith("@"):
        tokens = spec[1:].split()
        if not tokens or tokens[0] not in MODEL_NAMES:
            known = ", ".join(f"@{m}" for m in MODEL_NAMES)
            raise ParseError(f"unknown model {spec!r}; choose from {known}", 1)
        if tokens[0] == "theta":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ParseError("theta model needs a strand count: '@theta N'", 1)
            return standard_immersion("theta", n=int(tokens[1]))
        if len(tokens) != 1:
            raise ParseError(f"model @{tokens[0]} takes no parameter", 1)
        return standard_immersion(tokens[0])
    return parse_immersion(Path(spec).read_text(encoding="utf-8"))


def _load_drawing(spec: str):
    """Immersion or diagram, decided by the presence of 'over' lines."""
    if spec.startswith("@"):
        return _load_immersion(spec)
    text = Path(spec).read_text(encoding="utf-8")
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("over "):
            return parse_diagram(text)
    return parse_immersion(text)


def _echo(argv):
    return "immersa " + " ".join(argv)


def _cmd_census(args, argv):
    graph = _load_graph(args.graph)
    if args.k:
        ks = [int(t) for t in args.k.split(",")]
    else:
        ks = cycle_lengths(graph)
    rows = census_table(graph, ks)
    header = ("k", "count", "count_times_k", "alpha_edge", "alpha_adjacent",
              "alpha_dist1", "alpha_dist2", "beta_dist1", "beta_dist2")
    body = []
    for row in rows:
        cells = [row.k, row.count, row.count_times_k, row.alpha_edge,
                 row.alpha_adjacent, row.alpha_dist1, row.alpha_dist2,
                 row.beta_dist1, row.beta_dist2]
        text_cells = ["-" if c is None else str(c) for c in cells]
        if row.representative:
            note = "; ".join(f"{col} at {obj}" for col, obj in row.representative)
            text_cells.append(f"split: {note}")
        body.append(tuple(text_cells))
    if any(len(r) > len(header) for r in body):
        header = header + ("note",)
        body = [r + ("",) * (len(header) - len(r)) for r in body]
    text = "\n".join(_render_rows(header, body, args.format)) + "\n"
    _emit(text, args.output)
    return 0


def _cmd_verify(args, argv):
    immersion = _load_immersion(args.input)
    verdicts = run_checks(immersion, args.theorem)
    report = RunReport(_echo(argv), (), verdicts)
    _emit("\n".join(report.lines(args.format)) + "\n", args.output)
    return 0 if report.ok else 1


def _cmd_validate(args, argv):
    immersion = _load_immersion(args.input)
    report = validate(immersion)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_crossings(args, argv):
    immersion = _load_immersion(args.input)
    report = validate(immersion)
    if not report.ok:
        print(f"not generic: {report.summary()}", file=sys.stderr)
        return 1
    records = crossings(immersion)
    rows = []
    by_kind = {"self": 0, "adjacent": 0, "disjoint": 0}
    by_distance = {}
    for rec in records:
        rows.append((rec.id, format_number(rec.point[0]),
                     format_number(rec.point[1]), rec.kind,
                     str(rec.distance_class), f"{rec.geometric_sign:+d}"))
        by_kind[rec.kind] += 1
        by_distance[rec.distance_class] = by_distance.get(rec.distance_class, 0) + 1
    lines = _render_rows(("id", "x", "y", "kind", "distance", "sign"),
                         rows, args.format)
    lines.append(f"total: {len(records)}")
    lines.append("by kind: " + ", ".join(
        f"{k}={v}" for k, v in by_kind.items()))
    lines.append("by distance: " + ", ".join(
        f"{d}={v}" for d, v in sorted(by_distance.items())))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_invariant(args, argv):
    diagram = parse_diagram(Path(args.input).read_text(encoding="utf-8"))
    value = L_invariant(diagram, args.which)
    distance = 1 if args.which == "PG" else 2
    kap = kappa(diagram.immersion, distance)
    ok = value % 2 == 1 and (value - kap) % 2 == 0
    lines = [
        f"L = {value}",
        f"kappa(f, {distance}) = {kap}",
        f"L odd and L = kappa (mod 2): {'pass' if ok else 'FAIL'}",
    ]
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if ok else 1


def _cmd_tb(args, argv):
    diagram = parse_diagram(Path(args.input).read_text(encoding="utf-8"))
    table = tb_by_length(diagram)
    lines = []
    if args.k in (None, "all"):
        for k, value in table.items():
            lines.append(f"TB_{k} = {value}")
        lines.append(f"TB_total = {tb_total(diagram)}")
    else:
        k = int(args.k)
        if k not in table:
            raise ParseError(f"graph has no cycle of length {k}", 1)
        lines.append(f"TB_{k} = {table[k]}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_construct(args, argv):
    graph = _load_graph(args.graph)
    immersion = construct_zero_rotation(graph)
    text = serialize_immersion(immersion)
    if args.svg:
        Path(args.svg).write_text(render_svg(immersion), encoding="utf-8")
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"constructed: {len(graph.vertices)} vertices, "
              f"{len(graph.edges)} edges, {len(crossings(immersion))} crossings, "
              f"every cycle rotation 0 -> {args.output}")
    else:
        sys.stdout.write(text)
    return 0


_FUZZ_CHECKS = ("theorem", "rot", "L", "tb-ratio")


def _fuzz_checks(args, graph):
    if args.check:
        names = [t.strip() for t in args.check.split(",")]
        for name in names:
            if name not in _FUZZ_CHECKS:
                raise ParseError(
                    f"unknown check {name!r}; choose from "
                    + ", ".join(_FUZZ_CHECKS), 1)
    elif args.lifts:
        names = ["L", "tb-ratio"]
    else:
        names = ["theorem", "rot"] if detect_theorem(graph) else ["rot"]
    if ("L" in names or "tb-ratio" in names) and not args.lifts:
        raise ParseError("checks over lifts need --lifts N", 1)
    if "L" in names and detect_theorem(graph) not in ("PG-parity", "HG-parity"):
        raise ParseError("the L check needs the @PG or @HG graph", 1)
    return names


def _tb_expectations(graph):
    base = girth(graph)
    ratios = {}
    for k in cycle_lengths(graph):
        if k == base:
            continue
        ratios[k] = tb_ratio(graph, base, k)
    return base, ratios


def _fuzz_immersion_checks(immersion, names, theorem):
    failures = []
    if "theorem" in names:
        for v in run_checks(immersion, theorem):
            if not v.ok:
                failures.append(("theorem", f"{v.check} = {v.value}, "
                                 f"expected {v.expected}"))
    if "rot" in names:
        for cycle in enumerate_cycles(immersion.graph):
            rot = rotation_number(immersion, cycle)
            c = cycle_crossing_number(immersion, cycle)
            if (rot - c) % 2 != 1:
                failures.append(("rot", f"cycle {sorted(cycle.edge_name_set)} "
                                 f"has rot {rot}, c {c}"))
                break
    return failures


def _fuzz_lift_checks(diagram, names, which, base, ratios):
    failures = []
    if "L" in names:
        value = L_invariant(diagram, which)
        kap = kappa(diagram.immersion, 1 if which == "PG" else 2)
        if value % 2 != 1 or (value - kap) % 2 != 0:
            failures.append(("L", f"L = {value}, kappa = {kap}"))
    if "tb-ratio" in names:
        table = tb_by_length(diagram)
        anchor = table[base]
        for k, q in ratios.items():
            if q is None or table[k] != q * anchor:
                failures.append(
                    ("tb-ratio", f"TB_{k} = {table[k]}, expected "
                     f"{q} * TB_{base} = {q} * {anchor}"))
                break
    return failures


def _cmd_fuzz(args, argv):
    graph = _load_graph(args.graph)
    names = _fuzz_checks(args, graph)
    theorem = detect_theorem(graph)
    if "theorem" in names and theorem is None:
        raise ParseError("no named theorem targets this graph", 1)
    which = {"PG-parity": "PG", "HG-parity": "HG"}.get(theorem)
    base = ratios = None
    if "tb-ratio" in names:
        base, ratios = _tb_expectations(graph)

    seeds = tuple(range(args.seed, args.seed + args.n))
    passes = {name: 0 for name in names}
    trials = {name: 0 for name in names}
    counterexample = None
    first_failure = None
    for seed in seeds:
        immersion = random_immersion(graph, seed=seed)
        failed_here = {name for name, _ in
                       _fuzz_immersion_checks(immersion, names, theorem)}
        for name in names:
            if name in ("theorem", "rot"):
                trials[name] += 1
                passes[name] += name not in failed_here
        if failed_here and counterexample is None:
            name = sorted(failed_here)[0]
            counterexample = _write_counterexample(
                serialize_immersion(immersion), args, seed, name)
            first_failure = (name, seed)
        for j in range(args.lifts):
            diagram = random_lift(immersion, seed=seed * 1000 + j)
            lift_failed = {name for name, _ in
                           _fuzz_lift_checks(diagram, names, which, base, ratios)}
            for name in names:
                if name in ("L", "tb-ratio"):
                    trials[name] += 1
                    passes[name] += name not in lift_failed
            if lift_failed and counterexample is None:
                name = sorted(lift_failed)[0]
                counterexample = _write_counterexample(
                    serialize_diagram(diagram), args, seed, name,
                    lift=seed * 1000 + j)
                first_failure = (name, seed)

    labels = {
        "theorem": (f"{theorem} checks", theorem),
        "rot": ("rot - c odd on every cycle", "rot-parity"),
        "L": ("L odd and L = kappa (mod 2)", f"{which}-L"),
        "tb-ratio": (f"TB_k = q * TB_{base} for all k", "tb-ratio"),
    }
    verdicts = tuple(
        CheckVerdict(labels[name][1], labels[name][0], passes[name],
                     f"{trials[name]} of {trials[name]}",
                     passes[name] == trials[name])
        for name in names)
    report = RunReport(_echo(argv), seeds, verdicts, counterexample)
    lines = report.lines(args.format)
    if first_failure:
        name, seed = first_failure
        replay = (f"replay: immersa fuzz --graph {args.graph} --n 1 "
                  f"--seed {seed} --check {name}")
        if name in ("L", "tb-ratio"):
            replay += f" --lifts {args.lifts}"
        lines.insert(len(lines) - 1, replay)
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if report.ok else 1


def _write_counterexample(text, args, seed, check, lift=None):
    stem = f"counterexample-{check}-seed{seed}"
    if lift is not None:
        stem += f"-lift{lift}"
    suffix = ".dgm" if lift is not None else ".imm"
    base = Path(args.output).parent if args.output else Path(".")
    path = base / (stem + suffix)
    path.write_text(text, encoding="utf-8")
    return str(path)


def _cmd_render(args, argv):
    drawing = _load_drawing(args.input)
    document = render_svg(drawing, labels=args.labels)
    _emit(document, args.output)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="immersa",
        description="crossing sums, rotation numbers, and linking "
                    "invariants of graphs drawn in the plane")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, fmt=True, out=True):
        if fmt:
            p.add_argument("--format", choices=("table", "tsv"),
                           default="table")
        if out:
            p.add_argument("-o", "--output", metavar="FILE")

    p = sub.add_parser("census", help="cycle census table of a graph")
    p.add_argument("graph", help="graph file or @shorthand, e.g. @PG")
    p.add_argument("--k", help="comma-separated cycle lengths")
    common(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("verify", help="named parity checks on an immersion")
    p.add_argument("input", help="immersion file or @model, e.g. @PG-star")
    p.add_argument("--theorem", required=True, choices=theorem_ids())
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("validate", help="genericity report")
    p.add_argument("input", help="immersion file or @model")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("crossings", help="list the crossings")
    p.add_argument("input", help="immersion file or @model")
    common(p)
    p.set_defaults(func=_cmd_crossings)

    p = sub.add_parser("invariant", help="weighted linking invariant")
    p.add_argument("input", help="diagram file")
    p.add_argument("--which", required=True, choices=("PG", "HG"))
    common(p, fmt=False)
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("tb", help="writhe sums by cycle length")
    p.add_argument("input", help="diagram file")
    p.add_argument("--k", help="one cycle length, or 'all'")
    common(p, fmt=False)
    p.set_defaults(func=_cmd_tb)

    p = sub.add_parser("construct",
                       help="zero-rotation immersion of a K4-minor-free graph")
    p.add_argument("--graph", required=True, help="graph file or @shorthand")
    p.add_argument("--svg", metavar="FILE", help="also render to SVG")
    common(p, fmt=False)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("fuzz", help="seeded random immersions with checks")
    p.add_argument("--graph", required=True, help="graph file or @shorthand")
    p.add_argument("--n", type=int, default=20, help="number of immersions")
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--lifts", type=int, default=0,
                   help="random lifts per immersion")
    p.add_argument("--check",
                   help="comma list from: theorem, rot, L, tb-ratio")
    common(p)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("render", help="SVG picture")
    p.add_argument("input", help="immersion/diagram file or @model")
    p.add_argument("--labels", action="store_true",
                   help="draw vertex names")
    common(p, fmt=False)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, list(argv))
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except K4MinorError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        for step in exc.trace:
            print(f"  {step}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
