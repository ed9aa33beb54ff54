"""Command-line harness: generate instances, run matchers, reproduce stats.

Exit status is nonzero whenever a requested check fails (shrink bounds,
oracle audit, engine cross-check), so the harness can gate CI runs. Bad
flags, rejected input (a ValueError) and files that cannot be read or
written (an OSError) exit 2 with a one-line message.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    AuditReport,
    BenchRecord,
    InstanceSpec,
    ShrinkRow,
    approximation_audit,
    csv_columns,
    csv_rows,
    engine_cross_check,
    round_bound,
    run_matcher,
    run_suite,
    shrink_report,
)
from .graph import validate_matching
from .graphio import check_csv_append, read_graph, write_csv, write_edge_list
from .matchers import MATCHERS

ALGORITHMS = tuple(MATCHERS)
ENGINES = ("seq", "pram", "bsp")


def _instance_specs(args) -> tuple[InstanceSpec, ...]:
    if getattr(args, "input", None):
        return tuple(InstanceSpec("file", weights=args.weights, path=p) for p in args.input)
    specs = []
    for x in args.x:
        if args.family == "random":
            for alpha in args.alpha:
                specs.append(InstanceSpec("random", x, alpha, args.weights))
        else:
            specs.append(InstanceSpec(args.family, x, weights=args.weights))
    return tuple(specs)


def _add_family_flags(sp, multi_x: bool = True, weights: bool = True) -> None:
    sp.add_argument("--family", choices=("random", "rgg"), default="rgg")
    if multi_x:
        sp.add_argument("--x", type=int, nargs="+", default=[10], help="log2 vertex counts")
        sp.add_argument("--alpha", type=int, nargs="+", default=[4])
    else:
        sp.add_argument("--x", type=int, default=10, help="log2 vertex count")
        sp.add_argument("--alpha", type=int, default=4)
    if weights:
        sp.add_argument(
            "--weights",
            choices=("unit", "random", "euclidean", "default"),
            default="default",
            help="edge-weight mode (default: euclidean for rgg, uniform for random, "
                 "the file's own for --input)",
        )


def _cmd_gen(args) -> int:
    g = InstanceSpec(args.family, args.x, args.alpha, args.weights).build(args.seed)
    write_edge_list(g, args.out)
    print(f"wrote {args.out}: n={g.num_vertices} m={g.num_edges}")
    return 0


def _cmd_match(args) -> int:
    if args.out:
        check_csv_append(args.out, csv_columns(BenchRecord))
    if args.input:
        g = read_graph(args.input)
        label = Path(args.input).name
    else:
        spec = InstanceSpec(args.family, args.x, args.alpha, args.weights)
        g = spec.build(args.seed)
        label = spec.label(args.seed)
    matching, trace = run_matcher(
        g, args.alg, args.seed, args.engine, args.p, args.rerandomize
    )
    check = validate_matching(g, matching)
    record = BenchRecord.from_run(
        label, args.alg, args.engine, args.seed, matching.weight(g), None, trace
    )
    print(
        f"{label} alg={args.alg} engine={args.engine} seed={args.seed} "
        f"weight={record.weight:.6f} size={matching.size} "
        f"rounds={record.rounds} millis={trace.wall_millis:.2f} "
        f"messages={record.messages} valid={check.valid} maximal={check.maximal}"
    )
    if args.out:
        write_csv(csv_rows([record]), args.out, csv_columns(BenchRecord), append=True)
    return 0 if check.valid and check.maximal else 1


def _cmd_bench(args) -> int:
    records = run_suite(_instance_specs(args), tuple(args.alg), tuple(args.seeds),
                        args.engine, args.p, args.rerandomize)
    if args.out:
        write_csv(csv_rows(records), args.out, csv_columns(BenchRecord))
        print(f"wrote {len(records)} records to {args.out}")
    else:
        for r in records:
            print(
                f"{r.instance} {r.algorithm} seed={r.seed} weight={r.weight:.6f} "
                f"ratio_vs_gpa={r.ratio_vs_gpa:.4f} rounds={r.rounds}"
            )
    return 0


def _cmd_shrink(args) -> int:
    if args.out:
        check_csv_append(args.out, csv_columns(ShrinkRow))
    spec_args = _instance_specs(args)
    failures = []
    for spec in spec_args:
        report = shrink_report(spec, tuple(args.seeds), rerandomize=args.rerandomize)
        bound = round_bound(report.max_edges)
        print(
            f"{report.instance}: seeds={len(args.seeds)} "
            f"mean_removed={report.mean_removed_fraction:.4f} "
            f"mean_survivor={report.mean_survivor_fraction:.4f} "
            f"max_rounds={report.max_rounds} (bound {bound})"
        )
        if args.check:
            if report.mean_removed_fraction < 0.5:
                failures.append(f"{report.instance}: mean removed fraction below 1/2")
            if not 0.10 <= report.mean_survivor_fraction <= 0.45:
                failures.append(f"{report.instance}: survivor fraction outside [0.10, 0.45]")
            if report.max_rounds > bound:
                failures.append(f"{report.instance}: exceeded round bound {bound}")
        if args.out:
            write_csv(csv_rows(report.rows), args.out, csv_columns(ShrinkRow), append=True)
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_audit(args) -> int:
    if args.out:
        check_csv_append(args.out, csv_columns(AuditReport))
    report = approximation_audit(args.alg, args.trials, args.seed)
    print(
        f"audit {report.matcher}: trials={report.trials} min_ratio={report.min_ratio:.4f} "
        f"mean_ratio={report.mean_ratio:.4f} violations={report.violations} "
        f"invalid={report.invalid} non_maximal={report.non_maximal}"
    )
    if args.out:
        write_csv(csv_rows([report]), args.out, csv_columns(AuditReport), append=True)
    return 0 if report.passed else 1


def _cmd_crosscheck(args) -> int:
    rows = engine_cross_check(_instance_specs(args), tuple(args.seeds), workers=tuple(args.p),
                              rerandomize=args.rerandomize)
    for row in rows:
        status = "ok" if row.matched else f"MISMATCH ({row.detail})"
        print(
            f"{row.instance} seed={row.seed}: {status} rounds={row.rounds} "
            f"crew_conflicts={row.crew_conflicts} slot_ops={row.slot_ops} "
            f"budget={row.work_budget}"
        )
    bad = [r for r in rows if not r.matched]
    if bad:
        print(f"FAIL {len(bad)} mismatching runs", file=sys.stderr)
        return 1
    conflicts = sum(r.crew_conflicts for r in rows)
    if conflicts:
        print(f"FAIL {conflicts} exclusive-write conflicts", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locmax",
        description="Approximate maximum-weight matching benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate an instance and write an edge list")
    _add_family_flags(sp, multi_x=False)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("match", help="run one matcher on one instance")
    _add_family_flags(sp, multi_x=False)
    sp.add_argument("--input", help="edge-list or .mtx file (overrides the family flags "
                                    "and --weights)")
    sp.add_argument("--alg", choices=ALGORITHMS, default="localmax")
    sp.add_argument("--engine", choices=ENGINES, default="seq")
    sp.add_argument("--p", type=int, default=4, help="bsp worker count")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--rerandomize", action=argparse.BooleanOptionalAction, default=True)
    sp.add_argument("--out", help="append a CSV record here")
    sp.set_defaults(func=_cmd_match)

    sp = sub.add_parser("bench", help="run a suite and emit CSV records")
    _add_family_flags(sp)
    sp.add_argument("--input", nargs="+", help="instance files (override --family)")
    sp.add_argument("--alg", nargs="+", choices=ALGORITHMS,
                    default=["localmax", "greedy", "gpa", "hem", "rbm"])
    sp.add_argument("--engine", choices=ENGINES, default="seq")
    sp.add_argument("--p", type=int, default=4)
    sp.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    sp.add_argument("--rerandomize", action=argparse.BooleanOptionalAction, default=True)
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(func=_cmd_bench)

    sp = sub.add_parser("shrink", help="per-round shrink statistics (unit weights)")
    _add_family_flags(sp, weights=False)
    sp.add_argument("--input", nargs="+")
    sp.add_argument("--seeds", type=int, nargs="+", default=list(range(20)))
    sp.add_argument("--rerandomize", action=argparse.BooleanOptionalAction, default=True)
    sp.add_argument("--check", action=argparse.BooleanOptionalAction, default=True,
                    help="fail (exit 1) when shrink bounds are violated")
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(func=_cmd_shrink, weights="unit")

    sp = sub.add_parser("audit", help="compare a matcher against the exact oracle")
    sp.add_argument("--alg", choices=ALGORITHMS, default="localmax")
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(func=_cmd_audit)

    sp = sub.add_parser("crosscheck", help="assert all engines agree exactly")
    _add_family_flags(sp)
    sp.add_argument("--input", nargs="+")
    sp.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    sp.add_argument("--p", type=int, nargs="+", default=[1, 2, 4, 8])
    sp.add_argument("--rerandomize", action=argparse.BooleanOptionalAction, default=True)
    sp.set_defaults(func=_cmd_crosscheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a bad argument, a malformed input or an unreadable
    or unwritable file exits 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"locmax: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
