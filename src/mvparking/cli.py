"""Command-line surface: outcomes, fibres, tables, sandpile ops, verify suites.

Exit codes: 0 success (and every verify suite PASS), 1 property failure
(a verify suite or a both-methods fibre comparison found a mismatch), 2
usage or contract errors (unparseable input, preconditions, guard limits).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import tables, verify
from .motzkin import (
    decreasing_representative,
    noncrossing_matchings,
    path_to_preference,
    preference_path,
)
from .parking import format_preference, outcome_classical, outcome_mvp, parse_preference
from .perms import format_permutation, parse_permutation
from .sandpile import (
    canonical_toppling,
    format_config,
    is_recurrent,
    minrec_classical_trace,
    minrec_trace,
    mvp_outcome_via_sandpile,
    parse_config,
    stabilise,
)
from .subgraphs import fibre_brute, fibre_via_subgraphs, format_arcs

# Per table: the least size that gives it cells, and the default and largest size without --force.
TABLE_GUARDS = {"bounds": (1, 9), "bipartite": (1, 7), "dec-vs-split": (3, 11), "conjecture": (3, 7)}


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _scalar_format(args) -> None:
    if args.format == "csv":
        raise ValueError("csv format is only available for table-shaped output")


def cmd_outcome(args) -> int:
    _scalar_format(args)
    prefs = parse_preference(args.prefs)
    if args.model == "classical":
        word, bumps = outcome_classical(prefs), ()
    else:
        word, bumps = outcome_mvp(prefs)
    if args.format == "json":
        _emit(args, json.dumps({
            "model": args.model,
            "preference": list(prefs),
            "outcome": format_permutation(word),
            "bumps": [list(b) for b in bumps],
        }, indent=2))
        return 0
    lines = [format_permutation(word)]
    if args.trace:
        lines += [f"bump: car {b.car} from spot {b.from_spot} to spot {b.to_spot}" for b in bumps]
    _emit(args, "\n".join(lines))
    return 0


def _fibre_table(word, fibre) -> tables.ReportTable:
    n = len(word)
    return tables.ReportTable(
        name=f"fibre-{format_permutation(word)}",
        headers=[f"p{k}" for k in range(1, n + 1)],
        rows=[list(p) for p in fibre],
        metadata={"permutation": format_permutation(word), "size": len(fibre)},
    )


def cmd_fibre(args) -> int:
    word = parse_permutation(args.perm)
    status = 0
    if args.method == "subgraph":
        fibre = fibre_via_subgraphs(word, prune_p2=not args.no_prune)
    elif args.method == "brute":
        fibre = fibre_brute(word)
    else:
        fibre = fibre_via_subgraphs(word, prune_p2=not args.no_prune)
        other = fibre_brute(word)
        status = 0 if fibre == other else 1
    if args.format == "csv":
        _emit(args, tables.render_csv(_fibre_table(word, fibre)))
    elif args.format == "json":
        payload = {"permutation": format_permutation(word),
                   "fibre": [format_preference(p) for p in fibre],
                   "size": len(fibre)}
        if args.method == "both":
            payload["methods_agree"] = status == 0
        _emit(args, json.dumps(payload, indent=2))
    else:
        lines = [format_preference(p) for p in fibre]
        lines.append(f"size {len(fibre)}")
        if args.method == "both":
            lines.append("PASS subgraph and brute-force enumerations agree"
                         if status == 0 else
                         "FAIL subgraph and brute-force enumerations differ")
        _emit(args, "\n".join(lines))
    return status


def cmd_table(args) -> int:
    which = args.which
    least, guard = TABLE_GUARDS[which]
    max_n = args.max_n if args.max_n is not None else guard
    max_m = args.max_m if args.max_m is not None else guard
    sizes = (max_m, max_n) if which == "bipartite" else (max_n,)
    if min(sizes) < least:
        raise ValueError(f"{which} needs sizes of at least {least}: a smaller one leaves no cells")
    if max(sizes) > guard and not args.force:
        raise ValueError(f"requested size above guard {guard} for {which} (use --force)")
    if which == "bounds":
        table = tables.bounds_table(max_n, jobs=args.jobs)
    elif which == "bipartite":
        table = tables.bipartite_table(max_m, max_n, jobs=args.jobs)
    elif which == "dec-vs-split":
        table = tables.dec_vs_split_table(max_n, jobs=args.jobs)
    else:
        table = tables.conjecture_table(max_n, jobs=args.jobs)
    renderer = {"pretty": tables.render_pretty, "csv": tables.render_csv,
                "json": tables.render_json}[args.format]
    _emit(args, renderer(table))
    return 0


def cmd_motzkin(args) -> int:
    _scalar_format(args)
    sub = args.sub
    if sub == "phi":
        if not args.prefs:
            raise ValueError("phi requires -p/--prefs")
        result = preference_path(parse_preference(args.prefs))
    elif sub == "inverse":
        if args.path is None:
            raise ValueError("inverse requires --path")
        result = format_preference(path_to_preference(args.path))
    elif sub == "rep":
        if not args.prefs:
            raise ValueError("rep requires -p/--prefs")
        result = format_preference(decreasing_representative(parse_preference(args.prefs)))
    else:  # noncross
        if args.n is None:
            raise ValueError("noncross requires -n")
        matchings = list(noncrossing_matchings(args.n))
        if args.count:
            result = str(len(matchings))
        else:
            result = "\n".join(format_arcs(m) for m in matchings)
    if args.format == "json":
        _emit(args, json.dumps({"command": f"motzkin {sub}", "result": result.split("\n")
                                if "\n" in result else result}, indent=2))
    else:
        _emit(args, result)
    return 0


def cmd_sandpile(args) -> int:
    _scalar_format(args)
    sub = args.sub
    lines: list[str] = []
    if sub == "mvp-outcome":
        if not args.prefs:
            raise ValueError("mvp-outcome requires -p/--prefs")
        lines.append(format_permutation(mvp_outcome_via_sandpile(parse_preference(args.prefs))))
    else:
        if not args.config:
            raise ValueError(f"{sub} requires -c/--config")
        cfg = parse_config(args.config)
        if sub == "stabilise":
            stable, seq = stabilise(cfg)
            lines.append(format_config(stable))
            if args.trace:
                lines.append("toppled: " + (",".join(map(str, seq)) if seq else "(none)"))
        elif sub == "recurrent":
            lines.append("recurrent" if is_recurrent(cfg) else "not recurrent")
        elif sub in ("minrec", "minrec-classical"):
            runner = minrec_trace if sub == "minrec" else minrec_classical_trace
            result, steps = runner(cfg)
            lines.append(format_config(result))
            if args.trace:
                for k, st in enumerate(steps, start=1):
                    lines.append(
                        f"iteration {k}: duplicate at j={st.j}, "
                        f"decrement c_{st.target}: {st.before} -> {st.after}")
        else:  # cantop
            lines.append(format_permutation(canonical_toppling(cfg)))
    if args.format == "json":
        _emit(args, json.dumps({"command": f"sandpile {sub}", "result": lines[0],
                                "trace": lines[1:]}, indent=2))
    else:
        _emit(args, "\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    _scalar_format(args)
    names = verify.SUITE_NAMES if args.suite == "all" else [args.suite]
    results = verify.run_suites(names, n=args.n, m=args.m, seed=args.seed)
    if args.format == "json":
        _emit(args, json.dumps([{
            "suite": r.name, "passed": r.passed, "checked": r.checked,
            "detail": r.detail, "counterexample": r.counterexample,
        } for r in results], indent=2))
    else:
        _emit(args, "\n".join(r.summary() for r in results))
    return 0 if all(r.passed for r in results) else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvpark",
        description="Parking processes, outcome fibres, and their correspondences.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["pretty", "csv", "json"], default="pretty")
    common.add_argument("--out", metavar="PATH", help="write output to a file")
    common.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for tables (at most one per CPU and cell)")
    common.add_argument("--force", action="store_true", help="override size guards")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for the randomised abelian checks only")
    common.add_argument("--trace", action="store_true", help="print per-step details")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("outcome", parents=[common], help="run one parking process")
    p.add_argument("--model", choices=["classical", "mvp"], required=True)
    p.add_argument("-p", "--prefs", required=True, metavar="PREFS")
    p.set_defaults(func=cmd_outcome)

    p = sub.add_parser("fibre", parents=[common], help="enumerate an outcome fibre")
    p.add_argument("--perm", required=True, metavar="PERM")
    p.add_argument("--method", choices=["subgraph", "brute", "both"], default="subgraph")
    p.add_argument("--no-prune", action="store_true",
                   help="disable the P2-free pruning of the subgraph walk")
    p.set_defaults(func=cmd_fibre)

    p = sub.add_parser("table", parents=[common], help="reproduce an enumeration table")
    p.add_argument("which", choices=["bounds", "bipartite", "dec-vs-split", "conjecture"])
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--max-m", type=int, default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("motzkin", parents=[common],
                       help="lattice-path and non-crossing matching operations")
    p.add_argument("sub", choices=["phi", "inverse", "rep", "noncross"])
    p.add_argument("-p", "--prefs", metavar="PREFS")
    p.add_argument("--path", metavar="STEPS")
    p.add_argument("-n", type=int, metavar="N")
    p.add_argument("--count", action="store_true", help="print the count only")
    p.set_defaults(func=cmd_motzkin)

    p = sub.add_parser("sandpile", parents=[common], help="sandpile operations on K_n")
    p.add_argument("sub", choices=["stabilise", "recurrent", "minrec",
                                   "minrec-classical", "cantop", "mvp-outcome"])
    p.add_argument("-c", "--config", metavar="CONFIG")
    p.add_argument("-p", "--prefs", metavar="PREFS")
    p.set_defaults(func=cmd_sandpile)

    p = sub.add_parser("verify", parents=[common], help="run exhaustive property suites")
    p.add_argument("--suite", choices=["all"] + verify.SUITE_NAMES, default="all")
    p.add_argument("--n", type=int, default=None, help="override the n cap")
    p.add_argument("--m", type=int, default=None, help="override the m cap")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main())
