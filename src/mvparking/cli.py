"""Command-line surface: outcomes, fibres, tables, sandpile ops, verify suites.

Exit codes: 0 success (and every verify suite PASS), 1 property failure
(a verify suite, a both-methods fibre comparison or a table's identity
check found a mismatch), 2 usage or contract errors (unparseable input,
preconditions, guard limits, options the subcommand does not read).

Each `cmd_*` returns its exit status and an `_Output`; `main` alone renders
that output in the requested format and writes it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

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
# Largest `motzkin noncross -n` without --force: M_14 = 113,634 matchings.
NONCROSS_GUARD = 14
# The options each `motzkin` and `sandpile` subcommand reads; giving it another exits 2.
SUB_READS = {
    "phi": {"prefs"}, "inverse": {"path"}, "rep": {"prefs"}, "noncross": {"n", "count", "force"},
    "stabilise": {"config", "trace"}, "recurrent": {"config"}, "minrec": {"config", "trace"},
    "minrec-classical": {"config", "trace"}, "cantop": {"config"}, "mvp-outcome": {"prefs"},
}


class _Output(NamedTuple):
    """What one command produced: `text` is written by --format pretty,
    `data` dumped by --format json and `table` rendered by --format csv.
    An output with no text is rendered from its table in every format."""

    text: str | None
    data: object
    table: tables.ReportTable | None = None


def cmd_outcome(args) -> tuple[int, _Output]:
    prefs = parse_preference(args.prefs)
    if args.model == "classical":
        word, bumps = outcome_classical(prefs), ()
    else:
        word, bumps = outcome_mvp(prefs)
    lines = [format_permutation(word)]
    if args.trace:
        lines += [f"bump: car {b.car} from spot {b.from_spot} to spot {b.to_spot}" for b in bumps]
    return 0, _Output("\n".join(lines), {
        "model": args.model,
        "preference": list(prefs),
        "outcome": format_permutation(word),
        "bumps": [list(b) for b in bumps],
    })


def cmd_fibre(args) -> tuple[int, _Output]:
    word = parse_permutation(args.perm)
    # Brute force first: it refuses n above its cap before any walk starts.
    brute = fibre_brute(word) if args.method != "subgraph" else None
    if args.method == "brute":
        fibre = brute
    else:
        fibre = fibre_via_subgraphs(word, prune_p2=not args.no_prune)
    status = 1 if args.method == "both" and fibre != brute else 0
    perm = format_permutation(word)
    prefs = [format_preference(p) for p in fibre]
    data = {"permutation": perm, "fibre": prefs, "size": len(fibre)}
    lines = [*prefs, f"size {len(fibre)}"]
    if args.method == "both":
        data["methods_agree"] = status == 0
        lines.append("PASS subgraph and brute-force enumerations agree"
                     if status == 0 else
                     "FAIL subgraph and brute-force enumerations differ")
    table = tables.ReportTable(
        name=f"fibre-{perm}",
        headers=[f"p{k}" for k in range(1, len(word) + 1)],
        rows=[list(p) for p in fibre],
        metadata={"permutation": perm, "size": len(fibre)},
    )
    return status, _Output("\n".join(lines), data, table)


def cmd_table(args) -> tuple[int, _Output]:
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
    return (1 if table.failures else 0), _Output(None, None, table)


def _refuse_unread(args) -> None:
    """Refuse an option that the chosen motzkin or sandpile subcommand does not read."""
    for dest, value in vars(args).items():
        if (dest not in ("command", "sub", "func", "format", "out")
                and value is not None and value is not False and dest not in SUB_READS[args.sub]):
            flag = "-n" if dest == "n" else f"--{dest}"
            raise ValueError(f"{args.command} {args.sub} does not read {flag}")


def cmd_motzkin(args) -> tuple[int, _Output]:
    _refuse_unread(args)
    sub = args.sub
    if sub in ("phi", "rep") and not args.prefs:
        raise ValueError(f"{sub} requires -p/--prefs")
    if sub == "phi":
        result = preference_path(parse_preference(args.prefs))
    elif sub == "inverse":
        if args.path is None:
            raise ValueError("inverse requires --path")
        result = format_preference(path_to_preference(args.path))
    elif sub == "rep":
        result = format_preference(decreasing_representative(parse_preference(args.prefs)))
    else:  # noncross
        if args.n is None:
            raise ValueError("noncross requires -n")
        if args.n > NONCROSS_GUARD and not args.force:
            raise ValueError(f"requested size above guard {NONCROSS_GUARD} for noncross (use --force)")
        matchings = noncrossing_matchings(args.n)
        if not args.count:
            arcs = [format_arcs(m) for m in matchings]
            return 0, _Output("\n".join(arcs), {"command": "motzkin noncross", "result": arcs})
        result = str(sum(1 for _ in matchings))
    return 0, _Output(result, {"command": f"motzkin {sub}", "result": result})


def cmd_sandpile(args) -> tuple[int, _Output]:
    _refuse_unread(args)
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
    return 0, _Output("\n".join(lines),
                      {"command": f"sandpile {sub}", "result": lines[0], "trace": lines[1:]})


def cmd_verify(args) -> tuple[int, _Output]:
    names = verify.SUITE_NAMES if args.suite == "all" else [args.suite]
    results = verify.run_suites(names, n=args.n, m=args.m, seed=args.seed)
    status = 0 if all(r.passed for r in results) else 1
    return status, _Output("\n".join(r.summary() for r in results), [
        {"suite": r.name, "passed": r.passed, "checked": r.checked,
         "detail": r.detail, "counterexample": r.counterexample} for r in results])


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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("outcome", parents=[common], help="run one parking process")
    p.add_argument("--model", choices=["classical", "mvp"], required=True)
    p.add_argument("-p", "--prefs", required=True, metavar="PREFS")
    p.add_argument("--trace", action="store_true", help="print each bump")
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
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes (at most one per CPU and cell)")
    p.add_argument("--force", action="store_true", help="override the size guard")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("motzkin", parents=[common],
                       help="lattice-path and non-crossing matching operations")
    p.add_argument("sub", choices=["phi", "inverse", "rep", "noncross"])
    p.add_argument("-p", "--prefs", metavar="PREFS")
    p.add_argument("--path", metavar="STEPS")
    p.add_argument("-n", type=int, metavar="N")
    p.add_argument("--count", action="store_true", help="print the count only")
    p.add_argument("--force", action="store_true", help="override the noncross size guard")
    p.set_defaults(func=cmd_motzkin)

    p = sub.add_parser("sandpile", parents=[common], help="sandpile operations on K_n")
    p.add_argument("sub", choices=["stabilise", "recurrent", "minrec",
                                   "minrec-classical", "cantop", "mvp-outcome"])
    p.add_argument("-c", "--config", metavar="CONFIG")
    p.add_argument("-p", "--prefs", metavar="PREFS")
    p.add_argument("--trace", action="store_true", help="print the toppling or reduction steps")
    p.set_defaults(func=cmd_sandpile)

    p = sub.add_parser("verify", parents=[common], help="run exhaustive property suites")
    p.add_argument("--suite", choices=["all"] + verify.SUITE_NAMES, default="all")
    p.add_argument("--n", type=int, default=None, help="override the n cap")
    p.add_argument("--m", type=int, default=None, help="override the m cap")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomised abelian checks only")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.format == "csv" and args.command not in ("fibre", "table"):
            raise ValueError("csv format is only available for table-shaped output")
        status, out = args.func(args)
        if args.format == "csv" or out.text is None:
            render = {"pretty": tables.render_pretty, "csv": tables.render_csv,
                      "json": tables.render_json}[args.format]
            text = render(out.table)
        else:
            text = json.dumps(out.data, indent=2) if args.format == "json" else out.text
        if not text.endswith("\n"):
            text += "\n"
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        for line in out.table.failures if out.table else ():
            print(line, file=sys.stderr)
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main())
