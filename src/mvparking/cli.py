"""Command-line surface: outcomes, fibres, tables, sandpile ops, verify suites.

Exit codes: 0 success (and every verify suite PASS), 1 property failure
(a verify suite, a both-methods fibre comparison or a table's identity
check found a mismatch), 2 usage or contract errors (unparseable input,
preconditions, guard limits, options the operation does not read, output
that cannot be written).

Each operation (`outcome`, `table bounds`, `sandpile minrec`, ...) has its own
argparse parser declaring exactly the options it reads, its `--format`
choices and `--out` among them; a `cmd_*` checks only rules that span two
flags or need parsed input, and every size guard through `_guard`, before any
work.  Each `cmd_*` returns its exit status and an `_Output`; `main` alone
renders and writes that output.

`main` builds only the parsers on the path its argv names, since argparse
makes a help formatter per declared option, and builds the whole tree where
argparse's text lists the siblings: help at the root or at a group, a typo, or
a flag the operation does not read (see `build_parser`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
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

# Largest `motzkin noncross -n` without --force: M_14 = 113,634 matchings.
NONCROSS_GUARD = 14
# Largest `fibre --perm` without --force.  Listing dec(14) (113,634 members) takes about 1 s
# end to end and bipart(8,8) 0.6 s, but the output grows with the fibre: dec(16) takes 7-8 s
# and 260 MiB (295 MiB with --format pretty).
FIBRE_GUARD = 14
# Largest grain total for `sandpile stabilise` without --force.  A toppling removes one grain,
# so the grains bound the topplings and the witness whatever the vertex count; the worst case
# measured, 300,000 grains piled on one of 100 vertices, takes 1.2 s end to end.
STABILISE_GUARD = 300_000


def _guard(args, amount: str, size: int, guard: int, what: str) -> None:
    """Refuse `size` (named in the message by `amount`) above `guard` unless --force."""
    if size > guard and not args.force:
        raise ValueError(f"{amount} above guard {guard} for {what} (use --force)")


class _Output(NamedTuple):
    """What one command produced: `text` is written by --format pretty and
    `data` dumped by --format json, unless the command returns a `table`,
    which is then rendered in every format."""

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
    _guard(args, f"n={len(word)}", len(word), FIBRE_GUARD, "fibre")
    # Brute force first: it refuses n above its cap before the listing starts.
    brute = fibre_brute(word) if args.method != "subgraph" else None
    fibre = brute if args.method == "brute" else fibre_via_subgraphs(word)
    status = 1 if args.method == "both" and fibre != brute else 0
    perm = format_permutation(word)
    if args.format == "csv":  # the fibre can be large: build only what is rendered
        return status, _Output(None, None, tables.ReportTable(
            f"fibre-{perm}", [f"p{k}" for k in range(1, len(word) + 1)], fibre,
            {"permutation": perm, "size": len(fibre)}))
    size, prefs = len(fibre), [format_preference(p) for p in fibre]
    del fibre, brute  # from here on only the strings are held, not the members as well
    if args.format == "json":
        data = {"permutation": perm, "fibre": prefs, "size": size}
        if args.method == "both":
            data["methods_agree"] = status == 0
        return status, _Output(None, data)
    prefs.append(f"size {size}")  # extended in place: no second list of the lines
    if args.method == "both":
        prefs.append("PASS subgraph and brute-force enumerations agree"
                     if status == 0 else
                     "FAIL subgraph and brute-force enumerations differ")
    return status, _Output("\n".join(prefs), None)


def cmd_table(args) -> tuple[int, _Output]:
    flags, _least, guard, _cap = tables.TABLES[args.which]
    sizes = [getattr(args, f"max_{flag}") for flag in flags]
    for flag, size in zip(flags, sizes):
        _guard(args, f"{flag}={size}", size, guard, args.which)
    table = getattr(tables, f"{args.which.replace('-', '_')}_table")(*sizes)
    return (1 if table.failures else 0), _Output(None, None, table)


def cmd_motzkin(args) -> tuple[int, _Output]:
    """Run a `motzkin` operation whose result is one string, `args.op(args)`."""
    result = args.op(args)
    return 0, _Output(result, {"command": f"motzkin {args.sub}", "result": result})


def cmd_noncross(args) -> tuple[int, _Output]:
    _guard(args, f"n={args.n}", args.n, NONCROSS_GUARD, "noncross")
    matchings = noncrossing_matchings(args.n)
    if args.count:
        count = str(sum(1 for _ in matchings))
        return 0, _Output(count, {"command": "motzkin noncross", "result": count})
    arcs = [format_arcs(m) for m in matchings]
    return 0, _Output("\n".join(arcs), {"command": "motzkin noncross", "result": arcs})


def cmd_sandpile(args) -> tuple[int, _Output]:
    """Run a `sandpile` operation: `args.op(args)` gives its result line, then its trace lines."""
    lines = args.op(args)
    return 0, _Output("\n".join(lines),
                      {"command": f"sandpile {args.sub}", "result": lines[0], "trace": lines[1:]})


def _stabilise(args) -> list[str]:
    config = parse_config(args.config)
    grains = sum(config)
    _guard(args, f"{grains} grains", grains, STABILISE_GUARD, "stabilise")
    stable, seq = stabilise(config)
    lines = [format_config(stable)]
    if args.trace:
        lines.append("toppled: " + (",".join(map(str, seq)) if seq else "(none)"))
    return lines


def _reduction(runner, args) -> list[str]:
    result, steps = runner(parse_config(args.config))
    lines = [format_config(result)]
    if args.trace:
        for k, st in enumerate(steps, start=1):
            lines.append(
                f"iteration {k}: duplicate at j={st.j}, "
                f"decrement c_{st.target}: {st.before} -> {st.after}")
    return lines


def cmd_verify(args) -> tuple[int, _Output]:
    if args.suite != "all":
        for flag in ("n", "m"):
            if getattr(args, flag) is not None and flag != verify.SUITES[args.suite][1]:
                raise ValueError(f"verify --suite {args.suite} does not read --{flag}")
    names = verify.SUITE_NAMES if args.suite == "all" else [args.suite]
    verify.check_caps(names, args.n)  # first: --force does not lift these
    for name in names:
        _fn, flag, _default, guard = verify.SUITES[name]
        cap = getattr(args, flag)
        if cap is not None:
            _guard(args, f"{flag}={cap}", cap, guard, f"verify --suite {name}")
    results = verify.run_suites(names, n=args.n, m=args.m, seed=args.seed)
    status = 0 if all(r.passed for r in results) else 1
    return status, _Output("\n".join(r.summary() for r in results), [
        {"suite": r.name, "passed": r.passed, "checked": r.checked,
         "detail": r.detail, "counterexample": r.counterexample} for r in results])


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The `mvpark` parser: the whole tree, or only the branch that `argv` names.

    Every `add_argument` makes an argparse `HelpFormatter` (gettext and
    `get_terminal_size`), so the whole tree, 21 parsers for 17 operations,
    takes 2.4-4.4 ms to build on a 2-vCPU VM, more than the counting of a
    small table, against 0.3-0.7 ms for one branch.  Given `argv`, the parser
    holds the root, the command `argv[0]` names and, under a group (`table`,
    `motzkin`, `sandpile`), the operation `argv[1]` names: a subparser's
    prog, usage, help and errors do not depend on its siblings.  When `argv`
    names no known command or operation (`--help` at the root or at a group,
    a typo, an option before the operation), the whole tree is built, since
    those texts list the siblings.
    """
    path = None if argv is None else list(argv[:2])
    built = []  # the operation parsers made

    def on_path(*names: str) -> bool:
        return path is None or list(names) == path[:len(names)]

    parser = argparse.ArgumentParser(
        prog="mvpark",
        description="Parking processes, outcome fibres, and their correspondences.")
    commands = parser.add_subparsers(dest="command", required=True)
    tabular = ("pretty", "csv", "json")

    def operation(group, name, func, formats=("pretty", "json"), help=None, **defaults):
        p = group.add_parser(name, help=help)
        p.add_argument("--format", choices=formats, default="pretty")
        p.add_argument("--out", metavar="PATH", help="write output to a file")
        p.set_defaults(func=func, **defaults)
        built.append(p)
        return p

    def operations(name, help, dest):
        return commands.add_parser(name, help=help).add_subparsers(dest=dest, required=True)

    def prefs(p):
        p.add_argument("-p", "--prefs", required=True, metavar="PREFS")

    if on_path("outcome"):
        p = operation(commands, "outcome", cmd_outcome, help="run one parking process")
        p.add_argument("--model", choices=["classical", "mvp"], required=True)
        prefs(p)
        p.add_argument("--trace", action="store_true", help="print each bump")

    if on_path("fibre"):
        p = operation(commands, "fibre", cmd_fibre, tabular, help="enumerate an outcome fibre")
        p.add_argument("--perm", required=True, metavar="PERM")
        p.add_argument("--method", choices=["subgraph", "brute", "both"], default="subgraph")
        p.add_argument("--force", action="store_true", help="override the fibre size guard")

    if on_path("table"):
        group = operations("table", "reproduce an enumeration table", "which")
        for which, (flags, _least, guard, _cap) in tables.TABLES.items():
            if on_path("table", which):
                p = operation(group, which, cmd_table, tabular)
                for flag in flags:
                    p.add_argument(f"--max-{flag}", type=int, default=guard)
                p.add_argument("--jobs", type=int, choices=[1], default=1,
                               help="accepted so existing command lines parse; only 1")
                p.add_argument("--force", action="store_true", help="override the size guard")

    if on_path("motzkin"):
        group = operations("motzkin", "lattice-path and non-crossing matching operations", "sub")
        if on_path("motzkin", "phi"):
            prefs(operation(group, "phi", cmd_motzkin,
                            op=lambda a: preference_path(parse_preference(a.prefs))))
        if on_path("motzkin", "inverse"):
            p = operation(group, "inverse", cmd_motzkin,
                          op=lambda a: format_preference(path_to_preference(a.path)))
            p.add_argument("--path", required=True, metavar="STEPS")
        if on_path("motzkin", "rep"):
            prefs(operation(group, "rep", cmd_motzkin, op=lambda a: format_preference(
                decreasing_representative(parse_preference(a.prefs)))))
        if on_path("motzkin", "noncross"):
            p = operation(group, "noncross", cmd_noncross)
            p.add_argument("-n", type=int, required=True, metavar="N")
            p.add_argument("--count", action="store_true", help="print the count only")
            p.add_argument("--force", action="store_true", help="override the noncross size guard")

    if on_path("sandpile"):
        group = operations("sandpile", "sandpile operations on K_n", "sub")
        for name, op in [
            ("stabilise", _stabilise),
            ("recurrent", lambda a: [
                "recurrent" if is_recurrent(parse_config(a.config)) else "not recurrent"]),
            ("minrec", lambda a: _reduction(minrec_trace, a)),
            ("minrec-classical", lambda a: _reduction(minrec_classical_trace, a)),
            ("cantop", lambda a: [format_permutation(canonical_toppling(parse_config(a.config)))]),
        ]:
            if not on_path("sandpile", name):
                continue
            p = operation(group, name, cmd_sandpile, op=op)
            p.add_argument("-c", "--config", required=True, metavar="CONFIG")
            if name in ("stabilise", "minrec", "minrec-classical"):
                p.add_argument("--trace", action="store_true",
                               help="print the toppling or reduction steps")
            if name == "stabilise":
                p.add_argument("--force", action="store_true", help="override the grain guard")
        if on_path("sandpile", "mvp-outcome"):
            prefs(operation(group, "mvp-outcome", cmd_sandpile, op=lambda a: [
                format_permutation(mvp_outcome_via_sandpile(parse_preference(a.prefs)))]))

    if on_path("verify"):
        p = operation(commands, "verify", cmd_verify, help="run exhaustive property suites")
        p.add_argument("--suite", choices=["all"] + verify.SUITE_NAMES, default="all")
        p.add_argument("--n", type=int, default=None,
                       help="override the n cap (suites that read one)")
        p.add_argument("--m", type=int, default=None,
                       help="override the m cap (suites that read one)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for the randomised abelian checks; read by no other suite")
        p.add_argument("--force", action="store_true", help="override the per-suite cap guards")
    return parser if built else build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args, unread = build_parser(argv).parse_known_args(argv)
    if unread:  # argparse refuses them under the root's usage line, which lists every command
        args = build_parser().parse_args(argv)
    try:
        status, out = args.func(args)
        if out.table is not None:
            text = getattr(tables, f"render_{args.format}")(out.table)
        else:
            text = json.dumps(out.data, indent=2) if args.format == "json" else out.text
        ending = "" if text.endswith("\n") else "\n"  # written apart: `text` can be large
        try:
            with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as sink:
                sink.write(text)
                sink.write(ending)
        except OSError as exc:
            if not args.out:  # so would the interpreter's last flush of stdout (say, a closed pipe)
                with open(os.devnull, "w") as devnull:
                    os.dup2(devnull.fileno(), sys.stdout.fileno())
            raise ValueError(f"cannot write output: {exc}") from None
        for line in out.table.failures if out.table else ():
            print(line, file=sys.stderr)
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
