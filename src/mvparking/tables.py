"""Report tables for the desk-scale enumerations, with CSV/JSON rendering.

Every cell is an exact count from one engine, `fibre_size`'s recursion over
the occupied runs met un-parking the cars, or from the P2-free and HS
dynamic programs.  The bounds, bipartite and dec-vs-split tables each pass
every cell through one run counter keyed by rank pattern, so a column reuses
the sub-runs its cells share: dec-vs-split to n = 100 keeps about 5,000 memo
entries.  A conjecture row counts all of S_n through one counter keyed by
the raw runs instead: its permutations meet the same raw sub-runs again and
again, so ranking each one before the lookup costs more than the hits it
adds (S_9 about 2.7 times slower).  `TABLES` declares each table's sizes,
least size, guard and cap; a builder checks its sizes against them before
any cell.  A table lists each identity check it failed in `failures`, which
no renderer writes.
"""

from __future__ import annotations

import csv
import io
import json
import time
from itertools import permutations
from math import comb

from .motzkin import motzkin_numbers
from .perms import bipart, dec, format_permutation, split_right
from .subgraphs import FIBRE_CAP, SizeCapExceeded, _bounds, _run_counter

__all__ = [
    "CONJECTURE_CAP",
    "ReportTable",
    "TABLES",
    "bipartite_table",
    "bounds_table",
    "conjecture_table",
    "dec_vs_split_table",
    "parse_csv",
    "render_csv",
    "render_json",
    "render_pretty",
]

Cell = int | str

# Largest `conjecture_table` size, --force or not: n <= 10 takes 21-22 s at 126 MiB peak RSS on
# a 2-vCPU VM (n <= 9: 1.8-2.4 s at 30 MiB), and n = 11 would need roughly ten times both.
CONJECTURE_CAP = 10
# Per table `<name>_table`: (the sizes its builder reads, in order, the least size that gives
# cells, the default and largest size the CLI runs without --force, and the cap, --force or not,
# on the cars of the largest cell: the sum of the sizes).  As for the verify suites, a guard is
# the largest size measured to run in at most about 1.5 minutes in one fresh process on a 2-vCPU
# VM, in under 1 GiB; the VM ran at two speeds, so each time is a range.  bipartite 80x80 takes
# 58-83 s at 48 MiB (85x85: 77-105 s at 60 MiB); bounds and dec-vs-split reach FIBRE_CAP,
# n = 255, in 19-24 s at 21 MiB and in 20-32 s at 24 MiB.
TABLES = {"bounds": (("n",), 1, FIBRE_CAP, FIBRE_CAP), "bipartite": (("m", "n"), 1, 80, FIBRE_CAP),
          "dec-vs-split": (("n",), 3, FIBRE_CAP, FIBRE_CAP),
          "conjecture": (("n",), 3, 8, CONJECTURE_CAP)}


class ReportTable:
    """A named table of cells, with its metadata and the identity checks it failed."""

    def __init__(self, name: str, headers: list[str], rows: list[list[Cell]],
                 metadata: dict | None = None, failures: list[str] | None = None) -> None:
        for row in rows:
            if len(row) != len(headers):
                raise ValueError(f"row {row} has arity {len(row)}, expected {len(headers)}")
        self.name, self.headers, self.rows = name, headers, rows
        self.metadata = {} if metadata is None else metadata
        self.failures = [] if failures is None else failures

    def column(self, header: str) -> list[Cell]:
        k = self.headers.index(header)
        return [row[k] for row in self.rows]


def _report(name: str, headers: list[str], rows, check, **metadata) -> ReportTable:
    """Build the lazy `rows`, timed as `wall_time_s`, and record what `check(rows)` fails."""
    t0 = time.perf_counter()
    rows = list(rows)
    metadata["wall_time_s"] = round(time.perf_counter() - t0, 3)
    return ReportTable(name, headers, rows, metadata, check(rows))


def _check_sizes(name: str, *sizes) -> None:
    """Refuse, before table `name` counts a cell, a size that is not an exact int
    of at least its least, and a largest cell of more cars than its cap."""
    flags, least, _guard, cap = TABLES[name]
    for flag, size in zip(flags, sizes):
        if type(size) is not int or size < least:
            raise ValueError(f"{name} table needs an int {flag} >= {least}, got {size!r}")
    if sum(sizes) > cap:
        raise SizeCapExceeded(f"{name} table's largest cell has {sum(sizes)} cars, above cap {cap}")


def _bounds_failures(rows: list[list[Cell]]) -> list[str]:
    """Check each row against the known counts on dec(n): valid = Motzkin,
    P2-free = Bell, HS = 2^(n-1), and the sandwich between them."""
    motzkin, bell = motzkin_numbers(len(rows)), [1]
    for k in range(len(rows)):  # B_{k+1} = sum_j C(k, j) B_j
        bell.append(sum(comb(k, j) * bell[j] for j in range(k + 1)))
    failures = []
    for n, subgraphs, p2free, valid, hs in rows:
        if (valid, p2free, hs) != (motzkin[n], bell[n], 2 ** (n - 1)) or not (
                subgraphs >= p2free >= valid >= hs):
            failures.append(f"FAIL bounds n={n}: valid, p2free, hs = {valid}, {p2free}, {hs}, want "
                            f"Motzkin, Bell, 2^(n-1) = {motzkin[n]}, {bell[n]}, {2 ** (n - 1)} "
                            "and subgraphs >= p2free >= valid >= hs")
    return failures


def bounds_table(max_n: int) -> ReportTable:
    """Subgraph/P2-free/valid/HS counts for the decreasing permutation."""
    _check_sizes("bounds", max_n)
    count = _run_counter()
    return _report(
        "bounds", ["n", "subgraphs", "p2free", "valid", "hs"],
        ([n, *_bounds(dec(n), count)[:4]] for n in range(1, max_n + 1)),
        _bounds_failures, max_n=max_n)


def bipartite_table(max_m: int, max_n: int) -> ReportTable:
    """Fibre sizes for the complete bipartite permutations, rows by n.

    The n = 2 row is checked against thm-4.1: m + 1 + floor((m+1)^2 / 2).
    The m = 1 column and the n = 1 row avoid 321 and 3412, so thm-2.8's
    product formula gives 2^n and m + 1 there.
    """
    _check_sizes("bipartite", max_m, max_n)

    def check(rows):
        failures = [f"FAIL bipartite m={m}: n=2 fibre is {size}, not m+1+floor((m+1)^2/2) = {want}"
                    for m, size in enumerate(rows[1][1:] if max_n >= 2 else (), start=1)
                    if size != (want := m + 1 + (m + 1) ** 2 // 2)]
        cells = [(1, n, 2 ** n, "2^n") for n in range(1, max_n + 1)]
        cells += [(m, 1, m + 1, "m+1") for m in range(2, max_m + 1)]
        return failures + [
            f"FAIL bipartite m={m} n={n}: fibre is {rows[n - 1][m]}, not thm-2.8's {rule} = {want}"
            for m, n, want, rule in cells if rows[n - 1][m] != want]

    count = _run_counter()
    return _report(
        "bipartite", ["n"] + [f"m{m}" for m in range(1, max_m + 1)],
        ([n, *(count(bipart(m, n)) for m in range(1, max_m + 1))] for n in range(1, max_n + 1)),
        check, max_m=max_m, max_n=max_n)


def dec_vs_split_table(max_n: int) -> ReportTable:
    """Fibre sizes of the decreasing vs the split permutation, n = 3..max_n.

    The dec column is checked against the Motzkin numbers.
    """
    _check_sizes("dec-vs-split", max_n)
    motzkin, count = motzkin_numbers(max_n), _run_counter()
    return _report(
        "dec-vs-split", ["n", "dec", "split"],
        ([n, count(dec(n)), count(split_right(2, n - 2))] for n in range(3, max_n + 1)),
        lambda rows: [f"FAIL dec-vs-split n={n}: dec fibre is {size}, not Motzkin(n) = {motzkin[n]}"
                      for n, size, _ in rows if size != motzkin[n]],
        max_n=max_n)


def _conjecture_row(n: int, failures: list[str]) -> list[Cell]:
    count = _run_counter(by_pattern=False)
    total, best, argmax = 0, -1, []
    for word in permutations(range(1, n + 1)):  # lexicographic: argmax[0] is the least
        size = count(word)
        total += size
        if size > best:
            best, argmax = size, []
        if size == best:
            argmax.append(word)
    parking_functions = (n + 1) ** (n - 1)
    if total != parking_functions:
        failures.append(f"FAIL conjecture n={n}: fibre sizes sum to {total}, "
                        f"not (n+1)^(n-1) = {parking_functions}")
    split_size = count(split_right(2, n - 2))
    return [n, best, len(argmax), split_size, count(dec(n)),
            "yes" if split_size == best else "no", format_permutation(argmax[0])]


def conjecture_table(max_n: int) -> ReportTable:
    """Exhaustive fibre-size maxima over whole symmetric groups, n = 3..max_n.

    Data for the largest-fibre question only; proves nothing.  Each row
    checks that its fibres partition the (n+1)^(n-1) parking functions.
    """
    _check_sizes("conjecture", max_n)
    failures: list[str] = []
    return _report(
        "conjecture", ["n", "max_fibre", "argmax_count", "split_fibre", "dec_fibre",
                       "split_is_max", "first_argmax"],
        (_conjecture_row(n, failures) for n in range(3, max_n + 1)),
        lambda rows: failures, max_n=max_n, exhaustive_over="S_n")


def render_pretty(table: ReportTable) -> str:
    cols = [[h, *(str(r[k]) for r in table.rows)] for k, h in enumerate(table.headers)]
    widths = [max(len(x) for x in col) for col in cols]
    lines = [f"# {table.name}"]
    lines.append("  ".join(h.rjust(w) for h, w in zip(table.headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in table.rows:
        lines.append("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))
    if table.metadata:
        meta = " ".join(f"{k}={v}" for k, v in sorted(table.metadata.items()))
        lines.append(f"# {meta}")
    return "\n".join(lines) + "\n"


def render_csv(table: ReportTable) -> str:
    """Headers then rows; integer cells unquoted, LF line endings.

    Metadata is deliberately not serialised: CSV is the diff-friendly
    golden format and must depend on the cells alone.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.headers)
    writer.writerows(table.rows)
    return buf.getvalue()


def render_json(table: ReportTable) -> str:
    return json.dumps(
        {"name": table.name, "headers": table.headers, "rows": table.rows,
         "metadata": table.metadata},
        indent=2,
    ) + "\n"


def _cell_from_text(text: str) -> Cell:
    try:
        return int(text)
    except ValueError:
        return text


def parse_csv(text: str) -> tuple[list[str], list[list[Cell]]]:
    """render_csv's text read back as (headers, typed rows), without metadata:
    a cell that reads as an int, such as the permutation 312, comes back as an int."""
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows:
        raise ValueError("empty CSV")
    headers = rows[0]
    return headers, [[_cell_from_text(c) for c in row] for row in rows[1:]]
