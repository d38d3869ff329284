"""Report tables for the desk-scale enumerations, with CSV/JSON rendering.

Every cell is an exact count: fibre sizes come from the car-order dynamic
program `fibre_size`, the P2-free and HS counts from their dynamic programs
over the vertices; no cell walks subgraphs or reads a stored table.
Builders accept a `jobs` argument to fan independent cells out over worker
processes; results are merged in canonical order so output is identical
regardless of job count.
A table lists each identity check it failed in `failures`, which no
renderer writes.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import islice, permutations
from math import comb, factorial

from .motzkin import motzkin_numbers
from .perms import bipart, dec, format_permutation, split_right
from .subgraphs import bounds, fibre_size

__all__ = [
    "ReportTable",
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


@dataclass
class ReportTable:
    name: str
    headers: list[str]
    rows: list[list[Cell]]
    metadata: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.headers):
                raise ValueError(f"row {row} has arity {len(row)}, expected {len(self.headers)}")

    def column(self, header: str) -> list[Cell]:
        k = self.headers.index(header)
        return [row[k] for row in self.rows]


def _workers(jobs: int, tasks: int) -> int:
    """Worker processes for `tasks` independent cells: at least one, and
    never more than asked for, than there are cells, or than there are CPUs."""
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def _map_jobs(fn, specs, jobs):
    workers = _workers(jobs, len(specs))
    if workers == 1:
        return [fn(s) for s in specs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, specs))


def _bounds_row(n: int) -> list[Cell]:
    b = bounds(dec(n))
    return [n, b.product_upper, b.p2free_count, b.fibre_size, b.hs_count]


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


def bounds_table(max_n: int, jobs: int = 1) -> ReportTable:
    """Subgraph/P2-free/valid/HS counts for the decreasing permutation."""
    t0 = time.perf_counter()
    rows = _map_jobs(_bounds_row, range(1, max_n + 1), jobs)
    return ReportTable(
        name="bounds",
        headers=["n", "subgraphs", "p2free", "valid", "hs"],
        rows=rows,
        metadata={"max_n": max_n, "wall_time_s": round(time.perf_counter() - t0, 3)},
        failures=_bounds_failures(rows),
    )


def _bipartite_cell(spec: tuple[int, int]) -> int:
    m, n = spec
    return fibre_size(bipart(m, n))


def bipartite_table(max_m: int, max_n: int, jobs: int = 1) -> ReportTable:
    """Fibre sizes for the complete bipartite permutations, rows by n."""
    t0 = time.perf_counter()
    specs = [(m, n) for n in range(1, max_n + 1) for m in range(1, max_m + 1)]
    cells = _map_jobs(_bipartite_cell, specs, jobs)
    rows: list[list[Cell]] = []
    for k, n in enumerate(range(1, max_n + 1)):
        rows.append([n, *cells[k * max_m : (k + 1) * max_m]])
    return ReportTable(
        name="bipartite",
        headers=["n"] + [f"m{m}" for m in range(1, max_m + 1)],
        rows=rows,
        metadata={"max_m": max_m, "max_n": max_n, "wall_time_s": round(time.perf_counter() - t0, 3)},
    )


def _dec_vs_split_row(n: int) -> list[Cell]:
    return [n, fibre_size(dec(n)), fibre_size(split_right(2, n - 2))]


def dec_vs_split_table(max_n: int, jobs: int = 1) -> ReportTable:
    """Fibre sizes of the decreasing vs the split permutation, n = 3..max_n."""
    t0 = time.perf_counter()
    rows = _map_jobs(_dec_vs_split_row, range(3, max_n + 1), jobs)
    return ReportTable(
        name="dec-vs-split",
        headers=["n", "dec", "split"],
        rows=rows,
        metadata={"max_n": max_n, "wall_time_s": round(time.perf_counter() - t0, 3)},
    )


def _conjecture_chunk(spec) -> list[int]:
    n, lo, hi = spec
    words = islice(permutations(range(1, n + 1)), lo, hi)
    return [fibre_size(word) for word in words]


def _conjecture_row(n: int, jobs: int, failures: list[str]) -> list[Cell]:
    total = factorial(n)
    step = -(-total // _workers(jobs, total))
    chunks = [(n, lo, min(lo + step, total)) for lo in range(0, total, step)]
    sizes: list[int] = []
    for part in _map_jobs(_conjecture_chunk, chunks, jobs):
        sizes.extend(part)
    parking_functions = (n + 1) ** (n - 1)
    if sum(sizes) != parking_functions:
        failures.append(f"FAIL conjecture n={n}: fibre sizes sum to {sum(sizes)}, "
                        f"not (n+1)^(n-1) = {parking_functions}")
    best = max(sizes)
    argmax = [k for k, s in enumerate(sizes) if s == best]
    perms_list = list(permutations(range(1, n + 1)))
    split = split_right(2, n - 2)
    split_size = sizes[perms_list.index(split)]
    dec_size = sizes[perms_list.index(dec(n))]
    return [
        n,
        best,
        len(argmax),
        split_size,
        dec_size,
        "yes" if split_size == best else "no",
        format_permutation(perms_list[argmax[0]]),
    ]


def conjecture_table(max_n: int, jobs: int = 1) -> ReportTable:
    """Exhaustive fibre-size maxima over whole symmetric groups, n = 3..max_n.

    Data for the largest-fibre question only; proves nothing.  Each row
    checks that its fibres partition the (n+1)^(n-1) parking functions.
    """
    t0 = time.perf_counter()
    failures: list[str] = []
    rows = [_conjecture_row(n, jobs, failures) for n in range(3, max_n + 1)]
    return ReportTable(
        name="conjecture",
        headers=["n", "max_fibre", "argmax_count", "split_fibre", "dec_fibre",
                 "split_is_max", "first_argmax"],
        rows=rows,
        metadata={"max_n": max_n, "exhaustive_over": "S_n",
                  "wall_time_s": round(time.perf_counter() - t0, 3)},
        failures=failures,
    )


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
    """Inverse of render_csv up to metadata: (headers, typed rows)."""
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows:
        raise ValueError("empty CSV")
    headers = rows[0]
    return headers, [[_cell_from_text(c) for c in row] for row in rows[1:]]
