"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

A workload is built from a seed and then runs one pass, in a fresh
interpreter (perfbench/worker.py).  Only the calls into mvparking are timed:
inputs and expected values are prepared from the benchmark's own oracles
when the workload is built, so nothing in mvparking runs before the pass,
and each output is checked after its operation's clock has stopped.

Each workload is a closed loop with a single client: the next operation is
sent when the previous one has returned.  Tables run at `--jobs 1`: with two
worker processes the paper-size big-fibres pass varied by 17% between
repeats on a 2-CPU machine shared with other jobs, against 2% at one job.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import traceback
from dataclasses import dataclass, field
from itertools import permutations
from time import perf_counter

from mvparking.cli import main as mvpark
from mvparking.motzkin import decreasing_fibre, is_motzkin_path, preference_path
from mvparking.parking import (
    NotAParkingFunction,
    displacement_mvp,
    is_parking_function,
    outcome_classical,
    outcome_mvp,
)
from mvparking.sandpile import mvp_outcome_via_sandpile
from mvparking.subgraphs import bounds, fibre_via_subgraphs, pf_to_subgraph, subgraph_to_pf

import oracles

JOBS = 1


@dataclass
class PassResult:
    """One pass: its timed intervals, operations and failures.

    `timed` holds (start, end, count) triples of perf_counter readings: an
    operation timed on its own has count 1; operations that run inside one
    command (table cells, verify cases) share that command's time equally.
    """

    ops: int = 0
    failed: int = 0
    timed: list[tuple[float, float, int]] = field(default_factory=list)

    def add(self, start: float, end: float, ops: int, failed: int) -> None:
        self.ops += ops
        self.failed += failed
        self.timed.append((start, end, ops))

    def latencies(self, seconds=lambda start, end: end - start) -> list[tuple[float, int]]:
        """(seconds per operation, count) of each timed interval, its time
        measured by `seconds`."""
        return [(seconds(start, end) / ops, ops) for start, end, ops in self.timed]


def _timed(fn, *args):
    """(result, start, end) of fn(*args); the result is None if it raised,
    and the traceback is printed after the clock has stopped."""
    error = None
    t0 = perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:
        result, error = None, exc
    t1 = perf_counter()
    if error is not None:
        traceback.print_exception(error)
    return result, t0, t1


def _run_cli(argv: list[str]) -> tuple[int | None, str, float, float]:
    """(exit code, captured stdout, start, end) of one `mvpark` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code, t0, t1 = _timed(mvpark, argv)
    return code, out.getvalue(), t0, t1


# ---------------------------------------------------------------- inputs

def random_permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return tuple(word)


def uniform_parking_function(rng: random.Random, n: int) -> tuple[int, ...]:
    """Pollak's circular argument: of the n+1 rotations of a uniform vector
    in [1, n+1]^n, exactly one is a parking function, so it is uniform."""
    a = [rng.randint(1, n + 1) for _ in range(n)]
    for shift in range(n + 1):
        p = tuple((x - 1 + shift) % (n + 1) + 1 for x in a)
        if max(p) <= n and oracles.is_parking_function(p):
            return p
    raise AssertionError("no rotation parks")  # impossible by Pollak's argument


def non_parking_vector(rng: random.Random, n: int) -> tuple[int, ...]:
    while True:
        p = tuple(rng.randint(1, n) for _ in range(n))
        if not oracles.is_parking_function(p):
            return p


PF_LENGTHS = (6, 16)
NON_PF_EVERY = 8  # one vector in eight is not a parking function


def preference_stream(seed: int, count: int) -> list[tuple[int, ...]]:
    """`count` vectors of lengths 6..16; exactly count // 8 do not park."""
    rng = random.Random(seed)
    flags = [k < count // NON_PF_EVERY for k in range(count)]
    rng.shuffle(flags)
    return [
        (non_parking_vector if bad else uniform_parking_function)(rng, rng.randint(*PF_LENGTHS))
        for bad in flags
    ]


# ------------------------------------------------------------- workloads

class Workload:
    """What every workload shares: no pinned walks and no checks that must
    wait until the pass has ended."""

    pins: tuple[str, ...] = ()

    def check_after(self, result: PassResult) -> None:
        pass


class BigFibres(Workload):
    """The heavy cells of the paper's tables through `mvpark table`.

    A few large P2-pruned walks: almost all the time is in `subgraphs` and
    its simulation kernel, and the bipartite (7,6) cell is about a third of
    it.  An operation is one table cell.  The seed sets the order of the two
    commands.

    The tables stop one size short of the paper's (dec-vs-split to n = 11,
    bipartite to (7,7)): at full size a pass took 14 s on an idle 2-vCPU
    host and 17 to 24 s under other tenants' load, so a 30 s run would hold
    one or two passes and could not take the median of several.  One size
    down a pass takes about 2 s.  The full-size cells are walked once in
    the traced run, to check the pinned walk counters.
    """

    name = "big-fibres"
    pins = tuple(oracles.PINNED_COUNTERS)
    MAX_N, BIPARTITE = 10, (7, 6)
    COMMANDS = {
        "dec-vs-split": ["table", "dec-vs-split", "--max-n", str(MAX_N)],
        "bipartite": ["table", "bipartite", "--max-m", str(BIPARTITE[0]),
                      "--max-n", str(BIPARTITE[1])],
    }

    def __init__(self, seed: int) -> None:
        self.order = sorted(self.COMMANDS)
        random.Random(seed).shuffle(self.order)
        self.expected = {"dec-vs-split": oracles.dec_vs_split_rows(self.MAX_N),
                         "bipartite": oracles.bipartite_rows(*self.BIPARTITE)}
        self.dec_column: dict[int, int] = {}

    def run_pass(self) -> PassResult:
        result = PassResult()
        for name in self.order:
            expected = self.expected[name]
            cells = sum(len(row) - 1 for row in expected)
            code, out, t0, t1 = _run_cli(
                [*self.COMMANDS[name], "--format", "csv", "--jobs", str(JOBS)])
            failed = cells if code != 0 else self._bad_cells(name, out, expected, cells)
            result.add(t0, t1, cells, failed)
        return result

    def _bad_cells(self, name, out, expected, cells) -> int:
        rows = list(csv.reader(io.StringIO(out)))[1:]
        try:
            got = [[int(c) for c in row] for row in rows]
        except ValueError:
            return cells
        if len(got) != len(expected) or any(len(g) != len(e) for g, e in zip(got, expected)):
            return cells
        bad = 0
        for g, e in zip(got, expected):
            wrong = [g[0] != e[0] or x != y for x, y in zip(g[1:], e[1:])]
            if name == "dec-vs-split" and not wrong[0]:
                self.dec_column[e[0]] = g[1]
            bad += sum(wrong)
        return bad

    def check_after(self, result: PassResult) -> None:
        """A second route to the dec column: the fibre via non-crossing
        matchings.  It calls mvparking, so it runs after the pass, outside
        timing and tracing."""
        result.failed += sum(len(decreasing_fibre(n)) != dec for n, dec in self.dec_column.items())


class SnSweep(Workload):
    """Every permutation of S_7 through `fibre_via_subgraphs`, then seeded
    random permutations of S_9 through `bounds`.

    Thousands of small walks, where fixed per-call costs dominate:
    validation, inversion lists, closure set-up and sorting.  `bounds` runs
    three separate walks plus a product.  An operation is one permutation;
    the seed sets the order of S_7 and draws the sample.

    The sample is kept under 1% of the operations, so p99 falls in the S_7
    tail: `bounds` times on S_9 are heavy-tailed (coefficient of variation
    about 1.1), and with a larger sample p99 moved by 25% from seed to seed.
    """

    name = "sn-sweep"
    SAMPLE_N = 9
    SAMPLE_SIZE = 40

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.s7 = list(permutations(range(1, 8)))
        rng.shuffle(self.s7)
        self.sample = [random_permutation(rng, self.SAMPLE_N) for _ in range(self.SAMPLE_SIZE)]
        self.limits = {w: (1 + oracles.inversion_count(w), oracles.subgraph_count(w))
                       for w in self.s7 + self.sample}

    def run_pass(self) -> PassResult:
        result = PassResult()
        total = bad = 0
        for w in self.s7:
            fibre, t0, t1 = _timed(fibre_via_subgraphs, w)
            fibre = fibre or []
            total += len(fibre)
            lo, hi = self.limits[w]
            ok = (lo <= len(fibre) <= hi and fibre == sorted(set(fibre))
                  and oracles.mvp_outcome(fibre[0])[0] == w
                  and oracles.mvp_outcome(fibre[-1])[0] == w)
            bad += not ok
            result.add(t0, t1, 1, 0)
        # The fibres partition the parking functions of length 7: 8^6 of them.
        result.failed += len(self.s7) if total != 8**6 else bad
        for w in self.sample:
            b, t0, t1 = _timed(bounds, w)
            lo, hi = self.limits[w]
            ok = (b is not None and b.single_arc_lower == lo and b.product_upper == hi
                  and lo <= b.hs_count <= b.fibre_size <= b.p2free_count <= hi)
            result.add(t0, t1, 1, not ok)
        return result


class PfStream(Workload):
    """A seeded stream of preference vectors through the validating API.

    Uniform parking functions (Pollak) of lengths 6..16, one vector in
    eight not parking.  Each goes through every public per-vector call of
    `parking`, the subgraph round trip, the sandpile route and the Motzkin
    path; the subgraph walk does almost none of the work.  An operation is
    one vector.
    """

    name = "pf-stream"
    COUNT = 4000

    def __init__(self, seed: int) -> None:
        self.vectors = preference_stream(seed, self.COUNT)
        self.expected = []
        for p in self.vectors:
            outcome, bumps = oracles.mvp_outcome(p)
            self.expected.append(outcome and (
                outcome, bumps, oracles.classical_outcome(p), max(map(p.count, p)) <= 2))

    def run_pass(self) -> PassResult:
        result = PassResult()
        for p, expected in zip(self.vectors, self.expected):
            got, t0, t1 = _timed(self._parks if expected else self._refused, p)
            ok = got is not None and got == (self._expect(p, got, expected) if expected
                                             else (False, 5, False))
            result.add(t0, t1, 1, not ok)
        return result

    @staticmethod
    def _parks(p) -> tuple:
        parks = is_parking_function(p)
        mvp = outcome_mvp(p)
        classical = outcome_classical(p)
        displacement = displacement_mvp(p)
        arcs = pf_to_subgraph(p)
        back = subgraph_to_pf(arcs, mvp.outcome)
        via_sandpile = mvp_outcome_via_sandpile(p)
        is_motzkin = is_motzkin_path(preference_path(p))
        return (parks, mvp.outcome, len(mvp.bump_log), classical, via_sandpile, back,
                displacement, arcs, is_motzkin)

    @staticmethod
    def _expect(p, got, expected) -> tuple:
        """What `_parks` must return: the round trip gives p back and the
        displacement is the total length of the arcs it returned."""
        outcome, bumps, classical, two_per_spot = expected
        arcs = got[7]
        return (True, outcome, bumps, classical, outcome, p,
                sum(i - j for j, i in arcs), arcs, two_per_spot)

    @staticmethod
    def _refused(p) -> tuple:
        """(parks, how many outcome calls refused p, is the path Motzkin)."""
        parks = is_parking_function(p)
        refused = 0
        for fn in (outcome_mvp, outcome_classical, displacement_mvp,
                   pf_to_subgraph, mvp_outcome_via_sandpile):
            try:
                fn(p)
            except NotAParkingFunction:
                refused += 1
        return parks, refused, is_motzkin_path(preference_path(p))


class VerifyAll(Workload):
    """Every `mvpark verify` suite at its default caps.

    The only workload that exercises `verify`, the unpruned subgraph
    enumeration, the Motzkin arc surgery and non-crossing matchings, and
    sandpile toppling and stabilisation.  An operation is one checked case;
    the seed is passed to `--seed`, which draws the abelian suite's cases.

    Each suite runs as its own `mvpark verify --suite <name>` command, in
    the order `--suite all` uses, all in one interpreter.  Each suite is
    timed on its own, so the cases of a cheap suite and of a costly one get
    different latencies; as one `--suite all` command every case would
    share a single latency.
    """

    name = "verify-all"

    def __init__(self, seed: int) -> None:
        self.expected = oracles.verify_case_counts()
        self.commands = {name: ["verify", "--suite", name, "--format", "json", "--seed", str(seed)]
                         for name in self.expected}

    def run_pass(self) -> PassResult:
        result = PassResult()
        for name, cases in self.expected.items():
            code, out, t0, t1 = _run_cli(self.commands[name])
            try:
                (suite,) = json.loads(out) if code == 0 else [None]
            except ValueError:
                suite = None
            ok = suite is not None and suite["passed"] and suite["checked"] == cases
            result.add(t0, t1, cases, 0 if ok else cases)
        return result


WORKLOADS = {w.name: w for w in (BigFibres, SnSweep, PfStream, VerifyAll)}
