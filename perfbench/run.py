"""The mvparking benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sn-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads (see perfbench/workloads.py for why each was chosen):
  big-fibres  heavy cells of the bipartite and dec-vs-split tables via `mvpark table`
  sn-sweep    every fibre of S_7, then `bounds` on a seeded sample of S_9
  pf-stream   seeded preference vectors through parking, subgraphs, sandpile, motzkin
  verify-all  every `mvpark verify` suite at default caps, one command per suite

Every pass runs in a fresh worker interpreter (perfbench/worker.py), so
per-process caches and imports are paid in every pass, as a CLI user pays
them in every command.  Passes repeat until the next one would end after
`--seconds`, and each operation's latency is its median over the run's
passes.  Every pass sends the same operations in the same order, so each
repetition of an operation runs at the same point of a fresh process, after
the same earlier operations: a cache is paid, or reused, exactly as in the
first pass.

Every time is in seconds at the reference speed of perfbench/speed.py:
each pass samples the processor speed it gets while it runs and scales
its wall time by it.  On a 2-vCPU virtual machine shared with other
tenants, ten consecutive big-fibres passes took 1.98 to 3.02 s of wall
time, while their scaled times stayed within 12% of each other.

With `--trace 0` it prints the end-to-end metrics: the time of a pass as
the sum of the median latencies, operations per second, p50 and p99
operation latency, the peak resident memory of a worker, and the median
start-up time of a fresh `mvpark`.
With `--trace 1` plain and traced passes alternate, and it prints the
per-layer metrics of the fastest traced pass (perfbench/tracing.py) and
writes its spans to perfbench/out/<workload>.spans.json.  Every output is
checked; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
check passed, 1 when one failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("big-fibres", "sn-sweep", "pf-stream", "verify-all")
END_TO_END = {"wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p99_ms": "ms",
              "peak_rss_mb": "MiB", "setup_s": "s"}
TIME_LIMIT_S = 170  # a run must end within 180 s
JOBS = 1  # tables run at --jobs 1, see workloads.py


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def metadata(args, workload: str) -> dict:
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": nproc(),
        "jobs": JOBS,
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


class WorkerFailed(Exception):
    pass


SETUP_PROBES = 25
# The probe reads the clock when the parser is built, then measures the
# processor speed it ran at (perfbench/speed.py), outside the timed span.
SETUP_ARGV = [sys.executable, "-c", "import mvparking.cli as c; c.build_parser(); "
              "from time import perf_counter; t = perf_counter(); "
              f"import sys; sys.path.insert(0, {str(HERE)!r}); import speed; print(t, speed.scale())"]


def src_env() -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    # A fixed string-hash seed gives every process the same dict layouts.
    return dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0")


def setup_probe() -> float:
    """Time from starting a fresh interpreter until it has imported
    mvparking and built the `mvpark` parser, in seconds at the reference
    speed of perfbench/speed.py.

    perf_counter reads the system-wide monotonic clock, so the probe's
    reading when the parser is built and this process's reading before it
    started share one time line.  The probe is short against the seconds
    for which the host's speed holds, so it is scaled by the speed the
    probe measures just after.
    """
    t0 = perf_counter()
    try:
        proc = subprocess.run(SETUP_ARGV, env=src_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=60)
    except subprocess.TimeoutExpired:
        raise WorkerFailed("set-up probe did not finish in time") from None
    if proc.returncode:
        raise WorkerFailed(f"set-up probe exited with {proc.returncode}")
    built, scale = map(float, proc.stdout.split())
    return (built - t0) * scale


def run_worker(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """One fresh worker interpreter: one pass of `workload`, or its pins."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=src_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise WorkerFailed(f"{workload} {mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def quantile(latencies: list[tuple[float, int]], q: float) -> float:
    """Nearest-rank quantile of (value, count) pairs."""
    pairs = sorted(latencies)
    rank = q * sum(count for _v, count in pairs)
    seen = 0
    for value, count in pairs:
        seen += count
        if seen >= rank:
            return value
    return pairs[-1][0]


def median_latencies(passes: list[dict]) -> list[tuple[float, int]]:
    """Each operation's median latency over the passes, with its count."""
    per_pass = [[seconds for seconds, _count in p["latencies"]] for p in passes]
    counts = [count for _seconds, count in passes[0]["latencies"]]
    return [(statistics.median(column), count) for column, count in zip(zip(*per_pass), counts)]


def untraced(args, workload: str, deadline: float) -> tuple[list[dict], dict]:
    """Plain passes until the next would end after `--seconds`.  The set-up
    probes are spread over the run, between passes, so that their median
    samples the same host conditions as the passes; one unmeasured probe
    first fills the bytecode cache, as an installed CLI would have it."""
    setup_probe()
    setup: list[float] = []
    passes: list[dict] = []
    took: list[float] = []
    started = perf_counter()
    while True:
        while len(setup) < SETUP_PROBES and perf_counter() - started >= len(setup) * args.seconds / SETUP_PROBES:
            setup.append(setup_probe())
        t0 = perf_counter()
        passes.append(run_worker(workload, args.seed, "plain", deadline))
        took.append(perf_counter() - t0)
        if perf_counter() - started + statistics.median(took) > args.seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe())
    latencies = median_latencies(passes)
    wall = sum(seconds * count for seconds, count in latencies)
    return passes, {
        "wall_s": wall,
        "ops_per_s": passes[0]["ops"] / wall,
        "op_p50_ms": quantile(latencies, 0.50) * 1e3,
        "op_p99_ms": quantile(latencies, 0.99) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setup),
    }


def traced(args, workload: str, deadline: float) -> tuple[list[dict], dict]:
    """Plain and traced passes alternate until the next pair would end after
    `--seconds`; then the pinned walks are checked in one more worker.  The
    per-layer metrics and the spans are those of the fastest traced pass.
    The traced wall time, like the untraced one, is the sum of each
    operation's median latency, and the tracing overhead is the traced
    minus the untraced wall time."""
    started = perf_counter()
    plain: list[dict] = []
    tracedp: list[dict] = []
    spans = HERE / "out" / f"{workload}.spans.json"
    while True:
        t0 = perf_counter()
        plain.append(run_worker(workload, args.seed, "plain", deadline))
        tracedp.append(run_worker(workload, args.seed, "traced", deadline))
        # Keep the spans of the fastest traced pass only.
        if tracedp[-1] is min(tracedp, key=lambda p: p["wall_s"]):
            os.replace(tracedp[-1]["spans_file"], spans)
        else:
            os.unlink(tracedp[-1]["spans_file"])
        if perf_counter() - started + (perf_counter() - t0) > args.seconds:
            break
    pins = run_worker(workload, args.seed, "pins", deadline)

    plain_wall, traced_wall = (sum(seconds * count for seconds, count in median_latencies(passes))
                               for passes in (plain, tracedp))
    metrics = dict(min(tracedp, key=lambda p: p["wall_s"])["metrics"])
    cell_s = metrics["tables.cell_s_sum"]
    metrics["tables.parallel_eff"] = cell_s / (JOBS * plain_wall) if metrics["tables.cells"] else 0.0
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return plain + tracedp + [pins], metrics


def run_workload(args, workload: str, deadline: float) -> dict:
    passes, metrics = (traced if args.trace else untraced)(args, workload, deadline)
    return {
        "passes": sum("wall_s" in p for p in passes),
        "raw_wall_s": min(p["raw_wall_s"] for p in passes if "raw_wall_s" in p),
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "notes": [note for p in passes for note in p["notes"]],
        "metrics": metrics,
    }


def report(workload: str, result: dict, meta: dict, trace: int) -> dict:
    """Print a readable summary and return the result object."""
    units = {name: unit for name, unit, _better in PER_LAYER} if trace else END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    attempted, failed = result["attempted"], result["failed"]
    print(f"# {workload}: {result['passes']} passes, {attempted} operations, "
          f"error_rate {failed / attempted:.6g} ({failed}/{attempted}), "
          f"fastest pass {result['raw_wall_s']:.4g} s unscaled")
    for note in result["notes"]:
        print(f"# FAIL {note}")
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    print("# meta " + json.dumps(meta))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + TIME_LIMIT_S
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "mvparking" / "__init__.py").is_file():
        print(f"error: no mvparking sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(args, name, deadline if len(names) == 1 else perf_counter() + TIME_LIMIT_S)
        except WorkerFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if result["attempted"] < 1:
            print(f"error: {name} checked no operations", file=sys.stderr)
            return 2
        out = report(name, result, metadata(args, name), args.trace)
        combined["correct"] &= out["correct"]
        combined["attempted"] += out["attempted"]
        combined["failed"] += out["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        combined["metrics"].update({prefix + k: v for k, v in out["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
