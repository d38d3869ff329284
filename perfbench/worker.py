"""Run one pass of a benchmark workload in this fresh interpreter.

perfbench/run.py starts one worker per pass, so every pass pays imports and
per-process caches as a CLI user pays them: nothing a pass leaves behind in
memory reaches the next one.  The worker builds the workload's inputs from
the seed, calls nothing in mvparking before the timed pass, runs the pass,
and prints one JSON object as the last line of standard output.

Times are in seconds at the reference speed of perfbench/speed.py: the
pass runs under its SpeedSampler, and each operation's wall time is scaled
by the processor speed sampled while it ran.

Modes:
  plain   wall time, operations, failures, each operation's latency, peak RSS
  traced  the same pass with every cross-module call wrapped in a span
          (perfbench/tracing.py); adds the per-layer metrics, and writes
          the spans to a file of its own under perfbench/out/
  pins    walks the pinned permutations once, untimed, and compares their
          exact counters with the pinned values
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import mvparking  # noqa: E402
from mvparking.subgraphs import (  # noqa: E402
    count_one_subgraphs,
    fibre_via_subgraphs,
    p2_free_count,
)

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedSampler  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB.  Tables run at jobs 1, so
    the workload starts no pool workers."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def leaf_counter():
    """leaves_of(word, prune_p2): the leaves a fibre walk of `word` visits,
    counted once per word and outside any timed region."""
    leaves: dict[tuple, int] = {}

    def leaves_of(word, prune_p2):
        key = (word, prune_p2)
        if key not in leaves:
            leaves[key] = (p2_free_count if prune_p2 else count_one_subgraphs)(word)
        return leaves[key]

    return leaves_of


def one_pass(workload, trace: bool) -> dict:
    tracer = tracing.Tracer()
    if trace:
        tracer.install(callers=[workloads])
    try:
        with SpeedSampler() as sampler:
            result = workload.run_pass()
    finally:
        tracer.uninstall()
    workload.check_after(result)
    latencies = result.latencies(sampler.seconds)
    wall = sum(seconds * count for seconds, count in latencies)
    out = {
        "wall_s": wall,
        "raw_wall_s": sum(seconds * count for seconds, count in result.latencies()),
        "ops": result.ops,
        "failed": result.failed,
        "peak_rss_mb": peak_rss_mb(),
        "latencies": latencies,
        "notes": [],
    }
    if trace:
        out["metrics"] = tracer.metrics(wall, leaf_counter(), sampler.seconds)
        spans_file = HERE / "out" / f"{workload.name}.{os.getpid()}.spans.json"
        spans_file.parent.mkdir(exist_ok=True)
        spans_file.write_text(json.dumps(tracer.spans()), encoding="utf-8")
        out["spans_file"] = str(spans_file)
    return out


def check_pins(keys, leaves_of) -> list[str]:
    """Walk each pinned permutation once and compare its exact counters
    (P2-free leaves, fibre size) with the pinned values."""
    problems = []
    for key in keys:
        word, leaves, hits = oracles.PINNED_COUNTERS[key]
        walked = (leaves_of(word, True), len(fibre_via_subgraphs(word)))
        if walked != (leaves, hits):
            problems.append(f"{key}: walked (leaves, hits) = {walked}, pinned {(leaves, hits)}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["plain", "traced", "pins"], required=True)
    args = parser.parse_args(argv)
    if not Path(mvparking.__file__).resolve().is_relative_to(SRC):
        print(f"error: mvparking was imported from {mvparking.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.mode == "pins":
        problems = check_pins(workload.pins, leaf_counter())
        out = {"ops": len(workload.pins), "failed": len(problems), "notes": problems}
    else:
        out = one_pass(workload, args.mode == "traced")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
