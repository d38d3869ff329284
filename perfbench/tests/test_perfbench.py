"""Tests of the benchmark itself: seeded inputs, generators, checks, tracing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from itertools import product
from pathlib import Path
import random
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from mvparking.parking import is_parking_function  # noqa: E402
from mvparking.subgraphs import fibre_via_subgraphs, p2_free_count  # noqa: E402


def inputs(workload):
    return {
        "big-fibres": lambda w: w.order,
        "sn-sweep": lambda w: (w.s7, w.sample),
        "pf-stream": lambda w: w.vectors,
        "verify-all": lambda w: w.commands,
    }[workload.name](workload)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    cls = workloads.WORKLOADS[name]
    assert inputs(cls(7)) == inputs(cls(7))


@pytest.mark.parametrize("name", ["sn-sweep", "pf-stream", "verify-all"])
def test_other_seed_gives_other_inputs(name):
    cls = workloads.WORKLOADS[name]
    assert inputs(cls(7)) != inputs(cls(8))


def test_stream_parks_except_the_intended_share():
    vectors = workloads.preference_stream(3, 800)
    parks = [oracles.is_parking_function(p) for p in vectors]
    assert parks == [is_parking_function(p) for p in vectors]
    assert parks.count(False) == 800 // workloads.NON_PF_EVERY
    lo, hi = workloads.PF_LENGTHS
    assert all(lo <= len(p) <= hi and max(p) <= len(p) for p in vectors)


def test_pollak_generator_is_uniform_on_small_n():
    rng = random.Random(0)
    counts = Counter(workloads.uniform_parking_function(rng, 3) for _ in range(16_000))
    everything = {p for p in product(range(1, 4), repeat=3) if oracles.is_parking_function(p)}
    assert set(counts) == everything and len(everything) == 16
    assert all(850 <= c <= 1150 for c in counts.values())


def test_oracles_agree_with_known_counts():
    assert oracles.bell_numbers(11)[11] == oracles.PINNED_COUNTERS["dec(11)"][1]
    assert oracles.motzkin_numbers(11)[11] == oracles.PINNED_COUNTERS["dec(11)"][2]
    assert oracles.mvp_outcome((3, 1, 1, 2)) == ((3, 4, 1, 2), 2)
    assert oracles.classical_outcome((3, 1, 1, 2)) == (2, 3, 1, 4)


def test_wrong_table_cell_is_a_failure():
    wl = workloads.BigFibres(1)
    wl.COMMANDS = {"bipartite": ["table", "bipartite", "--max-m", "2", "--max-n", "2"]}
    wl.order = ["bipartite"]
    wl.expected = {"bipartite": [[1, 2, 3], [2, 4, 7]]}
    assert wl.run_pass().failed == 0
    wl.expected = {"bipartite": [[1, 2, 3], [2, 4, 8]]}
    assert wl.run_pass().failed == 1


def test_wrong_bounds_limit_is_a_failure():
    wl = workloads.SnSweep(1)
    wl.s7, wl.sample = [], wl.sample[:3]
    # With no S_7 fibres the 8^6 total cannot hold; only the sample counts here.
    assert wl.run_pass().failed == 0
    lo, hi = wl.limits[wl.sample[0]]
    wl.limits[wl.sample[0]] = (lo, hi + 1)
    assert wl.run_pass().failed == 1


def test_wrong_outcome_is_a_failure():
    wl = workloads.PfStream(1)
    wl.vectors, wl.expected = wl.vectors[:40], wl.expected[:40]
    assert wl.run_pass().failed == 0
    k = next(i for i, e in enumerate(wl.expected) if e)
    outcome, bumps, classical, two = wl.expected[k]
    wl.expected[k] = (outcome, bumps + 1, classical, two)
    assert wl.run_pass().failed == 1


def test_wrong_case_count_is_a_failure():
    wl = workloads.VerifyAll(1)
    wl.expected = {"thm-4.1": 9}
    assert wl.run_pass().failed == 0
    wl.expected = {"thm-4.1": 10}
    assert wl.run_pass().failed == 10


def test_tracer_counts_the_walk():
    tracer = tracing.Tracer()
    tracer.install(callers=[workloads])
    try:
        size = len(workloads.fibre_via_subgraphs((4, 3, 2, 1)))
    finally:
        tracer.uninstall()
    assert workloads.fibre_via_subgraphs is fibre_via_subgraphs
    m = tracer.metrics(1.0, lambda w, prune: p2_free_count(w))
    assert (m["subgraphs.leaves"], m["subgraphs.hits"]) == (15, 9) == (15, size)
    assert m["perms.calls"] >= 1 and 0 < m["subgraphs.share"] <= 1
    added_by_run = ["tables.parallel_eff", "trace.overhead_s"]
    assert sorted([*m, *added_by_run]) == sorted(name for name, _unit, _better in tracing.PER_LAYER)
    spans = json.loads(json.dumps(tracer.spans()))
    assert len(spans["label"]) == len(spans["parent"]) == len(spans["end_ns"]) == len(tracer)
    assert spans["labels"][spans["label"][0]] == tracing.FIBRE and spans["parent"][0] == -1


def test_wrong_pin_is_a_failure(monkeypatch):
    def leaves_of(word, prune_p2):
        return p2_free_count(word)

    monkeypatch.setitem(oracles.PINNED_COUNTERS, "dec(4)", ((4, 3, 2, 1), 15, 9))
    assert worker.check_pins(["dec(4)"], leaves_of) == []
    monkeypatch.setitem(oracles.PINNED_COUNTERS, "dec(4)", ((4, 3, 2, 1), 15, 10))
    assert len(worker.check_pins(["dec(4)"], leaves_of)) == 1


def test_quantile_weights_counts():
    assert run.quantile([(1.0, 98), (5.0, 2)], 0.50) == 1.0
    assert run.quantile([(1.0, 98), (5.0, 2)], 0.99) == 5.0


def test_speed_sampler_scales_the_time_between_chunks():
    sampler = speed.SpeedSampler()
    sampler.starts, sampler.ends, sampler.weights = [0.0, 10.0, 20.0], [1.0, 11.0, 21.0], [2.0, 0.5, 1.0]
    # Each stretch takes the weight of the chunk before it; chunks count for nothing.
    assert sampler.seconds(0.5, 25.0) == 9 * 2.0 + 9 * 0.5 + 4 * 1.0
    assert sampler.seconds(12.0, 14.0) == 2 * 0.5
    assert sampler.seconds(10.2, 10.8) == 0.0


def test_speed_sampler_samples_while_it_runs():
    with speed.SpeedSampler() as sampler:
        t0 = perf_counter()
        while perf_counter() - t0 < 5 * speed.INTERVAL_S:
            pass
        t1 = perf_counter()
    assert len(sampler.starts) >= 4 and len(sampler.weights) == len(sampler.starts)
    assert 0 < sampler.seconds(t0, t1) < 10 * (t1 - t0)


def test_median_latencies_are_per_operation():
    passes = [{"latencies": [(3.0, 1), (1.0, 2)]}, {"latencies": [(2.0, 1), (4.0, 2)]},
              {"latencies": [(9.0, 1), (2.0, 2)]}]
    assert run.median_latencies(passes) == [(3.0, 1), (2.0, 2)]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
