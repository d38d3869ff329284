"""Traced mode: spans around the calls into each mvparking module.

Public functions (names without a leading underscore) are wrapped where
their caller looks them up.  `tables` imports `fibre_via_subgraphs` by name,
so that name is wrapped in `tables`; the benchmark's workloads import the
functions they call by name, so those names are wrapped in `workloads`;
`cli` calls `tables.bipartite_table` and `verify.run_suites` through the
module, so the public functions of `tables` and `verify` are wrapped in
their own module.  Calls inside one module stay unwrapped, as do private
helpers: `parking._mvp_final`, which the subgraph walk calls once per leaf,
counts as its caller's self time.  A call that returns a generator gets one
span per resumption, so lazy enumeration is charged to the module that
produces the items.

Spans (label, start, end, parent) are kept in flat arrays in memory and
handed out once, by `spans`, when the pass ends.  Tracing needs jobs 1: a
table fanned out to worker processes would record its spans there.
"""

from __future__ import annotations

import inspect
import types
from types import ModuleType
from array import array
from functools import wraps
from importlib import import_module
from time import perf_counter

MODULES = ("parking", "perms", "subgraphs", "motzkin", "sandpile", "tables", "verify", "cli")
SUITES = ("thm-2.5", "thm-2.8", "prop-2.9", "prop-2.10", "prop-2.11", "thm-3.2",
          "thm-3.8", "thm-4.1", "thm-5.5", "thm-6.3", "abelian")
FIBRE = "subgraphs.fibre_via_subgraphs"
SUITE = "verify.run_suite"

# (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = [
    ("subgraphs.fibre_s", "s", "lower"),
    ("subgraphs.ns_per_leaf", "ns", "lower"),
    ("subgraphs.leaves", "count", "lower"),
    ("subgraphs.hits", "count", "higher"),
    ("subgraphs.hit_ratio", "ratio", "higher"),
    ("subgraphs.bounds_s", "s", "lower"),
    ("subgraphs.roundtrip_us", "us", "lower"),
    ("parking.outcome_mvp_us", "us", "lower"),
    ("parking.outcome_classical_us", "us", "lower"),
    ("parking.is_pf_us", "us", "lower"),
    ("parking.displacement_us", "us", "lower"),
    ("sandpile.mvp_outcome_us", "us", "lower"),
    ("motzkin.path_us", "us", "lower"),
    ("perms.calls", "count", "lower"),
    ("tables.cells", "count", "higher"),
    ("tables.cell_s_max", "s", "lower"),
    ("tables.cell_s_sum", "s", "lower"),
    ("tables.parallel_eff", "ratio", "higher"),
    ("tables.render_s", "s", "lower"),
    ("verify.cases", "count", "higher"),
    ("verify.cases_per_s", "1/s", "higher"),
    *((f"verify.suite_s.{s}", "s", "lower") for s in SUITES),
    ("cli.overhead_s", "s", "lower"),
    *((f"{m}.self_s", "s", "lower") for m in MODULES if m != "cli"),
    *((f"{m}.share", "ratio", "lower") for m in MODULES),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Arguments and results kept for the exact counters, by span label.
NOTES = {
    FIBRE: lambda args, kwargs, result: (
        tuple(args[0]), kwargs.get("prune_p2", args[1] if len(args) > 1 else True), len(result)),
    SUITE: lambda args, kwargs, result: (args[0], result.checked),
}


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, tuple] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __len__(self) -> int:
        return len(self.label)

    def install(self, callers=()) -> None:
        """Wrap every cross-module binding of a public mvparking function in
        the package and in the `callers` modules."""
        package = [import_module(f"mvparking.{short}") for short in MODULES]
        through_module = {value.__name__ for module in package for value in vars(module).values()
                          if isinstance(value, ModuleType) and value.__name__.startswith("mvparking.")}
        for module in [*package, *callers]:
            wrap_own = module.__name__ in through_module
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("mvparking.")
                        or (fn.__module__ == module.__name__ and not wrap_own)):
                    continue
                label = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(label, fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _wrap(self, label: str, fn):
        lid = self._label_id(label)
        note = NOTES.get(label)
        stack, labels, parents, starts, ends = (
            self._stack, self.label, self.parent, self.start, self.end)

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(labels)
            labels.append(lid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if note is not None:
                self.notes[idx] = note(args, kwargs, result)
            if isinstance(result, types.GeneratorType):
                return self._resumed(lid, result)
            return result

        return traced

    def _resumed(self, lid: int, gen):
        stack, labels, parents, starts, ends = (
            self._stack, self.label, self.parent, self.start, self.end)
        while True:
            idx = len(labels)
            labels.append(lid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            yield item

    def metrics(self, wall_s: float, leaves_of,
                seconds=lambda start, end: end - start) -> dict[str, float]:
        """Per-layer metrics of the spans of one traced pass.

        `leaves_of(word, prune_p2)` counts the leaves a fibre walk visits; it
        is called outside any span.  `seconds(start, end)` is a span's
        duration; the worker passes the scaled time of perfbench/speed.py.  `trace.wall_s` is this pass's wall time
        here; perfbench/run.py replaces it with the run's, and adds
        `tables.parallel_eff` and `trace.overhead_s`, which need the
        untraced wall time.
        """
        labels = [self.labels[i] for i in self.label]
        dur = [seconds(start, end) for start, end in zip(self.start, self.end)]
        covered = [0.0] * len(dur)
        for k, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[k]
        self_s = dict.fromkeys(MODULES, 0.0)
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        for k, label in enumerate(labels):
            self_s[label.partition(".")[0]] += dur[k] - covered[k]
            total[label] = total.get(label, 0.0) + dur[k]
            calls[label] = calls.get(label, 0) + 1

        def per_call_us(label: str) -> float:
            return total.get(label, 0.0) / calls[label] * 1e6 if label in calls else 0.0

        def under_tables(k: int) -> bool:
            p = self.parent[k]
            while p >= 0:
                if labels[p].startswith("tables."):
                    return True
                p = self.parent[p]
            return False

        leaves = hits = 0
        for k, label in enumerate(labels):
            if label == FIBRE:
                word, prune_p2, size = self.notes[k]
                leaves += leaves_of(word, prune_p2)
                hits += size
        cells = [dur[k] for k, label in enumerate(labels) if label == FIBRE and under_tables(k)]
        suites = [(self.notes[k], dur[k]) for k, label in enumerate(labels) if label == SUITE]
        cases = sum(checked for (_name, checked), _d in suites)
        suite_s = sum(d for _note, d in suites)
        fibre_s = total.get(FIBRE, 0.0)

        out = {
            "subgraphs.fibre_s": fibre_s,
            "subgraphs.ns_per_leaf": fibre_s / leaves * 1e9 if leaves else 0.0,
            "subgraphs.leaves": leaves,
            "subgraphs.hits": hits,
            "subgraphs.hit_ratio": hits / leaves if leaves else 0.0,
            "subgraphs.bounds_s": total.get("subgraphs.bounds", 0.0),
            "subgraphs.roundtrip_us": (per_call_us("subgraphs.pf_to_subgraph")
                                       + per_call_us("subgraphs.subgraph_to_pf")),
            "parking.outcome_mvp_us": per_call_us("parking.outcome_mvp"),
            "parking.outcome_classical_us": per_call_us("parking.outcome_classical"),
            "parking.is_pf_us": per_call_us("parking.is_parking_function"),
            "parking.displacement_us": per_call_us("parking.displacement_mvp"),
            "sandpile.mvp_outcome_us": per_call_us("sandpile.mvp_outcome_via_sandpile"),
            "motzkin.path_us": (per_call_us("motzkin.preference_path")
                                + per_call_us("motzkin.is_motzkin_path")),
            "perms.calls": sum(n for label, n in calls.items() if label.startswith("perms.")),
            "tables.cells": len(cells),
            "tables.cell_s_max": max(cells, default=0.0),
            "tables.cell_s_sum": sum(cells),
            "tables.render_s": sum(t for label, t in total.items()
                                   if label.startswith("tables.render_")),
            "verify.cases": cases,
            "verify.cases_per_s": cases / suite_s if suite_s else 0.0,
        }
        for suite in SUITES:
            out[f"verify.suite_s.{suite}"] = sum(d for (name, _c), d in suites if name == suite)
        out["cli.overhead_s"] = self_s["cli"]
        for module in MODULES:
            if module != "cli":
                out[f"{module}.self_s"] = self_s[module]
        for module in MODULES:
            out[f"{module}.share"] = self_s[module] / wall_s
        out["trace.wall_s"] = wall_s
        return out

    def spans(self) -> dict:
        """Every span as plain lists: label index, parent span index (-1 at
        the top), start and end in nanoseconds from the first span's start,
        plus the notes kept per span."""
        t0 = self.start[0] if self.start else 0.0
        return {"labels": self.labels, "label": self.label.tolist(),
                "parent": self.parent.tolist(),
                "start_ns": [round((t - t0) * 1e9) for t in self.start],
                "end_ns": [round((t - t0) * 1e9) for t in self.end],
                "notes": {str(k): v for k, v in self.notes.items()}}
