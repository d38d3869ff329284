"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload sn-sweep --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --out perfbench/baseline.json

For every metric it prints the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median, and
for an end-to-end metric whether the spread is below a third of its bound
in BENCHMARK.json.  Runs go one after another, never in parallel.  `--out`
merges the runs and summaries into a JSON file, keyed by workload and trace
mode, so a later change can be compared with the same numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(line[len("# meta "):]) for line in lines if line.startswith("# meta "))
    return {"seed": seed, "exit": proc.returncode, "meta": meta, "result": json.loads(lines[-1])}


def summarise(runs: list[dict], bounds: dict[str, float]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        entry = {"unit": runs[0]["result"]["metrics"][name]["unit"], "median": median}
        if len(values) >= 2:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
        if name in bounds:
            entry["bound"] = bounds[name]
        out[name] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*names, "all"], required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                        help="inclusive range such as 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, help="JSON file to merge the results into")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if not args.trace else {}
    saved = json.loads(args.out.read_text(encoding="utf-8")) if args.out and args.out.exists() else {}
    ok = True
    for workload in names if args.workload == "all" else [args.workload]:
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        summary = summarise(runs, bounds)
        failed = [r["seed"] for r in runs if r["exit"] or not r["result"]["correct"]]
        ok &= not failed
        print(f"{workload}: {len(runs)} runs, failed seeds {failed or 'none'}")
        for name, s in summary.items():
            line = f"  {name:34s} median {s['median']:<12.6g} {s['unit']:6s}"
            if s.get("spread") is not None:
                line += f" spread {s['spread']:.4f}"
            if "bound" in s and s.get("spread") is not None:
                verdict = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
                line += f" (bound {s['bound']}, {verdict})"
            print(line)
        saved.setdefault(workload, {})[f"trace{args.trace}"] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
