#!/usr/bin/env python3
"""Steadiness report: run the benchmark over several seeds, per workload.

    python3 perfbench/steadiness.py                          # every workload, seeds 1..10
    python3 perfbench/steadiness.py --workloads clique-dense --seeds 1 2 3 4 5
    python3 perfbench/steadiness.py --save a.json
    python3 perfbench/steadiness.py --load b.json --compare a.json

Run from the repository root. For each workload it prints every metric by
name and unit with its median and quartiles across the runs, and the
spread: (q3 - q1) / median, quartiles as statistics.quantiles(n=4) gives
them. A spread wider than the metric's bound in BENCHMARK.json is flagged
WIDE, one above a third of it noisy. It also prints ops_failed (failed ops
/ ops attempted), any problems and, on rebalance-loop, residual_imbalances.
--compare prints how far each median moved against an earlier saved set and
flags moves worse than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {"workload": workload, "seed": seed, "details": details, "result": result}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def report(runs: list[dict], declared: dict, baseline: list[dict] | None) -> bool:
    """Print the table per workload; True when no spread exceeds its bound."""
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    steady = True
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        before = [r for r in baseline or () if r["workload"] == workload]
        attempted = sum(r["result"]["attempted"] for r in mine)
        failed = sum(r["result"]["failed"] for r in mine)
        print(f"\n== {workload}: {len(mine)} runs, seeds {[r['seed'] for r in mine]}")
        print(f"   correct in {sum(r['result']['correct'] for r in mine)}/{len(mine)} runs; "
              f"ops_failed {failed}/{attempted} = {failed / attempted:.3f}")
        residual = [r["details"]["residual_imbalances"] for r in mine]
        if any(v is not None for v in residual):
            print(f"   residual_imbalances per run: {residual}")
        for r in mine:
            if r["details"]["problems"]:
                print(f"   seed {r['seed']} problems: {r['details']['problems']}")
        print(f"   {'metric':28} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for name in mine[0]["result"]["metrics"]:
            info = metrics[name]
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            median, q1, q3, width = spread(values)
            bound = info["bound"]
            flag = "WIDE" if width > bound else ("noisy" if width > bound / 3 else "ok")
            steady = steady and (width <= bound or name == "setup_s")
            line = (f"   {name:28} {info['unit']:6} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                    f"{width:7.3f} {bound:>6} {flag}")
            old = [r["result"]["metrics"][name]["value"] for r in before]
            if old:
                old_median = statistics.median(old)
                worse = (median - old_median) / old_median
                if info["better"] == "higher":
                    worse = -worse
                line += f"  vs saved {old_median:.6g}: worse by {worse:+.3f}"
                line += " REGRESSED" if worse > bound else ""
            print(line)
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    declared = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--save", type=Path, help="write the raw runs here as JSON")
    parser.add_argument("--load", type=Path, help="report saved runs instead of running")
    parser.add_argument("--compare", type=Path, help="saved runs to compare medians against")
    args = parser.parse_args()

    if args.load:
        runs = json.loads(args.load.read_text(encoding="utf-8"))
    else:
        runs = []
        for workload in args.workloads:
            for seed in args.seeds:
                runs.append(run_once(workload, seed, args.seconds))
                metrics = runs[-1]["result"]["metrics"]
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items()), flush=True)
        if args.save:
            args.save.write_text(json.dumps(runs, indent=1), encoding="utf-8")
    baseline = json.loads(args.compare.read_text(encoding="utf-8")) if args.compare else None
    return 0 if report(runs, declared, baseline) else 1


if __name__ == "__main__":
    sys.exit(main())
