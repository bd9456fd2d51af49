"""Run each workload repeatedly, one seed per run, and print each metric's quartiles.

    python3 perfbench/steady.py --runs 10 --first-seed 1 [--workload grid_curves]

Workloads, run length and bounds come from BENCHMARK.json at the checkout
root; every run is untraced, at BENCHMARK.json's run_seconds. For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and the
metric's bound; `!` marks a spread above a third of the bound. It also prints
each run's share of failed operations, which must be the same in every run.
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


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, spec["run_seconds"])
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: failed share per run {sorted(shares)}"
              f"{'' if len(shares) == 1 else '  ! differs between runs'}")
        print(f"  {'metric':45} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            mark = "!" if bound is not None and spread > bound / 3.0 else ""
            print(f"  {name:45} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{mark}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
