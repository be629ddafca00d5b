"""Repeat the benchmark over seeds and print each end-to-end metric's spread.

    python3 bench/spread.py [--seeds 10] [--first-seed 1] [--trace-overhead]

Runs the command of BENCHMARK.json once per (workload, seed) for its
run_seconds, one process at a time, from the root of the checkout, and
prints for every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(Q3 - Q1) / median beside the bound fixed in BENCHMARK.json.  A spread at
or under a third of the bound is marked ok.  With --trace-overhead it also
makes one traced run per workload (on the first seed) and prints how much
slower its calls were than the untraced median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from checkout import ROOT


def run_once(command: list[str], workload: str, seed: int, seconds: int,
             trace: int) -> tuple[dict, str]:
    t0 = perf_counter()
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), f"{lines[0]} wall_s={perf_counter() - t0:.1f}"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace-overhead", action="store_true")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    seconds = bench["run_seconds"]
    worst = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, summary = run_once(bench["command"], workload, seed, seconds, 0)
            runs.append(result)
            print(f"  {summary}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, failed share {sorted(shares)}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        medians = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            medians[name] = med
            flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound
                                                      else "OVER BOUND")
            worst = max(worst, spread / bound)
            print(f"  {name:14s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:7.2%}  bound {bound:5.0%}  {flag}", flush=True)
        if args.trace_overhead:
            _, summary = run_once(bench["command"], workload, args.first_seed, seconds, 1)
            traced = dict(kv.split("=") for kv in summary.split() if "=" in kv)
            t_ops = float(traced["traced_ops_per_s"])
            t_p50 = float(traced["traced_op_ms_p50"])
            print(f"  tracing overhead: ops_per_s {t_ops:.4g} traced vs "
                  f"{medians['ops_per_s']:.4g} untraced "
                  f"({medians['ops_per_s'] / t_ops - 1:+.1%} time per call); "
                  f"op_ms_p50 {t_p50:.4g} vs {medians['op_ms_p50']:.4g} "
                  f"({t_p50 / medians['op_ms_p50'] - 1:+.1%})", flush=True)
    print(f"largest spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
