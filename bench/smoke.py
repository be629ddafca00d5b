"""Smoke test of the benchmark itself (under a minute).

    python3 bench/smoke.py

Runs every workload on a tiny corpus (--tiny), untraced and traced, and
checks that the last line of output is the result object with exactly the
keys correct, attempted, failed and metrics; that it names every metric of
BENCHMARK.json for that mode with its unit and a finite value; that
attempted and failed are whole numbers; and that only the shorten workload
reports failed calls, the same number in every round (its known faults).  Last, it
runs the benchmark from a directory that holds only BENCHMARK.json and
bench/, where it must exit non-zero without printing a result.  Exits 1 on
the first problem.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

from checkout import BENCH_DIR, RESULTS, ROOT


def run(root: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)


def fail(msg: str) -> None:
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def check_result(bench: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        fail(f"{workload}: attempted/failed {result['attempted']}/{result['failed']}")
    if result["correct"] is not True:
        fail(f"{workload}: correct is {result['correct']}: {proc.stderr}")
    wanted = bench["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        fail(f"{workload} trace={trace}: metric names differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got.get("unit") != m["unit"] or not math.isfinite(got.get("value", math.nan)):
            fail(f"{workload}: metric {m['name']} printed as {got}")
    # only shorten has inputs that fail every time; each round repeats them
    rounds = int(lines[0].split("rounds=")[1].split()[0])
    failed = result["failed"]
    if (failed % rounds or (failed > 0) != (workload == "shorten")):
        fail(f"{workload}: {failed} failed over {rounds} rounds")
    print(f"smoke: {workload} trace={trace}: {result['attempted']} attempted, "
          f"{result['failed']} failed, {len(wanted)} metrics ok", flush=True)


def check_without_source() -> None:
    os.makedirs(RESULTS, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=RESULTS)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = run(bare, "shorten", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            fail(f"without src/ the benchmark exited {proc.returncode} "
                 f"and printed {proc.stdout!r}")
        print(f"smoke: without src/ exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_result(bench, w["name"], trace)
    check_without_source()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
