"""Benchmark of ddgeo: one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's corpus from the seed, measures set-up in fresh
interpreters, makes a warm-up call, then repeats whole rounds of the corpus
while another round still fits in S seconds (at least one round).  Every
output is checked.  With --trace 0 the last line of standard output is the
JSON result with the end-to-end metrics; with --trace 1 the calls into each
layer are traced and the result holds the per-layer metrics instead.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

# one thread for OpenMP and BLAS; set before numpy is imported, and inherited
# by the set-up probes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("plan_far", "plan_near", "shorten", "classify_long"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one or two cases per stratum, for the smoke test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import checkout
    checkout.require_source()
    import harness
    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
