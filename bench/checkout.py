"""Locate the package source in the checkout the benchmark runs from.

The benchmark imports ``ddgeo`` from ``src/`` next to this directory and from
nowhere else, so an installed copy can never be measured by mistake.  Without
the source it stops with exit code 2 before printing a result.
"""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")


def require_source() -> None:
    """Put ``src/`` first on the import path, or exit 2 if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "ddgeo", "__init__.py")):
        print(f"error: no package source at {SRC}/ddgeo; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
