"""The machine's speed, measured by a fixed pure-Python loop.

The benchmark was tuned on a 2-core shared virtual machine whose speed
switches between a fast and a slow state every few seconds: the loop below
took between 13 and 24 ms of CPU time within four minutes, and 60 ``shorten``
calls timed right beside it took between 0.70 and 1.43 s, in step with it.
Summed over 30 s windows, those call times varied by 12 % (coefficient of
variation) and their ratio to the loop's time by 4 %.  So a run times this loop
every REF_EVERY_S seconds between calls, and every call time is scaled to
the speed at which the loop takes REF_NOMINAL_S:
``scaled = measured * REF_NOMINAL_S / (loop time around the call)``.
The loop is part of the benchmark, so no change to the program moves it.
"""

from __future__ import annotations

import bisect
from time import thread_time

REF_LOOPS = 200_000     # iterations of the reference loop, 13-24 ms above
REF_EVERY_S = 0.5       # wall time between reference samples in a run
REF_NOMINAL_S = 0.015   # loop time that scaled times are expressed at


def reference_loop() -> float:
    """CPU time of the fixed loop, in seconds."""
    t0 = thread_time()
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    return thread_time() - t0


def scale_factors(starts, ref_times, ref_values) -> list[float]:
    """REF_NOMINAL_S over the mean of the two reference samples around each
    start time.  ``ref_times`` is increasing, and has a sample before the
    first start and one after the last."""
    factors = []
    for t in starts:
        after = bisect.bisect_left(ref_times, t)
        factors.append(REF_NOMINAL_S / (0.5 * (ref_values[after - 1] + ref_values[after])))
    return factors
