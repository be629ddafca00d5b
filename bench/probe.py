"""One cold set-up of a workload, in a fresh interpreter.

    python3 bench/probe.py WORKLOAD WORKDIR

Times the import of ``ddgeo`` (with ``ddgeo.cli`` for classify_long) and the
first call on the workload's fixed warm-up input, which pays the lazy set-up
(plan imports ``scipy.optimize`` on its first ABA refinement).  Both are
timed by the CPU time of the process, like the timed calls of a run: waiting
on the file system and time the host gives to other guests are left out.
The reference loop of ``speed`` runs once before and once after, and their
mean time is reported too, so that the run can scale both times to the
reference speed.  Prints one JSON object:
{"import_s": ..., "first_call_s": ..., "ref_s": ...}.
"""

import json
import sys
from time import process_time

import checkout
import speed


def main() -> None:
    workload, workdir = sys.argv[1], sys.argv[2]
    checkout.require_source()
    ref_before = speed.reference_loop()
    t0 = process_time()
    import ddgeo  # noqa: F401
    if workload == "classify_long":
        import ddgeo.cli  # noqa: F401
    import_s = process_time() - t0

    import workloads
    wl = workloads.WORKLOADS[workload]
    case = wl.warmup_case(workdir)
    t1 = process_time()
    wl.call(case)
    first_call_s = process_time() - t1
    ref_s = 0.5 * (ref_before + speed.reference_loop())
    print(json.dumps({"import_s": import_s, "first_call_s": first_call_s, "ref_s": ref_s}))


if __name__ == "__main__":
    main()
