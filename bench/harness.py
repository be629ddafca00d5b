"""Run one workload: set-up probes, warm-up, timed rounds, checks, metrics."""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter, thread_time

import numpy as np

import checkout
import speed
import workloads
from ddgeo import planner as ddgeo_planner
from ddgeo.rewrite import RuleKind
from tracing import Tracer

SETUP_PROBES = 5          # cold set-ups per run; setup_s is their median
PROBE_TIMEOUT_S = 120
MIN_TAIL_SAMPLES = 40     # below this the tail is reported as the median
TAIL_BEYOND = 10          # samples the tail percentile must leave above it
SOLVE_WORDS = ("A", "AA", "AB", "BA", "ABA", "AAA")
FAMILIES = ("B", "A", "AA", "AB", "BA", "ABA", "AAA")
TINY_GAIN = 1e-6          # a move gaining less than this times ell is tiny
RULES = tuple(k.value for k in RuleKind)
WORKLOAD_KEYS = {"plan_far": 1, "plan_near": 2, "shorten": 3, "classify_long": 4}


def tail_percentile(round_size: int) -> int | None:
    """Highest whole percentile that leaves at least TAIL_BEYOND of a round's
    calls above it; None (report the median) for rounds under
    MIN_TAIL_SAMPLES calls.  Runs make whole rounds, so it holds for every
    run of the workload."""
    if round_size < MIN_TAIL_SAMPLES:
        return None
    return math.floor(100.0 * (1.0 - TAIL_BEYOND / round_size))


def nearest_rank(sorted_values, q: float) -> float:
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def run_probe(workload: str, workdir: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout.BENCH_DIR, "probe.py"), workload, workdir],
        cwd=checkout.ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    factor = speed.REF_NOMINAL_S / probe["ref_s"]
    return {"import_s": probe["import_s"] * factor,
            "first_call_s": probe["first_call_s"] * factor}


def _plan_summary(args, result):
    U, V, params = args
    diags = [d for d in result.diagnostics if d.word != "(seed)"]
    fam = dict.fromkeys(FAMILIES + ("partial",), 0)
    by_word = {}
    for d in diags:
        fam[d.word if d.word in FAMILIES else "partial"] += 1
        if d.word in SOLVE_WORDS:
            by_word.setdefault(d.word, []).append(d)
    # one spec per word to replay through solve_candidate: the middle one
    replay = [(w, ds[len(ds) // 2].orientations, ds[len(ds) // 2].ks)
              for w, ds in sorted(by_word.items())]
    return {"n": params.n_sides, "candidates": len(diags),
            "solved": sum(d.status == "solved" for d in diags), "families": fam,
            "replay": replay, "args": args}


def _shorten_summary(args, result):
    params = args[1]
    _, trace = result
    moves = [(e.rule.kind.value, e.length_before - e.length_after) for e in trace.entries]
    return {"ell": params.ell, "moves": moves, "exhausted": trace.budget_exhausted}


def run(args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(checkout.RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=checkout.RESULTS)
    try:
        return _run(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, wl, workdir: str) -> int:
    probes = [run_probe(args.workload, workdir) for _ in range(SETUP_PROBES)]

    warm = wl.warmup_case(workdir)
    wl.call(warm)
    rng = np.random.default_rng([args.seed, WORKLOAD_KEYS[args.workload]])
    cases = wl.cases(rng, tiny=args.tiny)

    tracer = None
    call = wl.call
    if args.trace:
        tracer = Tracer()
        tracer.keep("planner.plan", _plan_summary)
        tracer.keep("rewrite.shorten", _shorten_summary)
        tracer.keep("render.render_path_svg", lambda a, svg: len(svg.encode()))
        tracer.keep("document.save", lambda a, _: os.path.getsize(a[1]))
        tracer.install()
        call = tracer.wrap("op", wl.call)

    times: list[float] = []
    starts: list[float] = []
    ref_times: list[float] = []     # wall time and value of each reference sample
    ref_values: list[float] = []

    def sample_speed() -> None:
        ref_times.append(perf_counter())
        ref_values.append(speed.reference_loop())

    ratios: list[float] = []
    failed = unexpected = 0
    failures: dict[str, list[str]] = {}
    rounds = 0
    # A call is timed by the CPU time of this thread.  On a shared virtual
    # machine wall time also counts time the host gives to other guests:
    # over three passes of the same 200 shorten calls the wall-time sums
    # moved by 8 %, and 14 % of wall time was not spent running, while the
    # CPU-time sums moved by 3 %.  Only classify_long does I/O; waiting on
    # the file system (a third of its wall time on a 2-core VM) is left out.
    # Garbage collection is off inside the timed calls and runs between them,
    # as timeit does: a collection that lands inside a call made single call
    # times vary by twice as much between repeats.  Freezing what exists now
    # keeps the collections between calls short.  Between calls, the
    # reference loop of speed.py samples the machine's speed; call times are
    # scaled by it after the rounds.
    gc.collect()
    gc.freeze()
    sample_speed()
    begin = perf_counter()
    while True:
        round_begin = perf_counter()
        lengths: dict[int, float] = {}
        for i, case in enumerate(cases):
            if perf_counter() - ref_times[-1] > speed.REF_EVERY_S:
                sample_speed()
            starts.append(perf_counter())
            if tracer:
                tracer.active = True
            gc.disable()
            t0 = thread_time()
            try:
                result = call(case)
                error = None
            except Exception as exc:  # a raising call is a failed operation
                error = f"raised {type(exc).__name__}: {exc}"
            dt = thread_time() - t0
            if tracer:
                tracer.active = False
            gc.enable()
            gc.collect()
            times.append(dt)
            if error:
                problems = [error]
            else:
                problems = wl.check(case, result, lengths)
                length = wl.length(case, result)
                if length is not None:
                    lengths[i] = length
                    ratios.append(length / case.dubins)
            if problems:
                failed += 1
                unexpected += not case.known_fault
                failures.setdefault(case.label, problems)
        rounds += 1
        now = perf_counter()
        if now - begin + (now - round_begin) > args.seconds:
            break
    measured_s = perf_counter() - begin
    sample_speed()
    scaled = [t * f for t, f in zip(times, speed.scale_factors(starts, ref_times, ref_values))]

    for label, problems in failures.items():
        print(f"FAILED {args.workload}/{label}: {'; '.join(problems)}", file=sys.stderr)

    if args.trace:
        tracer.uninstall()
        metrics = layer_metrics(tracer, probes, rounds)
        tracer.save(os.path.join(checkout.RESULTS,
                                 f"trace-{args.workload}-seed{args.seed}.npz"))
    else:
        metrics = end_to_end_metrics(scaled, ratios, probes, len(cases))

    result = {"correct": unexpected == 0, "attempted": len(times), "failed": failed,
              "metrics": metrics}
    summary = (f"workload={args.workload} seed={args.seed} trace={args.trace} "
               f"cases={len(cases)} rounds={rounds} measured_s={measured_s:.2f} "
               f"calls={len(times)} failed={failed} unexpected={unexpected} "
               f"tail=p{tail_percentile(len(cases)) or 50} "
               f"ref_ms={1e3 * statistics.median(ref_values):.2f} "
               f"unscaled_ops_per_s={len(times) / sum(times):.4f}")
    if args.trace:
        # scaled timings of the traced calls, for the tracing overhead
        summary += (f" traced_op_ms_p50={1e3 * statistics.median(scaled):.3f}"
                    f" traced_ops_per_s={len(scaled) / sum(scaled):.4f}")
    print(summary)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    with open(os.path.join(checkout.RESULTS, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(times, ratios, probes, round_size) -> dict:
    ordered = sorted(times)
    q = tail_percentile(round_size)
    p50 = statistics.median(ordered)
    tail = nearest_rank(ordered, q) if q is not None else p50
    return {
        "setup_s": _metric(statistics.median(p["import_s"] + p["first_call_s"]
                                             for p in probes), "s"),
        "ops_per_s": _metric(len(times) / sum(times), "1/s"),
        "op_ms_p50": _metric(1e3 * p50, "ms"),
        "op_ms_tail": _metric(1e3 * tail, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                               "MB"),
        "len_vs_dubins": _metric(statistics.fmean(ratios), "ratio"),
    }


def _replay_ms(plans) -> dict:
    """Mean ms per solve_candidate call for each word, replaying one spec per
    word per plan of the first round (without plan's length cap)."""
    total = {w: [0.0, 0] for w in SOLVE_WORDS}
    for s in plans:
        U, V, params = s["args"]
        for word, orientations, ks in s["replay"]:
            spec = ddgeo_planner.CandidateSpec(word, tuple(orientations), tuple(ks))
            t0 = thread_time()
            ddgeo_planner.solve_candidate(spec, U, V, params)
            total[word][0] += thread_time() - t0
            total[word][1] += 1
    return {w: 1e3 * t / c if c else 0.0 for w, (t, c) in total.items()}


def layer_metrics(tracer: Tracer, probes, rounds: int) -> dict:
    ops = max(1, tracer.totals("op")[0])
    m = {
        "setup.import_s": _metric(statistics.median(p["import_s"] for p in probes), "s"),
        "setup.first_call_s": _metric(
            statistics.median(p["first_call_s"] for p in probes), "s"),
    }

    plans = tracer.returns["planner.plan"]
    plan_ms = 1e3 * tracer.durations("planner.plan")
    fine = np.array([s["n"] > workloads.FINE_SWITCH for s in plans], dtype=bool)
    n_plans = max(1, len(plans))
    m["planner.plan_ms.coarse"] = _metric(plan_ms[~fine].mean() if (~fine).any() else 0.0, "ms")
    m["planner.plan_ms.fine"] = _metric(plan_ms[fine].mean() if fine.any() else 0.0, "ms")
    cand = sum(s["candidates"] for s in plans)
    solved = sum(s["solved"] for s in plans)
    m["planner.candidates_per_plan"] = _metric(cand / n_plans, "count")
    m["planner.solved_per_plan"] = _metric(solved / n_plans, "count")
    m["planner.solved_ratio"] = _metric(solved / cand if cand else 0.0, "ratio")
    for fam in FAMILIES + ("partial",):
        m[f"planner.cand.{fam}"] = _metric(
            sum(s["families"][fam] for s in plans) / n_plans, "count")
    replay = _replay_ms(plans[:len(plans) // rounds] if plans else [])
    for word in SOLVE_WORDS:
        m[f"planner.solve_ms.{word}"] = _metric(replay[word], "ms")
    m["planner.polish_per_plan"] = _metric(
        tracer.inside("rewrite.shorten", "planner.plan") / n_plans, "count")

    calls, total, _ = tracer.totals("smooth.dubins_solve")
    m["smooth.dubins_solve.calls_per_op"] = _metric(calls / ops, "count")
    m["smooth.dubins_solve.ms_per_op"] = _metric(1e3 * total / ops, "ms")
    m["smooth.discretize.ms_per_op"] = _metric(
        1e3 * tracer.totals("smooth.discretize")[1] / ops, "ms")

    for name in ("model.validate", "model.vertex_turns", "structure.structure_of",
                 "structure.canonicalize"):
        calls, _, self_s = tracer.totals(name)
        m[f"{name}.calls_per_op"] = _metric(calls / ops, "count")
        m[f"{name}.self_ms_per_op"] = _metric(1e3 * self_s / ops, "ms")
    m["structure.type_or_none.calls_per_op"] = _metric(
        tracer.totals("structure.type_or_none")[0] / ops, "count")

    shortens = tracer.returns["rewrite.shorten"]
    moves = [mv for s in shortens for mv in s["moves"]]
    n_moves = len(moves)
    m["rewrite.moves_per_op"] = _metric(n_moves / ops, "count")
    m["rewrite.ms_per_move"] = _metric(
        1e3 * tracer.totals("rewrite.shorten")[1] / n_moves if n_moves else 0.0, "ms")
    m["rewrite.validate_calls_per_move"] = _metric(
        tracer.inside("model.validate", "rewrite.shorten") / n_moves if n_moves else 0.0,
        "count")
    m["rewrite.tiny_moves_per_op"] = _metric(
        sum(gain < TINY_GAIN * s["ell"] for s in shortens for _, gain in s["moves"]) / ops,
        "count")
    for rule in RULES:
        m[f"rewrite.moves.{rule}"] = _metric(sum(k == rule for k, _ in moves) / ops, "count")
    m["rewrite.budget_exhausted"] = _metric(
        sum(s["exhausted"] for s in shortens) / rounds, "count")

    m["cli.run.self_ms_per_op"] = _metric(1e3 * tracer.totals("cli.run")[2] / ops, "ms")
    m["document.load_ms"] = _metric(
        1e3 * (tracer.totals("document.load")[1]
               + tracer.totals("document.path_from_json")[1]) / ops, "ms")
    m["document.save_ms"] = _metric(
        1e3 * (tracer.totals("document.path_to_json")[1]
               + tracer.totals("document.save")[1]) / ops, "ms")
    saved = tracer.returns["document.save"]
    m["document.out_bytes"] = _metric(statistics.fmean(saved) if saved else 0.0, "bytes")
    m["render.svg_ms"] = _metric(1e3 * tracer.totals("render.render_path_svg")[1] / ops, "ms")
    svg = tracer.returns["render.render_path_svg"]
    m["render.svg_bytes"] = _metric(statistics.fmean(svg) if svg else 0.0, "bytes")
    return m
