"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import itertools
import math
import time

import numpy as np
import pytest

from ddgeo.model import (
    Configuration,
    Params,
    ViolationKind,
    edge_lengths,
    path_length,
    validate,
    vertex_turns,
)
from ddgeo.planner import plan
from ddgeo.rewrite import shorten
from ddgeo.smooth import (
    angle_bound_check,
    chord_bound_check,
    convergence_experiment,
    discretization_params,
    discretize,
    dubins_solve,
)
from ddgeo.structure import (
    canonicalize,
    find_forbidden_subtype,
    is_true_type,
    type_string,
)
from ddgeo.geometry import add, rotate, scale

from gen import (
    build_path,
    random_configuration_pair,
    random_feasible_path,
    random_smooth_path,
)
from oracle import oracle_search


def _report(idx, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance {idx}] {name}: {verdict} {detail}")
    assert ok, f"criterion {idx} ({name}): {detail}"


def test_criterion_1_validator_suite():
    t0 = time.time()
    problems = []

    for n in (8, 12, 360):
        params = Params.from_sides(n, 1.0)
        turns = [0.0] + [params.theta] * (n - 1) + [0.0]
        path = build_path(turns, [1.0] * n)
        if validate(path, params):
            problems.append(f"regular {n}-gon flagged infeasible")

    params = Params.from_sides(8, 1.0)
    th = params.theta
    turns = [0.0, th, th + 0.1, th, 0.0]
    perturbed = build_path(turns, [1.0] * 4)
    vs = validate(perturbed, params)
    if not (len(vs) == 1 and vs[0].kind is ViolationKind.TURN
            and abs(vs[0].magnitude - 0.1) <= 1e-9):
        problems.append(f"turn perturbation gave {vs}")

    shorts = build_path([0.0, 0.1, 0.1, 0.0], [1.0, 0.5, 0.5])
    if not any(v.kind is ViolationKind.LENGTH for v in validate(shorts, params)):
        problems.append("adjacent shorts not flagged")

    tol = build_path([0.0, 0.8 * th, 0.8 * th, 0.0], [1.0, 0.5, 1.0])
    if not any(v.kind is ViolationKind.TURN_OVER_LENGTH
               for v in validate(tol, params)):
        problems.append("turn-over-length not flagged")

    elapsed = time.time() - t0
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(1, "validator suite", not problems,
            f"({elapsed:.2f}s) {problems}")


def test_criterion_2_typing_suite():
    t0 = time.time()
    problems = []

    for k in range(1, 7):
        for letters in itertools.product("AB", repeat=k):
            word = "".join(letters)
            factor_free = find_forbidden_subtype(word) is None
            if factor_free != is_true_type(word):
                problems.append(f"word {word} misclassified")

    count = 0
    for n, quota in ((6, 167), (8, 167), (12, 166)):
        params = Params.from_sides(n, 1.0)
        rng = np.random.default_rng(9000 + n)
        for _ in range(quota):
            p = random_feasible_path(params, rng)
            cp = canonicalize(p, params)
            if validate(cp, params):
                problems.append(f"canonicalize broke feasibility at n={n}")
                break
            if abs(path_length(cp) - path_length(p)) > 1e-12 * max(1.0, path_length(p)):
                problems.append(f"canonicalize changed length at n={n}")
                break
            count += 1

    elapsed = time.time() - t0
    if count < 500:
        problems.append(f"only {count} canonicalize checks")
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.2f}s >= 10s")
    _report(2, "typing suite", not problems,
            f"({count} paths, {elapsed:.2f}s) {problems}")


def test_criterion_3_rewriter_soundness():
    t0 = time.time()
    problems = []
    done = 0
    for n in (6, 8, 12):
        params = Params.from_sides(n, 1.0)
        rng = np.random.default_rng(7000 + n)
        quota = 167 if n != 12 else 166
        for _ in range(quota):
            p = random_feasible_path(params, rng)
            res, trace = shorten(p, params, budget=10_000)
            done += 1
            if trace.budget_exhausted:
                problems.append(f"budget exhausted (n={n})")
                continue
            if validate(res, params):
                problems.append(f"infeasible fixed point (n={n})")
                continue
            try:
                word = type_string(res, params)
            except Exception as exc:
                problems.append(f"untypeable fixed point (n={n}): {exc}")
                continue
            if find_forbidden_subtype(word) is not None:
                problems.append(f"forbidden factor {word} (n={n})")
            for e in trace.entries:
                if e.length_after > e.length_before + 1e-12 * max(1.0, e.length_before):
                    problems.append(f"length increased in trace (n={n})")
                    break
                tie = e.length_after >= e.length_before - 1e-10 * params.ell
                if tie and e.type_before is not None and e.type_after is not None:
                    if len(e.type_after) > len(e.type_before):
                        problems.append(f"type grew on tie (n={n})")
                        break
    elapsed = time.time() - t0
    if elapsed >= 120.0:
        problems.append(f"runtime {elapsed:.1f}s >= 120s")
    _report(3, "rewriter soundness", not problems,
            f"({done} paths, {elapsed:.1f}s) {problems[:4]}")


def test_criterion_4_planner_vs_oracle():
    t0 = time.time()
    problems = []
    for n in (8, 16):
        params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
        rng = np.random.default_rng(600 + n)
        for trial in range(25):
            U, V = random_configuration_pair(rng, (3.0, 12.0))
            res = plan(U, V, params)
            if validate(res.best, params):
                problems.append(f"plan infeasible n={n} t={trial}")
                continue
            word = res.type_word
            if not (word == "" or find_forbidden_subtype(word) is None):
                problems.append(f"plan type {word} forbidden n={n} t={trial}")
            orc = oracle_search(U, V, params, budget=900, rng=trial)
            lo = path_length(orc)
            if res.length > lo + 1e-6 * max(1.0, lo):
                problems.append(
                    f"oracle beat plan n={n} t={trial}: {res.length:.9f} > {lo:.9f}")
    elapsed = time.time() - t0
    if elapsed >= 300.0:
        problems.append(f"runtime {elapsed:.1f}s >= 300s")
    _report(4, "planner vs oracle", not problems,
            f"(50 instances, {elapsed:.1f}s) {problems[:4]}")


def test_criterion_5_discretization():
    t0 = time.time()
    problems = []
    rng = np.random.default_rng(11)
    curves = [random_smooth_path(rng) for _ in range(50)]
    for gi, gamma in enumerate(curves):
        for n in (8, 16, 64, 360):
            theta = 2.0 * math.pi / n
            if theta >= gamma.length:
                continue
            d = discretize(gamma, theta)
            params = discretization_params(theta)
            if validate(d, params):
                problems.append(f"curve {gi} n={n} infeasible")
                continue
            ell = 2.0 * math.sin(math.pi / n)
            lens = edge_lengths(d)
            for ln in lens[1:-1]:
                if ln < ell - 1e-9:
                    problems.append(f"curve {gi} n={n} middle edge {ln} < ell")
                    break
            for t in vertex_turns(d):
                if abs(t) > theta + 1e-9:
                    problems.append(f"curve {gi} n={n} turn {t} > theta")
                    break
    elapsed = time.time() - t0
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(5, "discretization feasibility", not problems,
            f"(50 curves x 4 refinements, {elapsed:.1f}s) {problems[:4]}")


def test_criterion_6_chord_and_angle_bounds():
    t0 = time.time()
    problems = 0
    rng = np.random.default_rng(12)
    samples = 0
    while samples < 10_000:
        gamma = random_smooth_path(rng)
        L = gamma.length
        for _ in range(200):
            t = float(rng.uniform(0.0, L))
            s = float(rng.uniform(t, min(L, t + math.pi - 1e-9)))
            if s <= t + 1e-12:
                continue
            samples += 1
            if not chord_bound_check(gamma, t, s):
                problems += 1
            if not angle_bound_check(gamma, t, s):
                problems += 1
            if samples >= 10_000:
                break
    elapsed = time.time() - t0
    ok = problems == 0 and elapsed < 30.0
    _report(6, "chord/angle bound sweeps", ok,
            f"({samples} pairs, {problems} violations, {elapsed:.1f}s)")


def test_criterion_7_convergence():
    t0 = time.time()
    sandwich_problems = []
    gap_problems = []
    gaps_per_theta = []
    rng = np.random.default_rng(13)
    n_list = [8, 16, 32, 64, 128, 360]
    for inst in range(20):
        U, V = random_configuration_pair(rng, (3.0, 15.0))
        rows = convergence_experiment(U, V, n_list)
        for r in rows:
            if r.plan_length > r.discretized_length + 1e-9:
                sandwich_problems.append(f"inst {inst} n={r.n} plan > disc")
            if r.discretized_length > r.dubins_length + 1e-9:
                sandwich_problems.append(f"inst {inst} n={r.n} disc > dubins")
        last = rows[-1]
        gap = last.dubins_length - last.plan_length
        relgap = gap / last.dubins_length
        # a first-order model has gap ~ c * theta: print c beside the gap
        gaps_per_theta.append(f"{inst}:{relgap:.2e}/{gap / last.theta:.2f}")
        if relgap > 1e-3:
            gap_problems.append(f"inst {inst} relgap {relgap:.2e} "
                                f"gap/theta {gap / last.theta:.2f}")
    elapsed = time.time() - t0
    runtime_ok = elapsed < 600.0
    print(f"[acceptance 7] sandwich: {'PASS' if not sandwich_problems else 'FAIL'} "
          f"({len(sandwich_problems)} violations)")
    print(f"[acceptance 7] n=360 relative gap <= 1e-3: "
          f"{'PASS' if not gap_problems else 'FAIL'} "
          f"({len(gap_problems)}/20 over: {gap_problems[:4]})")
    print(f"[acceptance 7] n=360 per instance relgap/(gap/theta): "
          f"{' '.join(gaps_per_theta)}")
    ok = not sandwich_problems and not gap_problems and runtime_ok
    _report(7, "convergence", ok, f"({elapsed:.1f}s)")


def test_criterion_8_symmetries():
    t0 = time.time()
    problems = []
    params = Params.from_sides(8, 1.0)
    rng = np.random.default_rng(14)
    for trial in range(25):
        U, V = random_configuration_pair(rng, (3.0, 10.0))
        base = plan(U, V, params).length
        tol = 1e-9 * max(1.0, base)

        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        tvec = (float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
        U2 = Configuration(add(rotate(U.point, ang), tvec), rotate(U.heading, ang))
        V2 = Configuration(add(rotate(V.point, ang), tvec), rotate(V.heading, ang))
        moved = plan(U2, V2, params).length
        if abs(moved - base) > tol:
            problems.append(f"t={trial} rigid {moved - base:+.2e}")

        mU = Configuration((U.point[0], -U.point[1]), (U.heading[0], -U.heading[1]))
        mV = Configuration((V.point[0], -V.point[1]), (V.heading[0], -V.heading[1]))
        mirrored = plan(mU, mV, params).length
        if abs(mirrored - base) > tol:
            problems.append(f"t={trial} reflection {mirrored - base:+.2e}")

        rU = Configuration(V.point, scale(V.heading, -1.0))
        rV = Configuration(U.point, scale(U.heading, -1.0))
        rev = plan(rU, rV, params).length
        if abs(rev - base) > tol:
            problems.append(f"t={trial} reversal {rev - base:+.2e}")
    elapsed = time.time() - t0
    if elapsed >= 120.0:
        problems.append(f"runtime {elapsed:.1f}s >= 120s")
    _report(8, "planner symmetries", not problems,
            f"(25 instances, {elapsed:.1f}s) {problems[:4]}")
