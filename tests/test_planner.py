import itertools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import astuple

import numpy as np
import pytest

import ddgeo
from ddgeo import planner
from ddgeo.geometry import (
    add,
    angle_of,
    circle_circle_intersection,
    dist,
    from_angle,
    normalize_angle,
    rotate,
    rotate_about,
    scale,
    sub,
)
from ddgeo.model import (
    TOL_ANG,
    Configuration,
    Params,
    path_length,
    reverse,
    transform,
    validate,
)
from ddgeo.planner import (
    _PARTIAL_SHAPES,
    _ROW_SOLVERS,
    TWO_PI,
    CandidateSpec,
    _LAYOUTS,
    _WIDEST_SLACK,
    _WORDS,
    _ArcRows,
    _chord,
    _chord_gap,
    _dubins_seed,
    _f_caps,
    _f_lengths,
    _family_coeffs,
    _guided_range,
    _Instance,
    _build_elements,
    _joint_patterns,
    _joints_ok,
    _layout,
    _norm_arr,
    _smooth_guess,
    _solve_partial,
    _trig_roots,
    _word_rows,
    forward_construct,
    plan,
    solve_candidate,
)
from ddgeo.rewrite import find_applicable, shorten
from ddgeo.smooth import DiscretizationPlan, LineSeg, discretize, dubins_solve
from ddgeo.structure import find_forbidden_subtype, type_string

from bridge_reference import SOLVERS as BRIDGE_SOLVERS
from bridge_reference import ab_rows, aba_rows
from gen import build_path, random_configuration_pair
from oracle import oracle_search

P8 = Params.from_sides(8, 1.0)
TH = P8.theta


def test_forward_construct_type_b():
    U = Configuration((0.0, 0.0), (1.0, 0.0))
    V = Configuration((7.0, 0.0), (1.0, 0.0))
    spec = CandidateSpec("B", (), (), phis=(0.0, 0.0), s=7.0)
    path, res = forward_construct(spec, U, V, P8)
    assert abs(res[0]) < 1e-12 and abs(res[1]) < 1e-12 and abs(res[2]) < 1e-12


def test_forward_construct_polygon_closure():
    # k = n-1 edges with flush turns at both ends walk the discrete circle
    # to the vertex one step before the start; the exit heading closes the
    # full polygon turn
    U = Configuration((0.0, 0.0), (1.0, 0.0))
    n = P8.n_sides
    spec = CandidateSpec("A", (1,), (n - 1,), phis=(TH, TH), s=None)
    expected = [0.0, 0.0]
    for m in range(1, n):  # edge directions theta, 2 theta, ...
        expected[0] += P8.ell * math.cos(m * TH)
        expected[1] += P8.ell * math.sin(m * TH)
    V = Configuration(tuple(expected), (1.0, 0.0))
    path, res = forward_construct(spec, U, V, P8)
    assert dist(path.vertices[-1], tuple(expected)) < 1e-12
    assert math.hypot(res[0], res[1]) < 1e-9 and abs(res[2]) < 1e-9
    assert dist(path.vertices[-1], (-1.0, 0.0)) < 1e-12  # one step behind u


def test_forward_construct_aba_degenerates_to_b():
    U = Configuration((0.0, 0.0), (1.0, 0.0))
    V = Configuration((5.0, 0.0), (1.0, 0.0))
    spec = CandidateSpec("ABA", (1, 1), (0, 0),
                         phis=(0.0, 0.0, 0.0, 0.0), s=5.0)
    path, res = forward_construct(spec, U, V, P8)
    assert len(path.vertices) == 2
    assert math.hypot(res[0], res[1]) < 1e-12 and abs(res[2]) < 1e-12


def test_solve_candidate_straight():
    U = Configuration((0.0, 0.0), (1.0, 0.0))
    V = Configuration((10.0, 0.0), (1.0, 0.0))
    path = solve_candidate(CandidateSpec("B", (), ()), U, V, P8)
    assert path is not None
    assert path_length(path) == pytest.approx(10.0, abs=1e-12)


def test_plan_straight_far_apart():
    U = Configuration((0.0, 0.0), (1.0, 0.0))
    V = Configuration((12.0, 0.0), (1.0, 0.0))
    res = plan(U, V, P8)
    assert res.type_word == "B"
    assert res.length == pytest.approx(12.0, abs=1e-9)
    assert validate(res.best, P8) == []


def test_plan_point_degenerate():
    # U = V, or U and V at one point with a turn below theta: the path is the
    # single vertex, of empty type and float length 0.0
    U = Configuration((0.0, 0.0), (1.0, 0.0))
    V30 = Configuration.at_angle((0.0, 0.0), math.radians(30.0))
    for V, params in ((U, P8), (V30, Params.from_sides(8, 2.0 * math.sin(math.pi / 8)))):
        res = plan(U, V, params)
        assert (res.type_word, res.length) == ("", 0.0)
        assert type(res.length) is float
        assert len(res.best.vertices) == 1
        assert validate(res.best, params) == []


def test_plan_output_true_type_random():
    rng = np.random.default_rng(51)
    for _ in range(10):
        U, V = random_configuration_pair(rng, (2.0, 10.0))
        res = plan(U, V, P8)
        assert validate(res.best, P8) == []
        word = res.type_word
        assert word == "" or find_forbidden_subtype(word) is None
        solved = [d for d in res.diagnostics if d.status == "solved"]
        assert solved


def test_plan_reversal_matches_smooth_limit():
    # at fine resolution the planned reversal approaches the smooth length,
    # staying below the discretized smooth curve
    n = 360
    params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
    U = Configuration((0.0, 0.0), (1.0, 0.0))
    V = Configuration((0.0, 0.0), (-1.0, 0.0))
    gamma = dubins_solve(U, V)
    assert gamma.length == pytest.approx(7.0 * math.pi / 3.0, abs=1e-12)
    res = plan(U, V, params)
    disc_len = path_length(discretize(gamma, params.theta))
    assert res.length <= disc_len + 1e-9
    assert res.length == pytest.approx(gamma.length, rel=5e-3)
    assert res.type_word in ("AA", "AAA")


def test_plan_antisymmetric_has_mirror_symmetric_candidate():
    # an instance fixed by point reflection: the optimum family contains an
    # arc-bridge-arc solution with equal arc edge counts
    U = Configuration((-3.0, 0.0), (0.0, 1.0))
    V = Configuration((3.0, 0.0), (0.0, -1.0))
    res = plan(U, V, P8)
    ties = [d for d in res.diagnostics
            if d.status == "solved" and d.length is not None
            and d.length <= res.length + 1e-9]
    assert any(d.word == "ABA" and d.ks[0] == d.ks[1] for d in ties)


def test_plan_lateral_against_smooth_oracle():
    # the planned length sits between the smooth optimum minus the joint
    # turn allowance and the discretized smooth curve
    n = 360
    params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
    U = Configuration((0.0, 0.0), (1.0, 0.0))
    V = Configuration((0.0, 4.0), (1.0, 0.0))
    gamma = dubins_solve(U, V)
    res = plan(U, V, params)
    disc_len = path_length(discretize(gamma, params.theta))
    assert res.length <= disc_len + 1e-9
    # up to one free turn of theta at each of the four joints
    assert res.length >= gamma.length - 4.0 * params.theta - 1e-9


def test_plan_not_beaten_by_oracle():
    rng = np.random.default_rng(52)
    for trial in range(4):
        U, V = random_configuration_pair(rng, (3.0, 9.0))
        res = plan(U, V, P8)
        orc = oracle_search(U, V, P8, budget=800, rng=trial)
        assert validate(orc, P8) == []
        assert res.length <= path_length(orc) + 1e-6 * max(1.0, path_length(orc))


def test_plan_rigid_motion_invariance():
    rng = np.random.default_rng(53)
    U, V = random_configuration_pair(rng, (4.0, 9.0))
    base = plan(U, V, P8).length
    for angle, tvec in (((0.7), (3.0, -2.0)), ((-1.2), (0.5, 10.0))):
        U2 = Configuration(add(rotate(U.point, angle), tvec),
                           rotate(U.heading, angle))
        V2 = Configuration(add(rotate(V.point, angle), tvec),
                           rotate(V.heading, angle))
        moved = plan(U2, V2, P8).length
        assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_plan_reversal_symmetry():
    rng = np.random.default_rng(54)
    U, V = random_configuration_pair(rng, (4.0, 9.0))
    base = plan(U, V, P8).length
    rU = Configuration(V.point, scale(V.heading, -1.0))
    rV = Configuration(U.point, scale(U.heading, -1.0))
    rev = plan(rU, rV, P8).length
    assert rev == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_plan_reflection_symmetry():
    rng = np.random.default_rng(55)
    U, V = random_configuration_pair(rng, (4.0, 9.0))
    base = plan(U, V, P8).length
    mU = Configuration((U.point[0], -U.point[1]), (U.heading[0], -U.heading[1]))
    mV = Configuration((V.point[0], -V.point[1]), (V.heading[0], -V.heading[1]))
    mirrored = plan(mU, mV, P8).length
    assert mirrored == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_plan_sandwich_against_discretized_dubins():
    rng = np.random.default_rng(56)
    for n in (8, 16):
        params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
        for _ in range(3):
            U, V = random_configuration_pair(rng, (3.0, 10.0))
            gamma = dubins_solve(U, V)
            if gamma.length <= params.theta:
                continue
            disc = discretize(gamma, params.theta)
            res = plan(U, V, params)
            assert res.length <= path_length(disc) + 1e-9


def test_oracle_straight_instance():
    U = Configuration((0.0, 0.0), (1.0, 0.0))
    V = Configuration((8.0, 0.0), (1.0, 0.0))
    orc = oracle_search(U, V, P8, budget=500, rng=1)
    assert path_length(orc) == pytest.approx(8.0, abs=1e-6)


def test_oracle_reversal_instance_n8():
    U = Configuration((0.0, 0.0), (1.0, 0.0))
    V = Configuration((0.0, 0.0), (-1.0, 0.0))
    res = plan(U, V, P8)
    orc = oracle_search(U, V, P8, budget=1000, rng=2)
    assert path_length(orc) >= res.length - 1e-6


U_TURN = (Configuration((0.0, 0.0), (1.0, 0.0)), Configuration((0.0, 0.0), (-1.0, 0.0)))
LOOP = (Configuration((0.0, 0.0), (1.0, 0.0)), Configuration((0.0, 0.0), (0.0, 1.0)))
ANTIPARALLEL = (Configuration((0.0, 0.0), (1.0, 0.0)),
                Configuration((0.0, 1.0), (-1.0, 0.0)))


def _true_word(word):
    return word == "" or find_forbidden_subtype(word) is None


def test_uturn_n8_reaches_bridge_arc_bridge_optimum():
    # turn theta at u, run 1 + 1/sqrt(2) at 45 degrees, five right arc
    # edges, run 1 + 1/sqrt(2) at 135 degrees, turn theta into v: both long
    # edges carry the ell-heads of overlapping arcs, so the path types AAA
    long_edge = 1.0 + 1.0 / math.sqrt(2.0)
    turns = [TH] + [-TH] * 6 + [TH]
    path = build_path(turns, [long_edge] + [1.0] * 5 + [long_edge])
    assert dist(path.vertices[-1], (0.0, 0.0)) < 1e-12
    assert validate(path, P8) == []
    assert type_string(path, P8) == "AAA"
    assert path_length(path) == pytest.approx(7.0 + math.sqrt(2.0), abs=1e-12)

    res = plan(*U_TURN, P8)
    assert res.length <= 7.0 + math.sqrt(2.0) + 1e-9
    assert validate(res.best, P8) == []
    assert _true_word(res.type_word)


def test_uturn_n8_seed_shortens_to_true_type():
    fixed, trace = shorten(_dubins_seed(_Instance(*U_TURN, P8)).path, P8)
    assert not trace.budget_exhausted
    assert _true_word(type_string(fixed, P8))


def test_plan_ba_quarter_turn_at_n8():
    params = Params.from_sides(8, 2.0 * math.sin(math.pi / 8))
    U = Configuration.at_angle((0.0, 0.0), 0.0)
    V = Configuration.at_angle((3.0, 1.0), math.pi / 2)
    res = plan(U, V, params)
    assert (res.type_word, res.length) == ("BA", pytest.approx(3.26661008290, abs=1e-10))


def test_plan_never_calls_the_rewriter(monkeypatch):
    # on these the enumeration alone answers; the Dubins seed only bounds it
    def no_rewrite(*args, **kwargs):
        raise AssertionError("plan called the rewriter")

    monkeypatch.setattr(planner, "shorten", no_rewrite)
    near = [((0.0, 0.0, 0.0), (1.0, 0.5, 2.0)), ((0.0, 0.0, 0.0), (2.0, -1.0, -1.5)),
            ((0.0, 0.0, 0.0), (0.5, 0.5, math.pi)), ((0.0, 0.0, 1.0), (3.0, 0.0, 0.8))]
    cases = [(n, U, V) for n in (6, 8, 12, 16) for U, V in (U_TURN, LOOP, ANTIPARALLEL)]
    cases += [(64, Configuration.at_angle(u[:2], u[2]), Configuration.at_angle(v[:2], v[2]))
              for u, v in near]
    for n, U, V in cases:
        params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
        res = plan(U, V, params)
        assert validate(res.best, params) == []
        seed = _dubins_seed(_Instance(U, V, params))
        assert seed is not None
        assert res.length <= path_length(seed.path) + params.tol_len
        assert all(d.word != "(seed)" for d in res.diagnostics)


def test_diagnostics_list_only_rows_with_a_realization():
    # every word goes through push_rows: each listed row was solved, failed
    # or pruned at a length, and a partial-arc row names its orientations
    # and edge counts like any other row
    params = Params.from_sides(8, 2.0 * math.sin(math.pi / 8))
    near = [(Configuration.at_angle(u[:2], u[2]), Configuration.at_angle(v[:2], v[2]))
            for u, v in [((0.0, 0.0, 0.0), (1.0, 0.5, 2.0)),
                         ((0.0, 0.0, 0.0), (2.0, -1.0, -1.5))]]
    partial = 0
    for U, V in [U_TURN, LOOP, ANTIPARALLEL] + near:
        for d in plan(U, V, params).diagnostics:
            assert d.status in ("solved", "failed", "pruned"), d
            assert d.length is not None and math.isfinite(d.length), d
            if d.word in _PARTIAL_SHAPES:
                partial += 1
                assert len(d.orientations) == len(d.ks) == d.word.count("A"), d
                assert set(d.orientations) <= {-1, 1} and min(d.ks) >= 1, d
    assert partial > 0


@pytest.mark.parametrize("U, V, word, length", [
    (((0.0, 0.0), (-0.9974445105941095, 0.07144542172649895)),
     ((0.4426216736103688, -0.18348011329187336), (-0.4925415199513043, 0.8702889469159417)),
     "AAA", 5.81271038143565),
    (((0.0, 0.0), (-0.9823304023658345, -0.18715496410135038)),
     ((0.29172532329301654, 0.08077826642816935), (-0.9897333978352357, 0.1429258591351442)),
     "ABA", 6.014671388735986),
], ids=["aaa", "aba"])
def test_guided_plan_polishes_a_forbidden_winner(U, V, word, length):
    # at n = 128 the guided enumeration misses the optimum: its shortest
    # candidate types ABAA, and the rewriter takes it to the true type (a full
    # enumeration finds that type too, shorter by 8.0e-7 relative on the AAA
    # plan and by 7.5e-11 on the ABA plan)
    params = Params.from_sides(128, 2.0 * math.sin(math.pi / 128))
    res = plan(Configuration(*U), Configuration(*V), params)
    assert validate(res.best, params) == []
    assert res.type_word == word
    assert res.length <= length + 1e-9


@pytest.mark.parametrize("n", [6, 8, 12, 16, 24])
@pytest.mark.parametrize("instance", [U_TURN, LOOP, ANTIPARALLEL],
                         ids=["u_turn", "loop", "antiparallel"])
def test_zero_displacement_and_antiparallel_table(n, instance):
    params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
    U, V = instance
    res = plan(U, V, params)
    assert validate(res.best, params) == []
    assert _true_word(res.type_word)
    orc = oracle_search(U, V, params, budget=1000, rng=2)
    assert find_applicable(orc, params) is None
    lo = path_length(orc)
    assert res.length <= lo + 1e-6 * max(1.0, lo)
    fixed, trace = shorten(_dubins_seed(_Instance(U, V, params)).path, params)
    assert not trace.budget_exhausted
    assert _true_word(type_string(fixed, params))


def test_partial_family_coefficients_match_direct_closure():
    # along a two-joint family the closure cross products are degree-one
    # trigonometric polynomials, and cross(e1, e2) is constant where the
    # family turns both F edges or neither; compare the planner's and the
    # reference's coefficients with direct evaluation
    params = Params.from_sides(12, 1.0)
    th = params.theta
    rng = np.random.default_rng(57)
    constant = 0
    for shape in _PARTIAL_SHAPES:
        n_joints = len(shape) + 1
        for _ in range(10):
            U = Configuration((0.0, 0.0), (1.0, 0.0))
            V = Configuration.at_angle(tuple(rng.uniform(-3.0, 3.0, 2)),
                                       float(rng.uniform(0.0, 2.0 * math.pi)))
            inst = _Instance(U, V, params)
            sigmas = rng.choice([-1, 1], (1, shape.count("A")))
            ks = rng.integers(1, 8, (1, shape.count("A")))
            a, b = sorted(int(i) for i in rng.choice(n_joints, 2, replace=False))
            base = rng.uniform(-th, th, n_joints)
            base[a] = 0.0
            # the family turns joint a up and joint b down: tokens between
            # them rotate rigidly
            tokens = np.arange(len(shape))
            inside = ((tokens >= a) & (tokens < b))[None, :]
            _, f_dirs, r_out, r_in, f_cols = _ref_closure_terms(inst, shape, sigmas, ks,
                                                                base[None, :], inside)
            args = ([x + 1j * y for x, y in f_dirs], r_out[0] + 1j * r_out[1],
                    r_in[0] + 1j * r_in[1], [inside[:, t] for t in f_cols])
            ref, coeffs = _ref_family_coeffs(*args), _family_coeffs(*args)
            together = len(f_cols) == 2 and inside[0, f_cols[0]] == inside[0, f_cols[1]]
            constant += together
            for t in rng.uniform(-1.0, 1.0, 4):
                joints = base.copy()
                joints[a] += t
                joints[b] -= t
                _, f_dirs, (rx, ry), _, _ = _ref_closure_terms(inst, shape, sigmas, ks,
                                                               joints[None, :])
                direct = [ex * ry - ey * rx for ex, ey in f_dirs]
                if len(f_dirs) == 2:
                    (e1x, e1y), (e2x, e2y) = f_dirs
                    direct.append(e1x * e2y - e1y * e2x)
                assert len(ref) == len(direct) == len(coeffs)
                for c, d in zip(ref, direct):
                    fit = c[0] + c[1] * math.cos(t) + c[2] * math.sin(t)
                    assert fit[0] == pytest.approx(d[0], abs=1e-12)
                for c, d in zip(coeffs[:len(f_cols)], direct):
                    fit = c[0] + c[1] * math.cos(t) + c[2] * math.sin(t)
                    assert fit[0] == pytest.approx(d[0], abs=1e-12)
                if together:
                    assert coeffs[2][0] == pytest.approx(direct[2][0], abs=1e-12)
    assert constant >= 20


def test_chord_gap_bounds_what_free_edges_cover():
    # the pruning floor of the partial-arc shapes must never exceed
    # |w - sum of arc chords| at any feasible joint turns: within theta,
    # closing the heading, and turning a partial end edge by at most theta
    rng = np.random.default_rng(8)
    checked = shared_checked = 0
    for n in (6, 8, 16):
        params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
        th = params.theta
        for shape in _PARTIAL_SHAPES:
            n_arcs = shape.count("A")
            U = Configuration.at_angle(tuple(rng.uniform(-1.0, 1.0, 2)),
                                       float(rng.uniform(0.0, 2.0 * math.pi)))
            V = Configuration.at_angle(tuple(rng.uniform(-3.0, 3.0, 2)),
                                       float(rng.uniform(0.0, 2.0 * math.pi)))
            inst = _Instance(U, V, params)
            sigmas = rng.choice([-1, 1], (1, n_arcs))
            ks = rng.integers(1, n, (1, n_arcs))
            floor = _chord_gap(inst, [_layout(shape)], sigmas, ks)[0, 0]
            # and the floor plan reads, from the pass over every layout of
            # the arc count (inf only out of the count's reach)
            shared = _ArcRows(inst, _wrap(inst.psi_v - inst.psi_u), sigmas, ks).floor(
                _LAYOUTS[shape], math.inf)[0]
            reach = max(sum(_f_caps(s, params.ell)) for s in _PARTIAL_SHAPES
                        if s.count("A") == n_arcs)
            out_of_reach = inst.d > float(_chord(params, ks).sum()) + reach + params.tol_len
            assert shared == floor or (out_of_reach and shared == math.inf)
            joints = rng.uniform(-th, th, (20000, len(shape) + 1))
            turned = float(((ks - 1) * sigmas).sum()) * th
            need = inst.psi_v - inst.psi_u - turned - joints[:, :-1].sum(axis=1)
            joints[:, -1] = (need + math.pi) % (2.0 * math.pi) - math.pi
            keep = np.abs(joints[:, -1]) <= th
            # the two joints of a partial end edge turn by at most theta together
            caps = _f_caps(shape, params.ell)
            if shape[0] == "F" and caps[0] < params.ell:
                keep &= np.abs(joints[:, 0] + joints[:, 1]) <= th
            if shape[-1] == "F" and caps[-1] < params.ell:
                keep &= np.abs(joints[:, -2] + joints[:, -1]) <= th
            joints = joints[keep]
            _, _, (rx, ry), _, _ = _ref_closure_terms(inst, shape,
                                                      np.repeat(sigmas, len(joints), axis=0),
                                                      np.repeat(ks, len(joints), axis=0), joints)
            if len(joints):
                checked += 1
                assert floor <= np.hypot(rx, ry).min() + 1e-12
                assert shared <= np.hypot(rx, ry).min() + 1e-12 or out_of_reach
                shared_checked += shared < math.inf
    assert checked >= 30 and shared_checked >= 30


_GAP_GRID = 5  # samples per joint between arcs of the earlier, coarser floor


def _ref_chord_gap(inst, shape, sigmas, ks, grid=None):
    # the floor of one shape evaluated once per wind, taking the smallest
    # distance; each joint between arcs is sampled at steps of theta / 2, or
    # at ``grid`` samples over its width
    th = inst.params.theta
    n = len(ks)
    ks = np.asarray(ks, dtype=float)
    chords = _chord(inst.params, ks)
    half = (ks - 1) * sigmas * th / 2.0
    at = [t for t, letter in enumerate(shape) if letter == "A"]
    tx, ty = chords[:, :1], np.zeros((n, 1))
    angle, spent = np.zeros((n, 1)), np.zeros((n, 1))
    margin, slop = np.zeros(n), 0.0
    for i in range(1, len(at)):
        between = at[i] - at[i - 1]
        width = between * th
        if grid is None:
            steps = np.arange(-2 * between, 2 * between + 1) * (th / 2.0)
            step = th / 2.0
        else:
            steps = np.linspace(-width, width, grid)
            step = steps[1] - steps[0]
        cells = angle.shape[1] * len(steps)
        angle = ((angle + (half[:, i - 1] + half[:, i])[:, None])[:, :, None]
                 + steps).reshape(n, cells)
        spent = (spent[:, :, None] + steps).reshape(n, cells)
        tx = np.repeat(tx, len(steps), axis=1) + chords[:, i:i + 1] * np.cos(angle)
        ty = np.repeat(ty, len(steps), axis=1) + chords[:, i:i + 1] * np.sin(angle)
        margin += chords[:, i:].sum(axis=1) * step / 2.0
        slop += step / 2.0
    caps = _f_caps(shape, inst.params.ell)
    first = (at[0] + 1 - (at[0] == 1 and caps[0] < inst.params.ell)) * th
    last = (len(shape) - at[-1] - (at[-1] == len(shape) - 2
                                   and caps[-1] < inst.params.ell)) * th
    need = _norm_arr(inst.psi_v - inst.psi_u - 2.0 * half.sum(axis=1))[:, None]
    size = np.hypot(tx, ty)
    base = inst.psi_u + half[:, :1] + np.arctan2(ty, tx)
    bearing = math.atan2(inst.w[1], inst.w[0])
    gap = np.full(size.shape, math.inf)
    reach = (len(shape) + 1) * th
    for wind in range(-int(reach / TWO_PI) - 1, int(reach / TWO_PI) + 2):
        target = need + wind * TWO_PI - spent
        lo = np.maximum(-first, target - last - slop)
        hi = np.minimum(first, target + last + slop)
        miss = np.maximum(0.0, np.abs(_norm_arr(bearing - base - (lo + hi) / 2.0))
                          - (hi - lo) / 2.0)
        dist_w = np.sqrt((inst.d - size) ** 2
                         + 4.0 * inst.d * size * np.sin(miss / 2.0) ** 2)
        gap = np.minimum(gap, np.where(lo <= hi, dist_w, math.inf))
    return np.maximum(gap.min(axis=1) - margin, inst.d - chords.sum(axis=1)).clip(0.0)


@pytest.mark.parametrize("n", [6, 8, 16, 64])
def test_chord_gap_matches_reference(n):
    # one distance evaluation per cell at its smallest miss over the winds
    # gives the very floors of one evaluation per wind, at theta / 2 steps;
    # so does each layout's column of one pass over every layout of the arc
    # count, the sub-grid of the widest joints
    params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
    rng = np.random.default_rng(30 + n)
    rows = 0
    for shape in _PARTIAL_SHAPES:
        for _ in range(2):
            d = float(rng.uniform(0.0, 7.0)) * params.circumradius
            bearing, h_u, h_v = rng.uniform(0.0, 2.0 * math.pi, 3)
            U = Configuration.at_angle(tuple(rng.uniform(-2.0, 2.0, 2)), float(h_u))
            V = Configuration.at_angle(add(U.point, scale(from_angle(float(bearing)), d)),
                                       float(h_v))
            inst = _Instance(U, V, params)
            sigmas, ks = _word_rows(shape.count("A"), _wrap(inst.psi_v - inst.psi_u),
                                    params.theta, (len(shape) + 1) * params.theta,
                                    range(1, min(n, 10)), False, params.ell, math.inf)
            want = _ref_chord_gap(inst, shape, sigmas, ks)
            got = _chord_gap(inst, [_layout(shape)], sigmas, ks)[:, 0]
            assert np.array_equal(got, want), shape
            layouts = sorted({lay for lay in _LAYOUTS.values() if len(lay) == len(_layout(shape))})
            shared = _chord_gap(inst, layouts, sigmas, ks)[:, layouts.index(_layout(shape))]
            assert np.array_equal(shared, want), shape
            rows += len(ks)
    assert rows >= 1000


def test_convergence_rows_straight_instance():
    from ddgeo.smooth import convergence_experiment
    U = Configuration((0.0, 0.0), (1.0, 0.0))
    V = Configuration((10.0, 0.0), (1.0, 0.0))
    for r in convergence_experiment(U, V, [8, 16, 32]):
        assert r.plan_length == pytest.approx(10.0, abs=1e-9)
        assert r.discretized_length == pytest.approx(10.0, abs=1e-9)
        assert r.dubins_length == pytest.approx(10.0, abs=1e-9)


def test_plan_does_not_import_scipy():
    # a far instance at n = 16, on which plan solves ABA rows
    code = """if True:
        import json, math, sys
        from ddgeo import Configuration, Params, plan
        params = Params.from_sides(16, 2.0 * math.sin(math.pi / 16))
        res = plan(Configuration.at_angle((0.0, 0.0), 0.0),
                   Configuration.at_angle((8.0, -3.0), math.radians(90.0)), params)
        print(json.dumps({"scipy": "scipy" in sys.modules,
                          "aba_solved": sum(d.word == "ABA" and d.status == "solved"
                                            for d in res.diagnostics)}))
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(ddgeo.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["aba_solved"] > 0
    assert not out["scipy"]


def _wrap(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def _band_values(target, sign, theta, slack, k_cap):
    """Edge counts k with sign*(k-1)*theta within slack of target (mod 2pi),
    a step wider on each side: the rows the arc-bridge test draws from."""
    out = set()
    for wind in (-2, -1, 0, 1, 2):
        x = sign * (target + wind * 2.0 * math.pi) / theta
        lo = math.floor(x - slack / theta) + 1
        hi = math.ceil(x + slack / theta)
        for km1 in range(max(0, lo - 1), hi + 1):
            if 1 <= km1 + 1 <= k_cap:
                out.add(km1 + 1)
    return sorted(out)


def _grid_bridge(inst, sigmas, ks, phi_u, phi_v):
    """Reference: shortest feasible bridge over sampled end turns, with the
    joint turns measured from the built chords (inf if none is feasible)."""
    params = inst.params
    th = params.theta
    chords = [params.ell * math.sin(k * th / 2.0) / math.sin(th / 2.0) for k in ks]
    sweeps = [(k - 1) * s * th for s, k in zip(sigmas, ks)]
    psi1 = inst.psi_u + phi_u
    px = inst.U.point[0] + chords[0] * np.cos(psi1 + sweeps[0] / 2.0)
    py = inst.U.point[1] + chords[0] * np.sin(psi1 + sweeps[0] / 2.0)
    ok = np.abs(phi_u) <= th
    if len(ks) == 2:
        psi2 = inst.psi_v - phi_v - sweeps[1]
        qx = inst.V.point[0] - chords[1] * np.cos(psi2 + sweeps[1] / 2.0)
        qy = inst.V.point[1] - chords[1] * np.sin(psi2 + sweeps[1] / 2.0)
    else:
        qx, qy = inst.V.point
    s = np.hypot(qx - px, qy - py)
    beta = np.arctan2(qy - py, qx - px)
    ok = ok & (s > 1e-12) & (np.abs(_wrap(beta - psi1 - sweeps[0])) <= th)
    if len(ks) == 2:
        ok &= np.abs(_wrap(psi2 - beta)) <= th
    else:
        ok &= np.abs(_wrap(inst.psi_v - beta)) <= th
    return float(np.where(ok, s, np.inf).min())


def _arcs_meet(inst, sigmas, ks):
    """Whether arc 1 can end where arc 2 starts with both end turns within
    theta, which leaves an ABA row no shortest bridge (it tends to AA)."""
    params = inst.params
    th = params.theta
    c1, c2 = (params.ell * math.sin(k * th / 2.0) / math.sin(th / 2.0) for k in ks)
    h1, h2 = ((k - 1) * s * th / 2.0 for s, k in zip(sigmas, ks))
    for x in circle_circle_intersection(inst.U.point, c1, inst.V.point, c2) or ():
        phi_u = _wrap(angle_of(sub(x, inst.U.point)) - inst.psi_u - h1)
        phi_v = _wrap(inst.psi_v - h2 - angle_of(sub(inst.V.point, x)))
        if max(abs(phi_u), abs(phi_v)) <= th:
            return True
    return False


@pytest.mark.parametrize("n", [8, 16])
def test_arc_bridge_rows_beat_dense_search(n):
    # the closed-form ABA / AB bridge is no longer than the best point of a
    # dense grid (257 x 257 end turns) or line (4097 end turns), its turns
    # are within theta and close on V, and its path validates when the
    # bridge is long; some rows have their optimum on a joint bound.  Rows
    # whose arcs can meet have no shortest bridge and are not compared.
    params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
    th, ell = params.theta, params.ell
    rng = np.random.default_rng(60 + n)
    grid = np.linspace(-th, th, 257)
    line = np.linspace(-th, th, 4097)
    on_joint = feasible = 0
    for _ in range(16):
        U = Configuration.at_angle(tuple(rng.uniform(-1.0, 1.0, 2)),
                                   float(rng.uniform(0.0, 2.0 * math.pi)))
        bearing = float(rng.uniform(0.0, 2.0 * math.pi))
        V = Configuration.at_angle(add(U.point, scale(from_angle(bearing),
                                                      float(rng.uniform(0.5, 6.0)))),
                                   float(rng.uniform(0.0, 2.0 * math.pi)))
        inst = _Instance(U, V, params)
        dpsi = inst.psi_v - inst.psi_u
        rows = []
        for _ in range(10):
            s1, s2 = (int(x) for x in rng.choice([-1, 1], 2))
            k1 = int(rng.integers(1, n))
            k2s = _band_values(dpsi - s1 * (k1 - 1) * th, s2, th, 4.0 * th, n - 1)
            rows.append((s1, s2, k1, int(rng.choice(k2s))))
        rows = np.array(rows)
        sigmas, ks = rows[:, :2], rows[:, 2:]
        s, psi1, psi_b, psi2 = aba_rows(inst, sigmas, ks)
        ab_s, ab_psi1, ab_psi_b = ab_rows(inst, sigmas[:, 0], ks[:, 0])
        for r, (s1, s2, k1, k2) in enumerate(rows.tolist()):
            if not _arcs_meet(inst, (s1, s2), (k1, k2)):
                ref = _grid_bridge(inst, (s1, s2), (k1, k2), grid[:, None], grid[None, :])
                assert s[r] <= ref + 1e-9 * ell
            ab_ref = _grid_bridge(inst, (s1,), (k1,), line, None)
            assert ab_s[r] <= ab_ref + 1e-9 * ell
            if s[r] < math.inf:
                feasible += 1
                joints = (psi1[r] - inst.psi_u, psi_b[r] - psi1[r] - (k1 - 1) * s1 * th,
                          psi2[r] - psi_b[r], inst.psi_v - psi2[r] - (k2 - 1) * s2 * th)
                joints = tuple(float(_wrap(j)) for j in joints)
                assert max(abs(j) for j in joints) <= th + 1e-9
                on_joint += max(abs(joints[1]), abs(joints[2])) >= th - 1e-9
                spec = CandidateSpec("ABA", (s1, s2), (k1, k2), phis=joints, s=float(s[r]))
                _, miss = forward_construct(spec, U, V, params)
                assert max(abs(x) for x in miss) <= 1e-9
                if s[r] > ell * (1.0 + 1e-6):
                    path = solve_candidate(CandidateSpec("ABA", (s1, s2), (k1, k2)),
                                           U, V, params)
                    assert path is not None and validate(path, params) == []
            if ab_s[r] < math.inf:
                joints = (ab_psi1[r] - inst.psi_u,
                          ab_psi_b[r] - ab_psi1[r] - (k1 - 1) * s1 * th,
                          inst.psi_v - ab_psi_b[r])
                joints = tuple(float(_wrap(j)) for j in joints)
                assert max(abs(j) for j in joints) <= th + 1e-9
                spec = CandidateSpec("AB", (s1,), (k1,), phis=joints, s=float(ab_s[r]))
                _, miss = forward_construct(spec, U, V, params)
                assert max(abs(x) for x in miss) <= 1e-9
                if ab_s[r] > ell * (1.0 + 1e-6):
                    path = solve_candidate(CandidateSpec("AB", (s1,), (k1,)), U, V, params)
                    assert path is not None and validate(path, params) == []
    assert feasible >= 20 and on_joint >= 10


def test_plan_not_beaten_by_exact_bridge_rows():
    # plan solves AB, BA and ABA as the partial-arc shapes AF, FA and AFA,
    # which realize some rows longer than their exact optimum (the argument
    # at _joint_patterns); the shortest exact row that validates never beats
    # the plan.  U sits at the origin with heading 0, d is in [0.5, 12].
    rng = np.random.default_rng(3)
    longer = 0
    for _ in range(80):
        n = int(rng.choice([6, 8, 12, 16]))
        params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
        th = params.theta
        d = float(rng.uniform(0.5, 12.0))
        bearing, heading = (float(x) for x in rng.uniform(0.0, 2.0 * math.pi, 2))
        U = Configuration.at_angle((0.0, 0.0), 0.0)
        V = Configuration.at_angle((d * math.cos(bearing), d * math.sin(bearing)), heading)
        inst = _Instance(U, V, params)
        exact = math.inf
        for word, solve in BRIDGE_SOLVERS.items():
            sigmas, ks = _word_rows(word.count("A"), _wrap(inst.psi_v - inst.psi_u), th,
                                    (len(word) + 1) * th, range(1, n), False, params.ell,
                                    math.inf)
            lengths, build = solve(inst, sigmas, ks)
            longer += int(np.sum(_ROW_SOLVERS[word](inst, sigmas, ks)[0]
                                 > lengths * (1.0 + 1e-9)))
            for r in np.argsort(lengths, kind="stable").tolist():
                if lengths[r] == math.inf:
                    break
                frame = inst.finish(build(r))
                if frame is not None:
                    exact = min(exact, frame.total)
                    break
        assert plan(U, V, params).length <= exact + 1e-9 * params.ell
    assert longer >= 100


def _ref_arc_rows(inst, sigmas, ks, samples):
    """Reference for the all-arc words: per row, whether a sampled member
    keeps every turn within theta.  One arc's chord spans U to V; two arcs
    close as a two-link chain, or back to back over sampled start turns
    where w = 0 and the chords are equal; three arcs scan the start turn
    and close arcs 2 and 3 as a two-link chain."""
    params = inst.params
    th = params.theta
    c = params.ell * np.sin(ks * th / 2.0) / math.sin(th / 2.0)
    h = (ks - 1) * sigmas * th / 2.0
    w = complex(*inst.w)

    def feasible(rows, *a):  # chord directions, rows x samples each
        psi = [x - h[rows, i, None] for i, x in enumerate(a)]
        turns = [psi[0] - inst.psi_u, inst.psi_v - psi[-1] - 2.0 * h[rows, -1, None]]
        turns += [q - p - 2.0 * h[rows, i, None] for i, (p, q) in enumerate(zip(psi, psi[1:]))]
        return np.all([np.abs(_wrap(t)) <= th for t in turns], axis=0)

    def elbows(rest, c1, c2):  # both solutions of c1 e^{ia1} + c2 e^{ia2} = rest
        d = np.abs(rest)
        cos_g = (c1 * c1 + d * d - c2 * c2) / (2.0 * c1 * np.maximum(d, 1e-300))
        has = (d > 1e-12) & (np.abs(cos_g) <= 1.0)
        g = np.arccos(np.clip(cos_g, -1.0, 1.0))
        for a1 in (np.angle(rest) + g, np.angle(rest) - g):
            yield has, a1, np.angle(rest - c1 * np.exp(1j * a1))

    out = np.zeros(len(ks), dtype=bool)
    if ks.shape[1] == 1:
        rows = np.flatnonzero((np.abs(inst.d - c[:, 0]) <= inst.snap_tol)
                              & (inst.d > params.tol_dedup))
        out[rows] = feasible(rows, np.full((len(rows), 1), np.angle(w)))[:, 0]
        return out
    if ks.shape[1] == 2:
        rows = np.arange(len(ks))
        for has, a1, a2 in elbows(np.full(len(ks), w), c[:, 0], c[:, 1]):
            out |= has & feasible(rows, a1[:, None], a2[:, None])[:, 0]
        if abs(w) <= 1e-12:
            rows = np.flatnonzero(np.abs(c[:, 0] - c[:, 1]) <= 1e-12)
            a1 = inst.psi_u + h[rows, 0, None] + samples
            out[rows] |= feasible(rows, a1, a1 + math.pi).any(axis=1)
        return out
    for rows in np.array_split(np.arange(len(ks)), max(1, len(ks) // 200)):
        a1 = inst.psi_u + h[rows, 0, None] + samples
        rest = w - c[rows, 0, None] * np.exp(1j * a1)
        for has, a2, a3 in elbows(rest, c[rows, 1, None], c[rows, 2, None]):
            out[rows] |= (has & feasible(rows, a1, a2, a3)).any(axis=1)
    return out


@pytest.mark.parametrize("n", [8, 12, 16, 24])
def test_arc_rows_beat_dense_search(n):
    # the exact A / AA / AAA solve calls feasible every row that a dense
    # scan of the start turn (2001 samples) does, at the same length; its
    # solutions keep every turn within theta and close on V, and a sample
    # of them builds paths that validate.  The instances are w = 0 with
    # headings that back-to-back half circles join, the ends of random AA
    # and AAA paths, and a random pair, each with rows over seven edge
    # counts.
    params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
    th = params.theta
    rng = np.random.default_rng(90 + n)
    samples = np.linspace(-th, th, 2001)
    solved_at_zero = solved_aaa = 0
    for trial in range(4):
        U = Configuration.at_angle(tuple(rng.uniform(-1.0, 1.0, 2)),
                                   float(rng.uniform(0.0, 2.0 * math.pi)))
        k_set = set(rng.choice(np.arange(1, n), size=7, replace=False).tolist())
        if trial == 0:
            # full loops: back-to-back arcs of n / 2 edges close here
            V = Configuration.at_angle(U.point, angle_of(U.heading) + float(rng.uniform(-th, th)))
            k_set = set(range(n // 2 - 3, n // 2 + 4))
        elif trial < 3:
            m = trial + 1
            ks = tuple(int(k) for k in rng.integers(1, n, m))
            spec = CandidateSpec("A" * m, tuple(int(s) for s in rng.choice([-1, 1], m)), ks,
                                 phis=tuple(rng.uniform(-th, th, m + 1)))
            V = forward_construct(spec, U, U, params)[0].end
            k_set = set(list(k_set)[:7 - m]) | set(ks)
        else:
            V = Configuration.at_angle(
                add(U.point, scale(from_angle(float(rng.uniform(0.0, 2.0 * math.pi))),
                                   float(rng.uniform(0.0, 4.0)))),
                float(rng.uniform(0.0, 2.0 * math.pi)))
        inst = _Instance(U, V, params)
        for word in ("A", "AA", "AAA"):
            sigmas, ks = _word_rows(len(word), _wrap(inst.psi_v - inst.psi_u), th,
                                    (len(word) + 1) * th, sorted(k_set), False,
                                    params.ell, math.inf)
            lengths, build = _ROW_SOLVERS[word](inst, sigmas, ks)
            ref = _ref_arc_rows(inst, sigmas, ks, samples)
            assert np.array_equal(lengths[ref], ks[ref].sum(axis=1) * params.ell)
            solved = np.flatnonzero(lengths < math.inf)
            solved_aaa += len(solved) if word == "AAA" else 0
            solved_at_zero += len(solved) if trial == 0 and word == "AA" else 0
            for r in solved.tolist():
                verts = np.array(build(r))
                assert dist(tuple(verts[-1]), V.point) <= inst.snap_tol
                edges = np.diff(verts, axis=0)
                heads = np.concatenate([[inst.psi_u], np.arctan2(edges[:, 1], edges[:, 0]),
                                        [inst.psi_v]])
                assert np.abs(_wrap(np.diff(heads))).max() <= th + 1e-9
            for r in rng.choice(solved, min(len(solved), 4), replace=False).tolist():
                spec = CandidateSpec(word, tuple(sigmas[r].tolist()), tuple(ks[r].tolist()))
                path = solve_candidate(spec, U, V, params)
                assert path is not None and validate(path, params) == []
    assert solved_at_zero >= 1 and solved_aaa >= 5


@pytest.mark.parametrize("n", [4, 6, 8])
def test_word_rows_match_brute_force(n):
    # the heading-band enumerator gives exactly the rows of a brute-force
    # filter over the full product of orientations and counts, once each and
    # in the same order (orientation-major, then lexicographic); at n = 4 the
    # band of three arcs with slack 4 theta wraps the whole circle
    th, ell = 2.0 * math.pi / n, 1.0
    full = list(range(1, n))
    rng = np.random.default_rng(70 + n)
    rows = 0
    for n_arcs in (0, 1, 2, 3):
        for letters, guided in itertools.product(range(n_arcs, n_arcs + 3), (False, True)):
            for _ in range(3):
                dpsi = float(rng.uniform(-math.pi, math.pi))
                counts = full if not guided else sorted(
                    int(k) for k in rng.choice(full, max(2, n // 2), replace=False))
                cap = math.inf if rng.random() < 0.5 else float(rng.uniform(1.0, 2.0 * n))
                slack = (letters + 1) * th
                sigmas, ks = _word_rows(n_arcs, dpsi, th, slack, counts, guided, ell, cap)
                got = list(zip(map(tuple, sigmas.tolist()), map(tuple, ks.tolist())))
                want = []
                for o in itertools.product((1, -1), repeat=n_arcs):
                    if guided and n_arcs == 3 and not o[0] == -o[1] == o[2]:
                        continue
                    for k in itertools.product(counts, repeat=n_arcs):
                        turned = sum((a - 1) * b for a, b in zip(k, o)) * th
                        if (abs(_wrap(dpsi - turned)) <= slack + 1e-9
                                and not any(a == 1 and b < 0 for a, b in zip(k, o))
                                and sum(k) * ell <= cap):
                            want.append((o, k))
                assert got == want
                rows += len(got)
    assert rows >= 500


@pytest.mark.parametrize("n", [8, 16, 64])
def test_shared_rows_match_word_rows(n):
    # plan builds each arc count's rows once, at the widest slack of its
    # words and the cap of its first word; every word then picks the very
    # rows _word_rows gives it at its own slack and the current cap, in the
    # same order, guided (CCC, counts around the smooth sweeps) or not.  Half
    # the heading changes are whole steps of theta, which puts rows on the
    # slack bounds
    params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
    th, ell = params.theta, params.ell
    rng = np.random.default_rng(150 + n)
    picked = 0
    for guided in (False, True):
        for trial in range(6):
            h_u = float(rng.uniform(0.0, 2.0 * math.pi))
            h_v = (h_u + int(rng.integers(n)) * th if trial % 2
                   else float(rng.uniform(0.0, 2.0 * math.pi)))
            U = Configuration.at_angle((0.0, 0.0), h_u)
            V = Configuration.at_angle(tuple(rng.uniform(-3.0, 3.0, 2)), h_v)
            inst = _Instance(U, V, params)
            dpsi = normalize_angle(inst.psi_v - inst.psi_u)
            counts = (_guided_range(_smooth_guess(inst), th, n - 1) if guided
                      else list(range(1, n)))
            cap = math.inf if rng.random() < 0.5 else float(rng.uniform(2.0, n)) * ell
            shared = {}
            for word in _WORDS:
                n_arcs = word.count("A")
                if n_arcs not in shared:
                    shared[n_arcs] = _ArcRows(inst, dpsi, *_word_rows(
                        n_arcs, dpsi, th, _WIDEST_SLACK[n_arcs] * th, counts, guided, ell, cap))
                rows = shared[n_arcs]
                at = rows.pick((len(word) + 1) * th, cap)
                sigmas, ks = _word_rows(n_arcs, dpsi, th, (len(word) + 1) * th, counts,
                                        guided, ell, cap)
                assert np.array_equal(rows.sigmas[at], sigmas), (word, guided)
                assert np.array_equal(rows.ks[at], ks), (word, guided)
                picked += len(at)
                cap *= float(rng.uniform(0.8, 1.0))  # the incumbent only falls
    assert picked >= 2000


def test_plan_builds_rows_once_per_arc_count_and_floors_once_per_layout(monkeypatch):
    # one plan call runs _word_rows at most once per arc count and floors a
    # row at most once per (arc count, first, last): _chord_gap takes every
    # layout of the count at once, in chunks of rows, with one wind pass per
    # budget (first, last) of end joints.  The ten three-arc shapes share
    # four layouts and one budget
    three = {_LAYOUTS[s] for s in _PARTIAL_SHAPES if s.count("A") == 3}
    assert len(three) == 4 and len({(lay[0], lay[-1]) for lay in three}) == 1
    calls = {"_word_rows": [], "_chord_gap": []}

    def passes(args):  # (arc count, first, last, row) per row and budget
        layouts, sigmas, ks = args[1:]
        n_arcs = len(layouts[0]) - 1
        assert list(layouts) == sorted({lay for lay in _LAYOUTS.values()
                                        if len(lay) == n_arcs + 1})
        return [(n_arcs, *ends, repr((s, k))) for ends in {(lay[0], lay[-1]) for lay in layouts}
                for s, k in zip(sigmas.tolist(), ks.tolist())]

    for name, key in (("_word_rows", lambda a: [a[0]]), ("_chord_gap", passes)):
        def wrapped(*args, _orig=getattr(planner, name), _name=name, _key=key):
            calls[_name] += _key(args)
            return _orig(*args)
        monkeypatch.setattr(planner, name, wrapped)
    params = Params.from_sides(16, 2.0 * math.sin(math.pi / 16))
    for U, V in (U_TURN, LOOP, ANTIPARALLEL):
        for made in calls.values():
            made.clear()
        plan(U, V, params)
        assert len(calls["_word_rows"]) == len(set(calls["_word_rows"])) <= 4
        assert len(calls["_chord_gap"]) == len(set(calls["_chord_gap"]))
        budgets = {key[:3] for key in calls["_chord_gap"]}
        assert budgets == {(1, 2, 2), (2, 2, 1), (2, 1, 2), (2, 2, 2), (3, 1, 1)}


@pytest.mark.parametrize("n", [8, 16, 64])
def test_floor_skips_only_rows_it_cannot_keep(n):
    # _ArcRows.floor leaves a row at inf, unsolved, only where _chord_gap
    # would give it inf or a floor above the cap, so every shape of every
    # layout passes the very rows to push_rows that a floor over all rows
    # within the cap and the arc count's reach would pass.  Guided or not;
    # half the heading changes are whole steps of theta, which puts misses on
    # the turn bound.  The cap is what the incumbent may be when an arc count
    # is first floored: the Dubins seed or somewhat below
    params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
    th, ell, tol_len = params.theta, params.ell, params.tol_len
    rng = np.random.default_rng(290 + n)
    skipped = kept = 0
    for guided in (False, True):
        for trial in range({8: 12, 16: 6, 64: 2}[n]):
            h_u = float(rng.uniform(0.0, 2.0 * math.pi))
            h_v = (h_u + int(rng.integers(n)) * th if trial % 2
                   else float(rng.uniform(0.0, 2.0 * math.pi)))
            d = float(rng.uniform(0.0, 3.0))
            bearing = float(rng.uniform(0.0, 2.0 * math.pi))
            U = Configuration.at_angle((0.0, 0.0), h_u)
            V = Configuration.at_angle((d * math.cos(bearing), d * math.sin(bearing)), h_v)
            inst = _Instance(U, V, params)
            seed = _dubins_seed(inst)
            cap = math.inf if seed is None else \
                seed.total * float(rng.uniform(0.7, 1.0)) + tol_len
            dpsi = normalize_angle(inst.psi_v - inst.psi_u)
            counts = (_guided_range(_smooth_guess(inst), th, n - 1) if guided
                      else list(range(1, n)))
            for n_arcs in (1, 2, 3):
                arcs = _ArcRows(inst, dpsi, *_word_rows(
                    n_arcs, dpsi, th, _WIDEST_SLACK[n_arcs] * th, counts, guided, ell, cap))
                reach = max(sum(_f_caps(s, ell)) for s in _PARTIAL_SHAPES
                            if s.count("A") == n_arcs)
                at = np.flatnonzero((arcs.edges <= cap)
                                    & (inst.d <= arcs.chords + reach + tol_len))
                for layout in sorted({lay for lay in _LAYOUTS.values()
                                      if len(lay) == n_arcs + 1}):
                    shapes = [s for s in _PARTIAL_SHAPES if _LAYOUTS[s] == layout]
                    full = np.full(len(arcs.ks), math.inf)
                    full[at] = _chord_gap(inst, [layout], arcs.sigmas[at], arcs.ks[at])[:, 0]
                    got = arcs.floor(layout, cap)
                    skip = np.isinf(got) & np.isin(np.arange(len(got)), at)
                    floor = arcs.edges + full
                    assert np.all(np.isinf(full[skip]) | (floor[skip] > cap)), (layout, guided)
                    assert np.array_equal(got[~skip], full[~skip]), (layout, guided)
                    for shape in shapes:
                        room = sum(_f_caps(shape, ell)) + tol_len
                        for word_cap in (cap, 0.97 * cap):
                            pick = arcs.pick((len(shape) + 1) * th, word_cap)
                            want = (full[pick] <= room) & (floor[pick] <= word_cap)
                            live = (got[pick] <= room) & (arcs.edges[pick] + got[pick] <= word_cap)
                            assert np.array_equal(live, want), (shape, guided)
                    skipped += int(skip.sum())
                    kept += int(np.isfinite(got).sum())
    assert skipped >= 50 and kept >= 1000


def test_floors_only_prune(monkeypatch):
    # the theta / 2 floors of one pass per arc count are tighter than the
    # 5-sample floors per layout of the test reference but still lower
    # bounds, so they drop only rows with no realization within the
    # incumbent: the same plans and the same diagnostics, from fewer rows
    rng = np.random.default_rng(31)
    cases = []
    for i in range(40):
        n = (6, 8, 12, 16)[i % 4]
        params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
        cases.append((params, *random_configuration_pair(rng, (0.0, 3.0))))
    solved = {"tight": 0, "coarse": 0}
    run = "tight"

    def counted(inst, shape, sigmas, ks, cap, _orig=_solve_partial):
        solved[run] += len(ks)
        return _orig(inst, shape, sigmas, ks, cap)

    monkeypatch.setattr(planner, "_solve_partial", counted)
    tight = [plan(U, V, params) for params, U, V in cases]

    def coarse(self, layout, cap):
        if layout not in self.floors:
            shape = next(s for s in _PARTIAL_SHAPES if _LAYOUTS[s] == layout)
            self.floors[layout] = _ref_chord_gap(self.inst, shape, self.sigmas, self.ks,
                                                 _GAP_GRID)
        return self.floors[layout]

    monkeypatch.setattr(_ArcRows, "floor", coarse)
    run = "coarse"
    for (params, U, V), res in zip(cases, tight):
        ref = plan(U, V, params)
        assert (repr(res.length), res.type_word, repr(res.best)) == \
            (repr(ref.length), ref.type_word, repr(ref.best)), (U, V, params.n_sides)
        assert res.diagnostics == ref.diagnostics, (U, V, params.n_sides)
    assert solved["tight"] < solved["coarse"]


@pytest.mark.parametrize("n", [8, 16])
def test_floor_chunks_match_one_pass(n, monkeypatch):
    # _ArcRows.floor takes the rows of an arc count through _chord_gap in
    # chunks of at most _PAIR_BUDGET row-cell pairs; chunks of a few rows
    # give every layout the very floors of one pass over the whole union
    params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
    th, ell = params.theta, params.ell
    rng = np.random.default_rng(330 + n)
    calls, finite, splits = [], 0, 0

    def counted(*args, _orig=_chord_gap):
        calls.append(len(args[3]))
        return _orig(*args)

    monkeypatch.setattr(planner, "_chord_gap", counted)
    for _ in range(3):
        U, V = random_configuration_pair(rng, (0.0, 3.0))
        inst = _Instance(U, V, params)
        dpsi = normalize_angle(inst.psi_v - inst.psi_u)
        for n_arcs in (1, 2, 3):
            rows = _word_rows(n_arcs, dpsi, th, _WIDEST_SLACK[n_arcs] * th, range(1, n),
                              False, ell, math.inf)
            layouts = sorted({lay for lay in _LAYOUTS.values() if len(lay) == n_arcs + 1})
            floors = []
            for budget in (1 << 62, 7 * 81 + 3):
                monkeypatch.setattr(planner, "_PAIR_BUDGET", budget)
                calls.clear()
                arcs = _ArcRows(inst, dpsi, *rows)
                floors.append([arcs.floor(lay, math.inf) for lay in layouts])
                assert len(calls) <= 1 or budget != 1 << 62
            splits += len(calls) > 1
            for split in floors[1:]:
                for a, b in zip(floors[0], split):
                    assert np.array_equal(a, b), (n_arcs, U, V)
            finite += int(np.isfinite(floors[0]).sum())
    assert finite >= 1000 and splits >= 6


def test_bridged_words_within_the_incumbent_plan_as_uncapped(monkeypatch):
    # AB, BA and ABA solve within the incumbent like every word with an F
    # edge: the same plans as with no cap, and the same diagnostics less
    # the uncapped run's AB/BA/ABA rows pruned above the incumbent
    rng = np.random.default_rng(29)
    cases = []
    for i in range(40):
        n = (6, 8, 12, 16)[i % 4]
        params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
        cases.append((params, *random_configuration_pair(rng, (0.5, 12.0))))
    capped = [plan(U, V, params) for params, U, V in cases]
    for word, shape in planner._BRIDGED.items():
        monkeypatch.setitem(_ROW_SOLVERS, word, lambda inst, sigmas, ks, cap=math.inf, _s=shape:
                            _solve_partial(inst, _s, sigmas, ks, math.inf))
    dropped = 0
    for (params, U, V), res in zip(cases, capped):
        ref = plan(U, V, params)
        assert (repr(res.length), res.type_word, repr(res.best)) == \
            (repr(ref.length), ref.type_word, repr(ref.best)), (U, V, params.n_sides)
        listed = {astuple(d) for d in res.diagnostics}
        assert res.diagnostics == [d for d in ref.diagnostics if astuple(d) in listed]
        for d in ref.diagnostics:
            if astuple(d) not in listed:
                assert d.word in planner._BRIDGED and d.status == "pruned", d
                assert d.length > ref.length + params.tol_len, d
                dropped += 1
    assert dropped >= 100


@pytest.mark.parametrize("word", list(_ROW_SOLVERS))
def test_row_solvers_batch_matches_single_rows(word):
    # every row of a batch gets the length a one-row call and solve_candidate
    # give it
    n = 16
    params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
    th = params.theta
    rng = np.random.default_rng(80)
    instances = [U_TURN, LOOP, ANTIPARALLEL,
                 (Configuration.at_angle((0.0, 0.0), 0.1),
                  Configuration.at_angle((6.0, 1.0), math.atan2(1.0, 6.0)))]
    U = Configuration.at_angle((0.0, 0.0), 0.0)
    arc, _ = forward_construct(CandidateSpec("A", (1,), (5,), phis=(0.1, -0.2)), U, U, params)
    instances.append((U, arc.end))
    for d in (1.0, 2.5, 6.0):
        bearing, h_u, h_v = rng.uniform(0.0, 2.0 * math.pi, 3)
        instances.append((Configuration.at_angle((0.0, 0.0), float(h_u)),
                          Configuration.at_angle((d * math.cos(bearing), d * math.sin(bearing)),
                                                 float(h_v))))
    built = 0
    for U, V in instances:
        inst = _Instance(U, V, params)
        dpsi = _wrap(inst.psi_v - inst.psi_u)
        sigmas, ks = _word_rows(word.count("A"), dpsi, th, (len(word) + 1) * th,
                                range(1, n), False, params.ell, math.inf)
        lengths, _ = _ROW_SOLVERS[word](inst, sigmas, ks)
        # one-row calls on a sample of the rows
        for r in sorted(rng.choice(len(ks), min(len(ks), 60), replace=False).tolist()):
            one, _ = _ROW_SOLVERS[word](inst, sigmas[r:r + 1], ks[r:r + 1])
            assert one[0] == pytest.approx(lengths[r], rel=1e-12)
            spec = CandidateSpec(word, tuple(sigmas[r].tolist()), tuple(ks[r].tolist()))
            path = solve_candidate(spec, U, V, params)
            if lengths[r] == math.inf:
                assert path is None
            elif path is not None:
                assert path_length(path) == pytest.approx(lengths[r], rel=1e-9)
                built += 1
    assert built >= 1



# ---------------------------------------------------------------------------
# Reference partial-arc solve: every joint pattern, a dense heading test, and
# a second closure pass over the solved family rows.  The planner's solve
# prunes dead patterns, filters headings per pattern sum, floors each joint
# row and evaluates the families in one pass; it must decide the same.

def _ref_joint_patterns(shape, theta):
    n_joints = len(shape) + 1
    choices = []
    for i in range(n_joints):
        terminal_f = (i == 0 and shape[0] == "F") or \
                     (i == n_joints - 1 and shape[-1] == "F")
        choices.append((-theta, 0.0, theta) if terminal_f else (-theta, theta))
    frees = list(itertools.combinations(range(n_joints), 2))
    if shape.count("F") == 2:
        frees = [(f,) for f in range(n_joints)] + frees
    rows, head, scan = [], [], []
    for free in frees:
        others = [choices[i] for i in range(n_joints) if i not in free]
        for combo in itertools.product(*others):
            values = iter(combo)
            rows.append([0.0 if i in free else next(values) for i in range(n_joints)])
            head.append(free[-1])
            scan.append(free[0] if len(free) == 2 else -1)
    return np.array(rows), np.array(head), np.array(scan)


def _ref_closure_terms(inst, shape, sigmas, ks, joints, inside=None):
    th = inst.params.theta
    psi = inst.psi_u + np.cumsum(joints[:, :-1], axis=1)
    out_x = np.full(len(joints), float(inst.w[0]))
    out_y = np.full(len(joints), float(inst.w[1]))
    in_x, in_y = np.zeros(len(joints)), np.zeros(len(joints))
    f_cols = []
    arc_i = 0
    for t, letter in enumerate(shape):
        if letter == "F":
            f_cols.append(t)
            continue
        k, sweep = ks[:, arc_i], (ks[:, arc_i] - 1) * sigmas[:, arc_i] * th
        arc_i += 1
        chord = _chord(inst.params, k)
        cx = chord * np.cos(psi[:, t] + sweep / 2.0)
        cy = chord * np.sin(psi[:, t] + sweep / 2.0)
        m = False if inside is None else inside[:, t]
        out_x -= np.where(m, 0.0, cx)
        out_y -= np.where(m, 0.0, cy)
        in_x += np.where(m, cx, 0.0)
        in_y += np.where(m, cy, 0.0)
        psi[:, t + 1:] += sweep[:, None]
    f_dirs = [(np.cos(psi[:, t]), np.sin(psi[:, t])) for t in f_cols]
    return psi, f_dirs, (out_x, out_y), (in_x, in_y), f_cols


def _ref_family_coeffs(f_dirs, r_out, r_in, rotating):
    # the closure cross products of every two-joint family as c0 + c1 cos t
    # + c2 sin t, with cross(e1(t), e2(t)) in the same form, so that it
    # also holds where one F edge turns and the other does not
    out = []
    for e, m in zip(f_dirs, rotating):
        ce = np.conj(e)
        p, q = ce * r_out, ce * r_in
        out.append((np.where(m, -q.imag, p.imag), np.where(m, p.imag, -q.imag),
                    -np.where(m, p.real, q.real)))
    if len(f_dirs) == 2:
        (e1, e2), (m1, m2) = f_dirs, rotating
        g = np.conj(e1) * e2
        same = m1 == m2
        out.append((np.where(same, g.imag, 0.0), np.where(same, 0.0, g.imag),
                    np.where(same, 0.0, np.where(m2, g.real, -g.real))))
    return out


def _ref_stationary(coeffs):
    # (N / D)' = 0 for N = X1 - X2 as alpha sin t + beta cos t + gamma = 0
    x1, x2, (d0, d1, d2) = coeffs
    n0, n1, n2 = (a - b for a, b in zip(x1, x2))
    return n0 * d1 - n1 * d0, n2 * d0 - n0 * d2, n2 * d1 - n1 * d2


def _ref_partial_closure(inst, shape, sigmas, ks, joints):
    params = inst.params
    th, ell = params.theta, params.ell
    psi, f_dirs, r, _, f_cols = _ref_closure_terms(inst, shape, sigmas, ks, joints)
    if len(f_dirs) == 1:
        (e,) = f_dirs
        lens = [e[0] * r[0] + e[1] * r[1]]
        ok = np.abs(e[0] * r[1] - e[1] * r[0]) <= inst.snap_tol
    else:
        e1, e2 = f_dirs
        det = e1[0] * e2[1] - e1[1] * e2[0]
        ok = np.abs(det) > 1e-12
        safe = np.where(ok, det, 1.0)
        lens = [(r[0] * e2[1] - r[1] * e2[0]) / safe, (e1[0] * r[1] - e1[1] * r[0]) / safe]
    ok &= np.all(np.abs(joints) <= th + 1e-12, axis=1)
    for t, ln, cap in zip(f_cols, lens, _f_caps(shape, ell)):
        a, b = joints[:, t], joints[:, t + 1]
        infl = ((a > TOL_ANG) & (b < -TOL_ANG)) | ((a < -TOL_ANG) & (b > TOL_ANG))
        ok &= (ln > 10.0 * params.tol_dedup) & (ln < cap)
        ok &= (ln >= ell * (1.0 - 1e-12)) | infl | (np.abs(a + b) <= th + 1e-12)
    return psi, lens, ks.sum(axis=1) * ell + sum(lens), ok


def _ref_solve_partial(inst, shape, sigma_batch, ks_batch, length_cap):
    th = inst.params.theta
    vals, p_head, p_scan = _ref_joint_patterns(shape, th)
    need = inst.psi_v - inst.psi_u - ((ks_batch - 1) * sigma_batch).sum(axis=1) * th
    reach = np.where(p_scan < 0, th, 2.0 * th) + 5e-10
    left = _norm_arr(need[:, None] - vals.sum(axis=1)[None, :])
    tup, pat = np.nonzero(np.abs(left) <= reach)
    sigmas, ks = sigma_batch[tup], ks_batch[tup]
    head, scan = p_head[pat], p_scan[pat]
    joints = vals[pat]
    rows = np.arange(len(pat))
    joints[rows, head] = _norm_arr(need[tup] - joints.sum(axis=1))
    tokens = np.arange(len(shape))[None, :]
    inside = (scan[:, None] >= 0) & (tokens >= scan[:, None]) & (tokens < head[:, None])
    _, f_dirs, r_out, r_in, f_cols = _ref_closure_terms(inst, shape, sigmas, ks, joints, inside)
    cover = (sum(_f_caps(shape, inst.params.ell)) + inst.snap_tol
             + 2.0 * np.hypot(*r_in) * math.sin(th / 2.0))
    near = np.hypot(r_out[0] - r_in[0], r_out[1] - r_in[1]) <= cover
    single = np.flatnonzero(near & (scan < 0))
    family = np.flatnonzero(near & (scan >= 0))
    coeffs = _ref_family_coeffs([e[0][family] + 1j * e[1][family] for e in f_dirs],
                                r_out[0][family] + 1j * r_out[1][family],
                                r_in[0][family] + 1j * r_in[1][family],
                                [inside[family, t] for t in f_cols])
    if len(coeffs) == 3:
        roots, has_root = _trig_roots(*_ref_stationary(coeffs))
    else:
        ((x0, xc, xs),) = coeffs
        roots, has_root = _trig_roots(xs, xc, x0)
    solved, sig_rows, ks_rows = [joints[single]], [sigmas[single]], [ks[single]]
    at = np.arange(len(family))
    for root in roots:
        v = joints[family]
        v[at, scan[family]] = _norm_arr(root)
        v[at, head[family]] = _norm_arr(v[at, head[family]] - root)
        live = has_root & np.all(np.abs(v) <= th + 1e-12, axis=1)
        solved.append(v[live])
        sig_rows.append(sigmas[family][live])
        ks_rows.append(ks[family][live])
    sigmas, ks = np.concatenate(sig_rows), np.concatenate(ks_rows)
    psi, lens, total, ok = _ref_partial_closure(inst, shape, sigmas, ks, np.concatenate(solved))
    ok &= total <= length_cap
    for r in np.flatnonzero(ok)[np.argsort(total[ok], kind="stable")]:
        lengths = (float(ln[r]) for ln in lens)
        arcs = zip(sigmas[r].tolist(), ks[r].tolist())
        elements = []
        for t, letter in enumerate(shape):
            if letter == "A":
                sigma, k = next(arcs)
                elements.append(("arc", sigma, k, float(psi[r, t])))
            else:
                elements.append(("bridge", next(lengths), float(psi[r, t])))
        frame = inst.finish(_build_elements(inst, elements))
        if frame is not None:
            return tuple(sigmas[r].tolist()), tuple(ks[r].tolist()), frame.path
    return None


_REF_ROWS = 64  # rows per reference comparison
_CERTIFIED = 4  # instances per n of the dropped-family certificate


@pytest.mark.parametrize("n", [6, 8, 12, 16])
def test_partial_solve_matches_reference(n):
    # the same rows, under no cap, just above the best length and just
    # below it: None exactly when the reference gives None, else the same
    # length (the chosen row may differ only among rows of one length).
    # The rows are the most promising ones, random ones, or the first ones
    # whose floor the Dubins seed leaves live, as plan forms them
    params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
    th, ell = params.theta, params.ell
    rng = np.random.default_rng(90 + n)
    solved = capped = 0
    for shape in _PARTIAL_SHAPES:
        for trial in range(6):
            d = float(rng.uniform(0.0, 7.0)) * params.circumradius
            bearing, h_u, h_v = rng.uniform(0.0, 2.0 * math.pi, 3)
            U = Configuration.at_angle(tuple(rng.uniform(-2.0, 2.0, 2)), float(h_u))
            V = Configuration.at_angle(add(U.point, scale(from_angle(float(bearing)), d)),
                                       float(h_v))
            inst = _Instance(U, V, params)
            sigmas, ks = _word_rows(shape.count("A"), _wrap(inst.psi_v - inst.psi_u), th,
                                    (len(shape) + 1) * th, range(1, n), False, ell, math.inf)
            floors = ks.sum(axis=1) * ell + _chord_gap(inst, [_layout(shape)], sigmas, ks)[:, 0]
            size = min(len(ks), _REF_ROWS)
            if trial % 3 == 0:
                pick = np.argsort(floors, kind="stable")[:size]
            elif trial % 3 == 1:
                pick = rng.choice(len(ks), size, replace=False)
            else:
                seed = _dubins_seed(inst)
                bound = math.inf if seed is None else path_length(seed.path) + params.tol_len
                pick = np.flatnonzero(floors <= bound)[:size]
                if not len(pick):
                    continue
            batch = sigmas[np.sort(pick)], ks[np.sort(pick)]

            def same(cap):
                # the first row that plan's shortest-first loop finishes
                want = _ref_solve_partial(inst, shape, *batch, cap)
                lengths, build = _solve_partial(inst, shape, *batch, cap)
                got = next((frame.path for r in np.argsort(lengths, kind="stable").tolist()
                            if lengths[r] < math.inf
                            and (frame := inst.finish(build(r))) is not None), None)
                assert (got is None) == (want is None), (shape, n, trial, cap)
                if want is None:
                    return None
                assert path_length(got) == pytest.approx(path_length(want[2]), rel=1e-9)
                assert validate(got, params) == []
                return path_length(want[2])

            best = same(math.inf)
            if best is not None:
                solved += 1
                capped += same(best * (1.0 + 1e-9)) is not None
                same(best * (1.0 - 1e-6))
    assert solved >= 12 and capped >= 12


@pytest.mark.parametrize("n", [8, 16])
def test_plan_independent_of_pair_budget(n, monkeypatch):
    # one row per chunk and one chunk per shape give the plan of the default
    # budget: the same length and the same type word
    params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
    rng = np.random.default_rng(140 + n)
    pairs = [random_configuration_pair(rng, (0.0, 3.0)) for _ in range(3)]
    pairs += [U_TURN, LOOP, ANTIPARALLEL]
    want = [plan(U, V, params) for U, V in pairs]
    for budget in (1, 1 << 62):
        monkeypatch.setattr(planner, "_PAIR_BUDGET", budget)
        for (U, V), ref in zip(pairs, want):
            res = plan(U, V, params)
            assert res.type_word == ref.type_word, (n, budget, U, V)
            assert res.length == pytest.approx(ref.length, rel=1e-9), (n, budget, U, V)


_DROPPED = {"FAF": 24, "FAFA": 64, "AFAF": 64, "FAAF": 72, "FAAA": 12, "AAAF": 12,
            "FAAAF": 420, "FAFAA": 264, "FAAFA": 272, "AFAAF": 272, "AFAFA": 128,
            "AAFAF": 264}


def _assert_short_f_never_closes(inst, shape, joints, rng):
    # for any F directions and lengths below the caps, the closure rejects
    # the joints: some short F turns by more than theta at its two joints
    params = inst.params
    m, ell = len(joints), params.ell
    f_cols = [t for t, letter in enumerate(shape) if letter == "F"]
    caps = _f_caps(shape, ell)
    angles = rng.uniform(0.0, 2.0 * math.pi, (len(f_cols), m))
    dirs = [np.exp(1j * a) for a in angles]
    lens = [rng.uniform(0.0, min(cap, 3.0 * ell), m) for cap in caps]
    r = sum(ln * e for ln, e in zip(lens, dirs))
    ks = rng.integers(1, params.n_sides, (m, shape.count("A")))
    lens, _, ok = _f_lengths(inst, shape, ks, dirs, r)
    assert not (ok & _joints_ok(params, joints, lens, f_cols)).any()


def _assert_no_stationary_point(turning, rng, m=4, grid=1601):
    # a two-F family turning only F edge ``turning``: the (N / D)' equation
    # alpha sin t + beta cos t + gamma = 0 has |gamma| = hypot(alpha, beta),
    # a double root at most, and along the closure l1 + l2 has no interior
    # local minimum on any stretch where the F edges are not parallel
    e = list(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, (2, m))))
    r_out, r_in = (rng.normal(size=m) + 1j * rng.normal(size=m) for _ in range(2))
    rotating = [np.full(m, f == turning) for f in range(2)]
    alpha, beta, gamma = _ref_stationary(_ref_family_coeffs(e, r_out, r_in, rotating))
    amp = np.hypot(alpha, beta)
    assert np.all(np.abs(np.abs(gamma) - amp) <= 1e-9 * amp)
    spin = np.exp(1j * np.linspace(-math.pi, math.pi, grid))[:, None]
    e1, e2 = (spin * ef if f == turning else np.broadcast_to(ef, (grid, m))
              for f, ef in enumerate(e))
    r = r_out - spin * r_in
    det = (np.conj(e1) * e2).imag
    total = ((np.conj(r) * e2).imag + (np.conj(e1) * r).imag) / det
    # three samples in a row with one sign of det, away from parallel
    side = np.where(np.abs(det) > 1e-6, np.sign(det), 0.0)
    stretch = (side[1:-1] != 0.0) & (side[:-2] == side[1:-1]) & (side[2:] == side[1:-1])
    dip = (total[1:-1] < total[:-2]) & (total[1:-1] < total[2:])
    assert not (stretch & dip).any()


@pytest.mark.parametrize("n", [6, 8, 16])
def test_joint_pattern_pruning_drops_only_dead_rows(n):
    # every dropped pattern meets a named reason, checked by its own
    # property.  Short F: the pattern fixes both joints of an F capped below
    # ell at one bound (never the heading joint or the family's joint), and
    # the closure rejects it for any F lengths below the caps.  One turning
    # F: a family of a two-F shape whose turning block holds exactly one F
    # edge, whose F length sum has no stationary point
    params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
    th, ell = params.theta, params.ell
    rng = np.random.default_rng(60 + n)
    inst = _Instance(Configuration.at_angle((0.0, 0.0), 0.0),
                     Configuration.at_angle((1.0, 2.0), 1.0), params)
    seen = dict.fromkeys(("short F", "one turning F"), 0)
    for shape in _PARTIAL_SHAPES:
        vals, head, scan = _ref_joint_patterns(shape, th)
        kept = _joint_patterns(shape, th)
        rows = [(tuple(v), h, c) for v, h, c in zip(vals.tolist(), head.tolist(), scan.tolist())]
        kept_rows = set(zip(map(tuple, kept.vals.tolist()), kept.head.tolist(),
                            kept.scan.tolist()))
        # the kept patterns keep their order
        assert [r for r in rows if r in kept_rows] == \
            list(zip(map(tuple, kept.vals.tolist()), kept.head.tolist(), kept.scan.tolist()))
        dropped = [i for i, r in enumerate(rows) if r not in kept_rows]
        assert len(dropped) == _DROPPED.get(shape, 0), shape
        f_cols = [t for t, letter in enumerate(shape) if letter == "F"]
        short = [t for t, cap in zip(f_cols, _f_caps(shape, ell)) if cap < ell]
        m = 200
        for i in dropped:
            reasons = []
            if any(vals[i, t] == vals[i, t + 1] != 0.0
                   and {head[i], scan[i]}.isdisjoint({t, t + 1}) for t in short):
                reasons.append("short F")
                joints = np.repeat(vals[i:i + 1], m, axis=0)
                for j in {head[i], scan[i]} - {-1}:
                    joints[:, j] = rng.uniform(-th, th, m)
                _assert_short_f_never_closes(inst, shape, joints, rng)
            turning = [f for f, t in enumerate(f_cols) if scan[i] <= t < head[i]]
            if len(f_cols) == 2 and scan[i] >= 0 and len(turning) == 1:
                reasons.append("one turning F")
                _assert_no_stationary_point(turning[0], rng)
            assert reasons, (shape, rows[i])
            for reason in reasons:
                seen[reason] += 1
    assert min(seen.values()) > 0


@pytest.mark.parametrize("n", [6, 8])
def test_dropped_families_never_beat_the_plan(n):
    # the two-F families that turn exactly one F edge are not enumerated;
    # scan them anyway on instances built as in
    # test_plan_not_beaten_by_exact_bridge_rows: over every row within the
    # plan's length and 401 values of t in [-theta, theta], with the heading
    # joint closing the heading and the F lengths from closure, no member
    # that validates is shorter than the plan
    params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
    th, ell = params.theta, params.ell
    rng = np.random.default_rng(3)
    ts = np.linspace(-th, th, 401)
    spin = np.exp(1j * ts)
    shorter = 0
    for _ in range(_CERTIFIED):
        d = float(rng.uniform(0.5, 12.0))
        bearing, heading = (float(x) for x in rng.uniform(0.0, 2.0 * math.pi, 2))
        U = Configuration.at_angle((0.0, 0.0), 0.0)
        V = Configuration.at_angle((d * math.cos(bearing), d * math.sin(bearing)), heading)
        inst = _Instance(U, V, params)
        best = plan(U, V, params).length
        for shape in _PARTIAL_SHAPES:
            f_cols = [t for t, letter in enumerate(shape) if letter == "F"]
            if len(f_cols) != 2:
                continue
            vals, head, scan = _ref_joint_patterns(shape, th)
            tokens = np.arange(len(shape))
            inside = (scan[:, None] >= 0) & (tokens >= scan[:, None]) & (tokens < head[:, None])
            fam = np.flatnonzero(inside[:, f_cols].sum(axis=1) == 1)
            sigmas, ks = _word_rows(shape.count("A"), _wrap(inst.psi_v - inst.psi_u), th,
                                    (len(shape) + 1) * th, range(1, n), False, ell, best)
            need = inst.psi_v - inst.psi_u - ((ks - 1) * sigmas).sum(axis=1) * th
            left = _norm_arr(need[:, None] - vals[fam].sum(axis=1)[None, :])
            row, col = np.nonzero(np.abs(left) <= 2.0 * th + 1e-9)
            pat, left = fam[col], left[row, col]
            # at t = 0 (the heading joint takes all of left), split the
            # displacement the F edges cover into r_out - R(t) r_in
            joints = vals[pat]
            joints[np.arange(len(pat)), head[pat]] = left
            _, dirs, r_out, r_in, _ = _ref_closure_terms(inst, shape, sigmas[row], ks[row],
                                                         joints, inside[pat])
            e1, e2 = (x + 1j * y for x, y in dirs)
            r_out, r_in = r_out[0] + 1j * r_out[1], r_in[0] + 1j * r_in[1]
            spare = best - ks[row].sum(axis=1) * ell
            # positive F lengths cover |r(t)|, which |t| <= theta keeps
            # within 2 |r_in| sin(theta / 2) of |r_out - r_in|
            near = np.abs(r_out - r_in) - 2.0 * np.abs(r_in) * math.sin(th / 2.0) < spare
            for part in np.array_split(np.flatnonzero(near), near.sum() // 2048 + 1):
                spun = inside[pat[part]][:, f_cols].T[:, :, None]
                u1 = np.where(spun[0], spin * e1[part, None], e1[part, None])
                u2 = np.where(spun[1], spin * e2[part, None], e2[part, None])
                r = r_out[part, None] - spin * r_in[part, None]
                det = (np.conj(u1) * u2).imag
                det = np.where(np.abs(det) > 1e-12, det, np.nan)
                l1, l2 = (np.conj(r) * u2).imag / det, (np.conj(u1) * r).imag / det
                i, a = np.nonzero((np.abs(left[part, None] - ts) <= th + 1e-9) & (l1 > 0.0)
                                  & (l2 > 0.0) & (l1 + l2 < spare[part, None]))
                shorter += len(i)
                # the members shorter than the plan, from their own joints
                rows, pats = row[part[i]], pat[part[i]]
                joints = vals[pats]
                joints[np.arange(len(i)), scan[pats]] = ts[a]
                joints[np.arange(len(i)), head[pats]] = left[part[i]] - ts[a]
                psi, ((x1, y1), (x2, y2)), (x, y), _, _ = _ref_closure_terms(
                    inst, shape, sigmas[rows], ks[rows], joints)
                det = x1 * y2 - y1 * x2
                lens = np.column_stack([(x * y2 - y * x2) / det, (x1 * y - y1 * x) / det])
                for j in range(len(i)):
                    lengths = iter(lens[j].tolist())
                    arcs = zip(sigmas[rows[j]].tolist(), ks[rows[j]].tolist())
                    elements = [("bridge", next(lengths), float(psi[j, t])) if letter == "F"
                                else ("arc", *next(arcs), float(psi[j, t]))
                                for t, letter in enumerate(shape)]
                    vertices = _build_elements(inst, elements)
                    assert dist(vertices[-1], V.point) <= inst.snap_tol
                    frame = inst.finish(vertices)
                    assert frame is None or frame.total >= best - 1e-9 * ell, (shape, joints[j])
    # the scan reaches members shorter than the plan, and closes each at V
    assert shorter >= 1000


def test_norm_arr_matches_float_modulo_bitwise():
    # the wrap writes out the sign fix-up of numpy's float %; it must agree
    # with the % to the last bit, at multiples of pi, next to them and
    # between them
    rng = np.random.default_rng(13)
    marks = np.array([k * math.pi for k in range(-7, 8)] + [k * TWO_PI for k in (-2, -1, 1, 2)])
    near = np.concatenate([np.nextafter(marks, np.inf), np.nextafter(marks, -np.inf),
                           marks, -1e-300 + 0.0 * marks, 0.0 * marks])
    for a in (near, rng.uniform(-3.0 * math.pi, 3.0 * math.pi, (400, 25)),
              rng.uniform(-40.0, 40.0, 999), np.array([]), np.array([-0.0]),
              near - math.pi, near + math.pi):
        got, want = _norm_arr(a), (a + math.pi) % TWO_PI - math.pi
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for x in (-math.pi, math.pi, 3.0 * math.pi, -3.0 * math.pi, 0.5, 100.0):
        assert _norm_arr(x) == (x + math.pi) % TWO_PI - math.pi


def test_dubins_seed_keeps_each_straight_one_edge():
    # the seed is discretize's polygon less the vertices with a straight edge
    # on both sides
    rng = np.random.default_rng(77)
    dropped = 0
    for n in (8, 16):
        params = Params.from_sides(n, 1.0)
        r = params.circumradius
        for _ in range(4):
            U, V = random_configuration_pair(rng, (2.0 * r, 9.0 * r))
            inst = _Instance(U, V, params)
            gamma = inst.dubins
            starts = np.cumsum([0.0] + [g.length for g in gamma.segments])
            straights = [(s0, s1) for g, s0, s1 in zip(gamma.segments, starts, starts[1:])
                         if isinstance(g, LineSeg)]
            bp = DiscretizationPlan.for_length(gamma.length, params.theta).breakpoints
            keep = [k for k in range(len(bp))
                    if not (0 < k < len(bp) - 1
                            and any(s0 <= bp[k - 1] and bp[k + 1] <= s1 for s0, s1 in straights))]
            want = [scale(p, r) for p in (discretize(gamma, params.theta).vertices[k] for k in keep)]
            want[0], want[-1] = U.point, V.point
            assert list(_dubins_seed(inst).path.vertices) == want
            dropped += len(bp) - len(keep)
    assert dropped > 0


def test_plan_far_straight_is_bounded():
    # a straight Dubins solution no longer lists a vertex per theta of its
    # length: a billion edges' worth of distance plans in well under a second
    start = time.process_time()
    res = plan(Configuration((0.0, 0.0), (1.0, 0.0)), Configuration((1e9, 0.0), (1.0, 0.0)), P8)
    assert time.process_time() - start < 1.0
    assert type_string(res.best, P8) == "B" and path_length(res.best) == 1e9
