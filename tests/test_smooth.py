import math

import numpy as np
import pytest

from ddgeo.geometry import dist, from_angle, turn_angle, sub
from ddgeo.model import Configuration, Params, edge_lengths, path_length, validate, vertex_turns
from ddgeo.smooth import (
    ArcSeg,
    DiscretizationPlan,
    LineSeg,
    SmoothPath,
    _advance,
    angle_bound_check,
    chord_bound_check,
    discretization_params,
    discretize,
    dubins_solve,
)

from gen import random_smooth_path


# --- independent six-word solver (classical normalized formulas) -----------

def _mod2pi(a):
    return a % (2.0 * math.pi)


def _formula_dubins_length(U: Configuration, V: Configuration) -> float:
    """Length of the shortest unit-radius word by the classical closed-form
    parameterization; an independent oracle for the geometric construction.

    Each candidate (t, p, q) triple is checked by driving the word from U
    and requiring it to land on V, which filters out quadrant artifacts of
    the closed forms.
    """
    dx = V.point[0] - U.point[0]
    dy = V.point[1] - U.point[1]
    d = math.hypot(dx, dy)
    phi = math.atan2(dy, dx)
    alpha = _mod2pi(math.atan2(U.heading[1], U.heading[0]) - phi)
    beta = _mod2pi(math.atan2(V.heading[1], V.heading[0]) - phi)
    sa, ca, sb, cb = math.sin(alpha), math.cos(alpha), math.sin(beta), math.cos(beta)
    cab = math.cos(alpha - beta)
    words = []

    tmp = d + sa - sb
    p2 = 2 + d * d - 2 * cab + 2 * d * (sa - sb)
    if p2 >= 0:
        t = _mod2pi(-alpha + math.atan2(cb - ca, tmp))
        q = _mod2pi(beta - math.atan2(cb - ca, tmp))
        words.append(("LSL", t, math.sqrt(p2), q))
    tmp = d - sa + sb
    p2 = 2 + d * d - 2 * cab + 2 * d * (sb - sa)
    if p2 >= 0:
        t = _mod2pi(alpha - math.atan2(ca - cb, tmp))
        q = _mod2pi(-beta + math.atan2(ca - cb, tmp))
        words.append(("RSR", t, math.sqrt(p2), q))
    p2 = -2 + d * d + 2 * cab + 2 * d * (sa + sb)
    if p2 >= 0:
        p = math.sqrt(p2)
        tmp2 = math.atan2(-ca - cb, d + sa + sb) - math.atan2(-2.0, p)
        words.append(("LSR", _mod2pi(-alpha + tmp2), p, _mod2pi(-_mod2pi(beta) + tmp2)))
    p2 = d * d - 2 + 2 * cab - 2 * d * (sa + sb)
    if p2 >= 0:
        p = math.sqrt(p2)
        tmp2 = math.atan2(ca + cb, d - sa - sb) - math.atan2(2.0, p)
        words.append(("RSL", _mod2pi(alpha - tmp2), p, _mod2pi(beta - tmp2)))
    def rlr(a, b):
        s_a, c_a, s_b, c_b = math.sin(a), math.cos(a), math.sin(b), math.cos(b)
        tmp = (6.0 - d * d + 2 * math.cos(a - b) + 2 * d * (s_a - s_b)) / 8.0
        if abs(tmp) > 1.0:
            return None
        p = _mod2pi(2 * math.pi - math.acos(tmp))
        t = _mod2pi(a - math.atan2(c_a - c_b, d - s_a + s_b) + p / 2.0)
        return t, p, _mod2pi(a - b - t + p)

    got = rlr(alpha, beta)
    if got is not None:
        words.append(("RLR",) + got)
    # LRL is RLR of the mirrored instance (reflection swaps L and R)
    got = rlr(_mod2pi(-alpha), _mod2pi(-beta))
    if got is not None:
        words.append(("LRL",) + got)

    best = None
    kinds = {"L": ArcSeg(1, 1.0), "R": ArcSeg(-1, 1.0)}
    for word, t, p, q in words:
        segs = []
        for letter, amount in zip(word, (t, p, q)):
            if amount < 1e-12:
                continue
            if letter == "S":
                segs.append(LineSeg(amount))
            else:
                segs.append(ArcSeg(1 if letter == "L" else -1, amount))
        if not segs:
            if d > 1e-9 or abs(turn_angle(U.heading, V.heading)) > 1e-9:
                continue
            return 0.0
        path = SmoothPath(U, tuple(segs))
        end, h = path.eval(path.length)
        if dist(end, V.point) > 1e-6 or abs(turn_angle(h, V.heading)) > 1e-6:
            continue
        if best is None or path.length < best:
            best = path.length
    assert best is not None, "no word closed"
    return best


# --- eval ------------------------------------------------------------------

def test_eval_line():
    g = SmoothPath(Configuration((1.0, 2.0), (1.0, 0.0)), (LineSeg(5.0),))
    p, h = g.eval(3.0)
    assert p == pytest.approx((4.0, 2.0))
    assert h == pytest.approx((1.0, 0.0))


def test_eval_left_arc_antipodal():
    g = SmoothPath(Configuration((0.0, 0.0), (1.0, 0.0)), (ArcSeg(1, math.pi),))
    p, h = g.eval(math.pi)
    assert p == pytest.approx((0.0, 2.0), abs=1e-12)
    assert h == pytest.approx((-1.0, 0.0), abs=1e-12)


def test_eval_joint_continuity():
    g = SmoothPath(Configuration((0.0, 0.0), (1.0, 0.0)),
                   (ArcSeg(1, 1.0), LineSeg(2.0), ArcSeg(-1, 0.7)))
    t = 1.0
    before = g.eval(t - 1e-13)
    after = g.eval(t + 1e-13)
    assert dist(before[0], after[0]) < 1e-12
    assert dist(before[1], after[1]) < 1e-12


def test_eval_out_of_range():
    g = SmoothPath(Configuration((0.0, 0.0), (1.0, 0.0)), (LineSeg(1.0),))
    with pytest.raises(ValueError):
        g.eval(2.0)


# --- chord and angle bounds --------------------------------------------------

def test_chord_bound_equality_on_circle():
    g = SmoothPath(Configuration((0.0, 0.0), (1.0, 0.0)), (ArcSeg(1, 3.0),))
    th = 2.0 * math.pi / 8
    a, _ = g.eval(0.0)
    b, _ = g.eval(th)
    assert dist(a, b) == pytest.approx(2.0 * math.sin(th / 2.0), abs=1e-12)
    assert chord_bound_check(g, 0.0, th)


def test_chord_bound_on_line():
    g = SmoothPath(Configuration((0.0, 0.0), (1.0, 0.0)), (LineSeg(5.0),))
    assert chord_bound_check(g, 0.5, 2.5)


def test_angle_bound_equality_on_circle():
    g = SmoothPath(Configuration((0.0, 0.0), (1.0, 0.0)), (ArcSeg(1, 3.0),))
    s = 1.3
    a, ha = g.eval(0.0)
    b, _ = g.eval(s)
    ang = abs(turn_angle(ha, sub(b, a)))
    assert ang == pytest.approx(s / 2.0, abs=1e-12)  # inscribed angle
    assert angle_bound_check(g, 0.0, s)


def test_bounds_random_sweep():
    rng = np.random.default_rng(41)
    for _ in range(30):
        g = random_smooth_path(rng)
        L = g.length
        for _ in range(60):
            t = float(rng.uniform(0.0, L))
            s = float(rng.uniform(t, min(L, t + math.pi - 1e-9)))
            if s <= t + 1e-12:
                continue
            assert chord_bound_check(g, t, s)
            assert angle_bound_check(g, t, s)


def test_bounds_range_checks():
    g = SmoothPath(Configuration((0.0, 0.0), (1.0, 0.0)), (LineSeg(9.0),))
    with pytest.raises(ValueError):
        chord_bound_check(g, 2.0, 1.0)
    with pytest.raises(ValueError):
        angle_bound_check(g, 0.0, 0.0 + math.pi)


# --- discretization ----------------------------------------------------------

def test_plan_breakpoints_with_remainder():
    plan = DiscretizationPlan.for_length(5.0, math.pi / 3)
    assert plan.m == 4
    assert plan.delta == pytest.approx(5.0 - 4 * math.pi / 3)
    gaps = np.diff(plan.breakpoints)
    assert gaps[0] == pytest.approx(plan.delta / 2.0)
    assert gaps[-1] == pytest.approx(plan.delta / 2.0)
    for g in gaps[1:-1]:
        assert g == pytest.approx(math.pi / 3)


def test_plan_breakpoints_exact_multiple():
    theta = 0.5
    plan = DiscretizationPlan.for_length(10 * theta, theta)
    assert plan.delta == 0.0
    assert len(plan.breakpoints) == 11
    for g in np.diff(plan.breakpoints):
        assert g == pytest.approx(theta)


def test_discretize_line():
    g = SmoothPath(Configuration((0.0, 0.0), (1.0, 0.0)), (LineSeg(5.0),))
    d = discretize(g, math.pi / 3)
    params = discretization_params(math.pi / 3)
    assert validate(d, params) == []
    for p in d.vertices:
        assert abs(p[1]) < 1e-12


def test_discretize_full_circle_is_regular_ngon():
    n = 16
    g = SmoothPath(Configuration((0.0, 0.0), (1.0, 0.0)), (ArcSeg(1, 2 * math.pi),))
    d = discretize(g, 2 * math.pi / n)
    params = discretization_params(2 * math.pi / n)
    assert validate(d, params) == []
    lens = edge_lengths(d)
    assert len(lens) == n
    side = 2.0 * math.sin(math.pi / n)
    for ln in lens:
        assert ln == pytest.approx(side, abs=1e-12)
    turns = vertex_turns(d)
    for t in turns[1:-1]:
        assert abs(t) == pytest.approx(2 * math.pi / n, abs=1e-12)


def test_discretize_too_coarse():
    g = SmoothPath(Configuration((0.0, 0.0), (1.0, 0.0)), (LineSeg(0.5),))
    with pytest.raises(ValueError):
        discretize(g, math.pi / 3)


def test_discretize_always_feasible():
    rng = np.random.default_rng(42)
    for _ in range(40):
        g = random_smooth_path(rng)
        for n in (8, 16, 64):
            theta = 2 * math.pi / n
            if theta >= g.length:
                continue
            d = discretize(g, theta)
            assert validate(d, discretization_params(theta)) == []


def _walk_eval(g, t):
    """Point and tangent at arclength t by walking every segment from the
    start, subtracting each length in turn (the reference for ``sample``)."""
    t = min(max(t, 0.0), g.length)
    p, h = g.start.point, g.start.heading
    rest = t
    for seg in g.segments:
        if rest <= seg.length:
            return _advance(p, h, seg, rest)
        p, h = _advance(p, h, seg, seg.length)
        rest -= seg.length
    return p, h


def test_discretize_matches_per_breakpoint_walk():
    # one walk along the curve gives every vertex bit for bit, and the end
    # heading, as walking from the start once per breakpoint
    rng = np.random.default_rng(43)
    curves = [random_smooth_path(rng) for _ in range(30)]
    for _ in range(30):
        U, V = (Configuration.at_angle(tuple(rng.uniform(-5.0, 5.0, 2)),
                                       float(rng.uniform(0.0, 2.0 * math.pi))) for _ in range(2))
        curves.append(dubins_solve(U, V))
    for g in curves:
        for n in (8, 64, 360):
            theta = 2 * math.pi / n
            if theta >= g.length:
                continue
            ts = DiscretizationPlan.for_length(g.length, theta).breakpoints
            d = discretize(g, theta)
            assert d.vertices == tuple(_walk_eval(g, t)[0] for t in ts)
            assert d.start.heading == g.start.heading
            assert d.end.heading == _walk_eval(g, g.length)[1]
        ts = [float(t) for t in rng.uniform(0.0, g.length, 20)] + [0.0, g.length]
        assert g.sample(ts) == [_walk_eval(g, t) for t in ts]
        assert [g.eval(t) for t in ts] == [_walk_eval(g, t) for t in ts]


# --- dubins solver -----------------------------------------------------------

def test_dubins_straight_degenerate():
    U = Configuration((0.0, 0.0), (1.0, 0.0))
    V = Configuration((10.0, 0.0), (1.0, 0.0))
    g = dubins_solve(U, V)
    assert g.length == pytest.approx(10.0, abs=1e-12)
    assert all(isinstance(s, LineSeg) for s in g.segments)


def test_dubins_lateral_against_formula_oracle():
    U = Configuration((0.0, 0.0), (1.0, 0.0))
    V = Configuration((0.0, 4.0), (1.0, 0.0))
    g = dubins_solve(U, V)
    assert g.length == pytest.approx(_formula_dubins_length(U, V), abs=1e-9)
    assert g.length == pytest.approx(2.0 * math.pi, abs=1e-12)


def test_dubins_reversal_against_formula_oracle():
    U = Configuration((0.0, 0.0), (1.0, 0.0))
    V = Configuration((0.0, 0.0), (-1.0, 0.0))
    g = dubins_solve(U, V)
    assert g.length == pytest.approx(_formula_dubins_length(U, V), abs=1e-9)
    assert g.length == pytest.approx(7.0 * math.pi / 3.0, abs=1e-12)


def test_dubins_boundary_configurations():
    rng = np.random.default_rng(43)
    for _ in range(60):
        U = Configuration((float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5))),
                          from_angle(float(rng.uniform(0, 2 * math.pi))))
        V = Configuration((float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5))),
                          from_angle(float(rng.uniform(0, 2 * math.pi))))
        g = dubins_solve(U, V)
        p, h = g.eval(g.length)
        assert dist(p, V.point) < 1e-10
        assert abs(turn_angle(h, V.heading)) < 1e-10


def test_dubins_random_against_formula_oracle():
    rng = np.random.default_rng(44)
    for _ in range(150):
        U = Configuration((float(rng.uniform(-6, 6)), float(rng.uniform(-6, 6))),
                          from_angle(float(rng.uniform(0, 2 * math.pi))))
        V = Configuration((float(rng.uniform(-6, 6)), float(rng.uniform(-6, 6))),
                          from_angle(float(rng.uniform(0, 2 * math.pi))))
        mine = dubins_solve(U, V).length
        ref = _formula_dubins_length(U, V)
        assert mine == pytest.approx(ref, abs=1e-8), (U, V)
