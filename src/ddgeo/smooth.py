"""Smooth unit-curvature curves, their discretization, and a Dubins solver.

Smooth paths here are words of unit-radius circular arcs and straight
segments, parameterized by arclength.  Their tangent direction is 1-Lipschitz
in arclength, so the mean-curvature bound holds by construction.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

from .geometry import (
    Point2,
    Vec2,
    add,
    angle_of,
    dist,
    from_angle,
    rotate,
    scale,
    sub,
    turn_angle,
)
from .model import Configuration, DiscretePath, Params, path_length

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ArcSeg:
    """Unit-radius circular arc: orientation +1 turns left, -1 turns right."""

    orientation: int
    sweep: float

    def __post_init__(self):
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 (left) or -1 (right)")
        if not (self.sweep > 0.0):
            raise ValueError("sweep must be positive")

    @property
    def length(self) -> float:
        return self.sweep


@dataclass(frozen=True)
class LineSeg:
    length: float

    def __post_init__(self):
        if not (self.length > 0.0):
            raise ValueError("length must be positive")


Segment = ArcSeg | LineSeg


@dataclass(frozen=True)
class SmoothPath:
    """Arclength-parameterized word of arcs and lines, C1 at the joints."""

    start: Configuration
    segments: tuple[Segment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def length(self) -> float:
        return sum(seg.length for seg in self.segments)

    def eval(self, t: float) -> tuple[Point2, Vec2]:
        """Point and unit tangent at arclength t in [0, length]."""
        return self.sample((t,))[0]

    def sample(self, ts) -> list[tuple[Point2, Vec2]]:
        """Points and unit tangents at the arclengths ts, each in [0, length],
        from one walk along the segments."""
        total = self.length
        starts, p, h = [], self.start.point, self.start.heading
        for seg in self.segments:
            starts.append((p, h))
            p, h = _advance(p, h, seg, seg.length)
        out = []
        for t in ts:
            if t < -1e-12 or t > total + 1e-12:
                raise ValueError(f"t={t} outside [0, {total}]")
            rest = min(max(t, 0.0), total)
            for seg, (q, g) in zip(self.segments, starts):
                if rest <= seg.length:
                    out.append(_advance(q, g, seg, rest))
                    break
                rest -= seg.length
            else:
                out.append((p, h))
        return out


def _advance(p: Point2, h: Vec2, seg: Segment, t: float) -> tuple[Point2, Vec2]:
    if isinstance(seg, LineSeg):
        return add(p, scale(h, t)), h
    o = seg.orientation
    center = add(p, rotate(h, o * math.pi / 2.0))
    swept = o * t
    return add(center, rotate(sub(p, center), swept)), rotate(h, swept)


def chord_bound_check(gamma: SmoothPath, t: float, s: float,
                      slack: float = 1e-9) -> bool:
    """Chord lower bound: |gamma(s) - gamma(t)| >= 2 sin((s-t)/2) - slack."""
    if not (t < s < t + math.pi):
        raise ValueError("requires t < s < t + pi")
    a, _ = gamma.eval(t)
    b, _ = gamma.eval(s)
    return dist(a, b) >= 2.0 * math.sin((s - t) / 2.0) - slack


def angle_bound_check(gamma: SmoothPath, t: float, s: float,
                      slack: float = 1e-9) -> bool:
    """Tangent-to-chord bound: angle(gamma'(t), gamma(t)->gamma(s)) <= (s-t)/2 + slack."""
    if not (t < s < t + math.pi):
        raise ValueError("requires t < s < t + pi")
    a, ha = gamma.eval(t)
    b, _ = gamma.eval(s)
    return abs(turn_angle(ha, sub(b, a))) <= (s - t) / 2.0 + slack


@dataclass(frozen=True)
class DiscretizationPlan:
    """Arclength breakpoints of a theta-discretization.

    The curve length splits as m*theta + delta.  With delta = 0 the
    breakpoints step uniformly by theta; otherwise the first and last steps
    are delta/2 and the m+1 middle steps are theta.
    """

    theta: float
    m: int
    delta: float
    breakpoints: tuple[float, ...]

    @classmethod
    def for_length(cls, total: float, theta: float) -> "DiscretizationPlan":
        points = _Breakpoints(total, theta)
        return cls(theta=theta, m=points.m, delta=points.delta, breakpoints=tuple(points))


class _Breakpoints(Sequence):
    """The breakpoints of ``DiscretizationPlan.for_length``, each computed
    when it is read, so that a long curve's run can be searched and skipped
    without being listed."""

    def __init__(self, total: float, theta: float):
        if not (theta < total):
            raise ValueError(f"theta={theta} must be smaller than the curve length {total}")
        m = int(math.floor(total / theta))
        if m + 3 > sys.maxsize:
            raise ValueError(f"a curve of length {total:.6g} has too many breakpoints "
                             f"at theta={theta:.6g} to index")
        delta = total - m * theta
        snap = 1e-12 * max(1.0, total)
        if delta <= snap:
            delta = 0.0
        elif theta - delta <= snap:
            m += 1
            delta = 0.0
        self.total, self.theta, self.m, self.delta = total, theta, m, delta

    def __len__(self) -> int:
        return self.m + 1 if self.delta == 0.0 else self.m + 3

    def __getitem__(self, k: int) -> float:
        if not 0 <= k < len(self):
            raise IndexError(k)
        if k == len(self) - 1:
            return self.total
        if self.delta == 0.0:
            return k * self.theta
        if k == 0:
            return 0.0
        if k == 1:
            return self.delta / 2.0
        return self.delta / 2.0 + (k - 1) * self.theta


def breakpoints_skipping_straights(gamma: SmoothPath, theta: float) -> list[float]:
    """The theta-discretization breakpoints of the curve less those strictly
    inside the run of breakpoints on each straight segment.

    Sampled, they give ``discretize``'s vertices less those with a straight
    edge on both sides, so each straight stays one edge, and the count no
    longer grows with the straights' length.
    """
    points = _Breakpoints(gamma.length, theta)
    out, k, s = [], 0, 0.0
    for seg in gamma.segments:
        if isinstance(seg, LineSeg):
            first = bisect.bisect_left(points, s)
            last = bisect.bisect_right(points, s + seg.length) - 1
            if last > first + 1:
                out += [points[i] for i in range(k, first + 1)]
                k = last
        s += seg.length
    return out + [points[i] for i in range(k, len(points))]


def discretize(gamma: SmoothPath, theta: float) -> DiscretePath:
    """Sample the curve at the theta-discretization breakpoints.

    The result is a discrete bounded-curvature path for parameters
    (theta, ell = 2 sin(theta/2)): middle edges are chords over arclength
    exactly theta, hence non-short, and every turn stays within theta.
    """
    plan = DiscretizationPlan.for_length(gamma.length, theta)
    samples = gamma.sample(plan.breakpoints)  # the last one is the end
    vertices = tuple(p for p, _ in samples)
    return DiscretePath(start=Configuration(vertices[0], gamma.start.heading),
                        end=Configuration(vertices[-1], samples[-1][1]), vertices=vertices)


def discretization_params(theta: float) -> Params:
    return Params(theta=theta, ell=2.0 * math.sin(theta / 2.0))


def _mod2pi(a: float) -> float:
    r = math.fmod(a, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    return r


def _center(p: Point2, h: Vec2, orientation: int) -> Point2:
    return add(p, rotate(h, orientation * math.pi / 2.0))


def _assemble(U: Configuration, pieces) -> SmoothPath:
    segs = []
    for kind, o, amount in pieces:
        if amount <= 1e-12:
            continue
        if kind == "arc":
            segs.append(ArcSeg(o, amount))
        else:
            segs.append(LineSeg(amount))
    return SmoothPath(U, tuple(segs))


def _closes(path: SmoothPath, V: Configuration, tol: float = 1e-9) -> bool:
    p, h = path.eval(path.length)
    return dist(p, V.point) <= tol and abs(turn_angle(h, V.heading)) <= tol


def _csc_candidates(U: Configuration, V: Configuration):
    psi_u = angle_of(U.heading)
    psi_v = angle_of(V.heading)
    for o1 in (1, -1):
        for o2 in (1, -1):
            c1 = _center(U.point, U.heading, o1)
            c2 = _center(V.point, V.heading, o2)
            d = dist(c1, c2)
            if o1 == o2:
                if d < 1e-12:
                    sweep1 = _mod2pi(o1 * (psi_v - psi_u))
                    yield [("arc", o1, sweep1)]
                    continue
                psi = angle_of(sub(c2, c1))
                straight = d
            else:
                if d < 2.0:
                    continue
                phi = angle_of(sub(c2, c1))
                psi = phi + math.asin(2.0 * o1 / d)
                straight = math.sqrt(max(d * d - 4.0, 0.0))
            sweep1 = _mod2pi(o1 * (psi - psi_u))
            sweep2 = _mod2pi(o2 * (psi_v - psi))
            yield [("arc", o1, sweep1), ("line", 0, straight), ("arc", o2, sweep2)]


def _ccc_candidates(U: Configuration, V: Configuration):
    psi_u = angle_of(U.heading)
    psi_v = angle_of(V.heading)
    for o in (1, -1):
        c1 = _center(U.point, U.heading, o)
        c2 = _center(V.point, V.heading, o)
        d = dist(c1, c2)
        if d < 1e-12 or d > 4.0:
            continue
        phi = angle_of(sub(c2, c1))
        half = d / 2.0
        h = math.sqrt(max(4.0 - half * half, 0.0))
        for side in (1, -1):
            mid = add(c1, scale(from_angle(phi), half))
            c3 = add(mid, scale(rotate(from_angle(phi), side * math.pi / 2.0), h))
            a13 = angle_of(sub(c3, c1))
            a23 = angle_of(sub(c3, c2))
            psi13 = a13 + o * math.pi / 2.0
            psi23 = a23 + o * math.pi / 2.0
            sweep1 = _mod2pi(o * (psi13 - psi_u))
            sweep_mid = _mod2pi(-o * (psi23 - psi13))
            sweep2 = _mod2pi(o * (psi_v - psi23))
            yield [("arc", o, sweep1), ("arc", -o, sweep_mid), ("arc", o, sweep2)]


def dubins_solve(U: Configuration, V: Configuration) -> SmoothPath:
    """Shortest unit-radius arc-line-arc or arc-arc-arc curve from U to V.

    All six classical words are constructed geometrically; candidates that
    fail to reproduce the boundary configurations are discarded, and the
    shortest survivor wins.
    """
    best: SmoothPath | None = None
    for pieces in list(_csc_candidates(U, V)) + list(_ccc_candidates(U, V)):
        path = _assemble(U, pieces)
        if not _closes(path, V):
            continue
        if best is None or path.length < best.length:
            best = path
    if best is None:
        raise RuntimeError("no Dubins word closed on the boundary configurations")
    return best


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    theta: float
    ell: float
    plan_length: float
    discretized_length: float
    dubins_length: float


def convergence_experiment(U: Configuration, V: Configuration,
                           n_list) -> list[ConvergenceRow]:
    """Lengths of the planned, discretized, and smooth paths per refinement n.

    For each n the discrete parameters are theta = 2 pi / n and
    ell = 2 sin(pi / n); the discretization of the smooth optimum is a
    feasible discrete path, so the planned length can never exceed it.
    """
    from .planner import plan  # local import; the planner uses this module's solver

    if any(n < 4 for n in n_list):
        raise ValueError(f"every n must be at least 4, got {list(n_list)}")
    gamma = dubins_solve(U, V)
    rows = []
    for n in n_list:
        theta = TWO_PI / n
        if theta >= gamma.length:
            raise ValueError(f"n={n} too coarse for a curve of length {gamma.length}")
        params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
        disc = discretize(gamma, theta)
        result = plan(U, V, params)
        rows.append(ConvergenceRow(
            n=n,
            theta=theta,
            ell=params.ell,
            plan_length=result.length,
            discretized_length=path_length(disc),
            dubins_length=gamma.length,
        ))
    return rows
