"""Shortest discrete bounded-curvature paths between two configurations.

Shortest paths decompose into at most a discrete arc, a straight bridge, and
a discrete arc (with degenerate variants), or up to three discrete arcs, so
those are the candidate shapes.  An arc is a maximal subpath of a discrete
circle, so it may begin or end part-way along a circle edge: its first and
last edge can be partial, of length in (0, ell].  A candidate arc is a run of
``k`` full edges of length ``ell`` with turns of exactly ``theta``; a partial
end edge, a short edge two arcs overlap in, and a bridge are all free-length
edges (F) next to such runs.  The free unknowns are the joint turns at the
endpoints and between elements plus the F lengths, and a shortest path has
at most two F lengths that are neither 0 nor ell (for fixed directions the
lengths solve a linear program with two closure equations).

The true-type words B, A, AB, BA, AA, ABA and AAA over full-edge arcs solve
position closure in closed form (chord geometry and two-link inverse
kinematics).  Each word has a batched row solver (``_ROW_SOLVERS``) that
takes all rows of arc orientations and edge counts at once and returns the
shortest realization of each.  AB, BA and ABA leave a one- or two-parameter
family of end turns, over which their bridge length is minimized exactly:
the minimum sits where at most two turn bounds are active, and each such
point has a tangent-style construction (``_aba_rows``, ``_ab_rows``).  The
members of an AAA family all have one length, so a sample of it only looks
for a feasible one.  One enumerator (``_word_rows``) builds the rows of
every word and every partial-arc shape from the heading band.

``_PARTIAL_SHAPES`` holds every other word over at most three arcs with one
or two F edges.  Their F lengths solve position closure linearly, and their
joints sit at a turn
bound except one closed by the heading, or except two whose one-parameter
family is solved in closed form (for its stationary points with two F
edges, for the turns that close position with one).  Joints strictly inside
their bounds beyond these are not searched.  F lengths that would leave a
bridge where no true type has one are left out (``_f_caps``), and so are
words over four or more arcs, whose types all carry the forbidden factor
AAAA.  All rows are pruned by the incumbent length: the arcs' edges plus a
lower bound on the length the other edges must cover (what the chords
leave of |UV|, or for the partial-arc shapes the finer ``_chord_gap``).

The partial-arc solve (``_solve_partial``) takes batches of rows against
the joint patterns of ``_joint_patterns``.  ``plan`` cuts the batches from
the rows whose floor the incumbent leaves live, so they are full, and
filters each again by the incumbent when its turn comes.  Patterns that fix
both joints of a partial end edge at one turn bound can never close and are
dropped once per shape and theta; the heading test runs once per pattern
sum.  At the family parameter t = 0 every token direction is a lead angle
of the row (from psi_u or psi_v) turned by the pattern's joints, so one
small complex product gives the chord sums of every row under every arc
layout the patterns share.  A joint row whose floor, the arcs' edges plus
what turning its family by at most theta leaves of the F edges'
displacement, exceeds the incumbent is dropped before its family is solved.
Vectors stay complex numbers, whose conjugate products give the cross and
dot products of the family coefficients.  A family root moves only two
joints, so the turn bounds are tested on those two before any joint row is
built, and the solved rows turn their t = 0 vectors rather than evaluate
the closure again.

A discretization of the smooth Dubins curve between the configurations is
always included as a candidate, which makes the planned length at most the
discretized smooth length on every instance.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Point2,
    add,
    angle_of,
    dist,
    from_angle,
    normalize_angle,
    scale,
    sub,
)
from .model import (
    TOL_ANG,
    Configuration,
    DiscretePath,
    Params,
    path_length,
    validate,
)
from .rewrite import shorten
from .structure import find_forbidden_subtype, type_or_none
from . import smooth as _smooth

log = logging.getLogger("ddgeo.planner")

TWO_PI = 2.0 * math.pi


class PlannerError(RuntimeError):
    """No candidate produced a feasible true-type path (should not happen)."""


@dataclass(frozen=True)
class CandidateSpec:
    """One shooting candidate: a true-type word with arc orientations and
    per-arc edge counts; ``phis`` are the joint turns (at the start, between
    elements, at the end) and ``s`` the bridge length, when known."""

    word: str
    orientations: tuple[int, ...]
    ks: tuple[int, ...]
    phis: tuple[float, ...] | None = None
    s: float | None = None


@dataclass
class CandidateDiag:
    """One candidate row ``plan`` considered, with its outcome ``status``:

    * ``solved``: its path validated; ``length`` is the path's length and
      ``residual`` how far the built endpoint missed V before snapping;
    * ``failed``: its shortest realization did not validate;
    * ``infeasible``: no realization keeps every turn within theta (for the
      partial-arc shapes, no row of a batch did; the batch's first row
      stands for it);
    * ``pruned``: its exact length exceeds the incumbent, so it was not
      built.
    """

    word: str                # true-type word, a partial-arc shape over {A, F}, or "(seed)"
    orientations: tuple[int, ...]
    ks: tuple[int, ...]
    status: str
    length: float | None = None
    residual: float | None = None


@dataclass
class PlanResult:
    best: DiscretePath
    type_word: str
    length: float
    diagnostics: list[CandidateDiag] = field(default_factory=list)


# ---------------------------------------------------------------------------
# arc chord geometry

def _chord(params: Params, k):
    """Distance between the two endpoints of an arc of k ell-edges (k may be
    an array of counts)."""
    return params.ell * np.sin(k * params.theta / 2.0) / math.sin(params.theta / 2.0)


def _arc_points(p: Point2, psi1: float, sigma: int, k: int,
                params: Params) -> list[Point2]:
    """The k successive vertices of an arc starting at p with first edge
    direction psi1 (start point not included)."""
    pts = []
    x, y = p
    for j in range(k):
        a = psi1 + j * sigma * params.theta
        x += params.ell * math.cos(a)
        y += params.ell * math.sin(a)
        pts.append((x, y))
    return pts


def _norm_arr(a):
    return (a + math.pi) % TWO_PI - math.pi


def _turns_ok(theta: float, *turns):
    """Mask of the solutions whose turns (arrays) all lie within theta."""
    ok = True
    for turn in turns:
        ok = ok & (np.abs(_norm_arr(turn)) <= theta + 5e-10)
    return ok


# ---------------------------------------------------------------------------
# candidate assembly

class _Instance:
    def __init__(self, U: Configuration, V: Configuration, params: Params):
        self.U, self.V, self.params = U, V, params
        self.psi_u = angle_of(U.heading)
        self.psi_v = angle_of(V.heading)
        self.w = sub(V.point, U.point)
        self.d = dist(U.point, V.point)
        self.snap_tol = 0.3 * params.tol_len

    @functools.cached_property
    def dubins(self):
        """The smooth Dubins curve between U and V scaled to unit turning
        radius (the circumradius), or None where it cannot be solved."""
        r = self.params.circumradius
        try:
            return _smooth.dubins_solve(Configuration(scale(self.U.point, 1.0 / r), self.U.heading),
                                        Configuration(scale(self.V.point, 1.0 / r), self.V.heading))
        except (ValueError, RuntimeError):
            return None

    def finish(self, vertices: list[Point2]) -> DiscretePath | None:
        """Snap the built endpoint onto V, dedup, and validate."""
        if dist(vertices[-1], self.V.point) > self.snap_tol:
            return None
        verts = [self.U.point]
        for p in vertices[1:]:
            if dist(verts[-1], p) > 10.0 * self.params.tol_dedup:
                verts.append(p)
        verts[-1] = self.V.point
        if len(verts) >= 2 and dist(verts[-2], verts[-1]) <= 10.0 * self.params.tol_dedup:
            del verts[-2]
        try:
            path = DiscretePath(self.U, self.V, tuple(verts))
        except ValueError:
            return None
        try:
            if validate(path, self.params):
                return None
        except ValueError:
            return None
        return path


def _build_elements(inst: _Instance, elements) -> list[Point2]:
    """elements: ('arc', sigma, k, psi1) or ('bridge', s, psi)."""
    verts = [inst.U.point]
    for el in elements:
        if el[0] == "arc":
            _, sigma, k, psi1 = el
            verts.extend(_arc_points(verts[-1], psi1, sigma, k, inst.params))
        else:
            _, s, psi = el
            if s > 0.0:
                verts.append(add(verts[-1], scale(from_angle(psi), s)))
    return verts


def _first_ok(n_rows: int, rows, ok):
    """Per row, the index of its first solution with ``ok`` (solutions listed
    by ascending ``rows``), and the mask of rows that have one."""
    hit = np.flatnonzero(ok)
    found, first = np.unique(rows[hit], return_index=True)
    pick, has = np.zeros(n_rows, dtype=int), np.zeros(n_rows, dtype=bool)
    pick[found], has[found] = hit[first], True
    return pick, has


def _arcs_build(inst: _Instance, sigmas, ks, psis):
    """Builder of rows of consecutive arcs with first edge directions
    ``psis`` (rows x arcs)."""
    def build(r: int) -> list[Point2]:
        return _build_elements(inst, [("arc", s, k, p) for s, k, p in
                                      zip(sigmas[r].tolist(), ks[r].tolist(),
                                          psis[r].tolist())])
    return build


# ---------------------------------------------------------------------------
# per-word row solvers (exact position closure by construction)

# Every solver takes rows of arc orientations ``sigmas`` and edge counts
# ``ks`` (rows x arcs) and returns each row's length (inf where no
# realization keeps every turn within theta) and a function building a
# row's vertices.

def _solve_B(inst: _Instance, sigmas, ks):
    """The segment from U to V, or U alone where they coincide (rows carry
    no arcs)."""
    if inst.d <= inst.params.tol_dedup:
        return np.zeros(len(ks)), lambda r: [inst.U.point]
    return np.full(len(ks), inst.d), lambda r: [inst.U.point, inst.V.point]


def _solve_A(inst: _Instance, sigmas, ks):
    """One arc whose chord spans U to V, within the snap tolerance."""
    th = inst.params.theta
    (sigma,), (k,) = sigmas.T, ks.T
    psi1 = math.atan2(inst.w[1], inst.w[0]) - (k - 1) * sigma * th / 2.0
    ok = (np.abs(inst.d - _chord(inst.params, k)) <= inst.snap_tol) & \
        (inst.d > inst.params.tol_dedup)
    ok &= _turns_ok(th, psi1 - inst.psi_u, inst.psi_v - psi1 - (k - 1) * sigma * th)
    return np.where(ok, k * inst.params.ell, math.inf), \
        _arcs_build(inst, sigmas, ks, psi1[:, None])


def _two_link(wx, wy, c1, c2):
    """Chord directions with c1*e^{i a1} + c2*e^{i a2} = w for arrays of
    displacements w = (wx, wy) and chords c1, c2 (broadcast together).

    Returns (rows, a1, a2): per solution, the index of its displacement and
    the two chord directions, ordered by index.  For a zero displacement and
    equal chords the solution set is the full back-to-back circle; a dense
    sample of that family is returned (all its members have equal length, so
    callers keep whichever is feasible).
    """
    wx, wy, c1, c2 = np.broadcast_arrays(*(np.atleast_1d(x) for x in (wx, wy, c1, c2)))
    d = np.hypot(wx, wy)
    tiny = d < 1e-12
    reach = ~tiny & (d <= c1 + c2 + 1e-12) & (d >= np.abs(c1 - c2) - 1e-12)
    g = np.arccos(np.clip((c1 * c1 + d * d - c2 * c2) / (2.0 * c1 * np.where(tiny, 1.0, d)),
                          -1.0, 1.0))
    base = np.arctan2(wy, wx)
    # both elbow branches of each displacement, one when they coincide
    rows = np.repeat(np.arange(len(d)), 2)
    a1 = np.stack([base + g, base - g], axis=1).ravel()
    keep = np.repeat(reach, 2) & (np.tile([True, False], len(d)) | np.repeat(g > 1e-15, 2))
    circle = np.flatnonzero(tiny & (np.abs(c1 - c2) <= 1e-12))
    if len(circle):
        sample = np.linspace(0.0, 2.0 * math.pi, 65, endpoint=False)
        rows = np.concatenate([rows, np.repeat(circle, len(sample))])
        a1 = np.concatenate([a1, np.tile(sample, len(circle))])
        keep = np.concatenate([keep, np.ones(len(circle) * len(sample), dtype=bool)])
    rx, ry = wx[rows] - c1[rows] * np.cos(a1), wy[rows] - c1[rows] * np.sin(a1)
    # a degenerate second chord is only valid if c2 is consumed exactly
    keep = np.flatnonzero(keep & (np.hypot(rx, ry) >= 1e-15))
    if len(circle):
        keep = keep[np.argsort(rows[keep], kind="stable")]
    return rows[keep], a1[keep], np.arctan2(ry[keep], rx[keep])


def _solve_AA(inst: _Instance, sigmas, ks):
    """Two arcs whose chords form a two-link chain from U to V
    (``_two_link``); the first elbow branch that keeps every turn within
    theta is kept (both have one length)."""
    th = inst.params.theta
    c, h = _chord(inst.params, ks), (ks - 1) * sigmas * th / 2.0
    rows, a1, a2 = _two_link(inst.w[0], inst.w[1], c[:, 0], c[:, 1])
    psi1, psi2 = a1 - h[rows, 0], a2 - h[rows, 1]
    ok = _turns_ok(th, psi1 - inst.psi_u, psi2 - psi1 - 2.0 * h[rows, 0],
                   inst.psi_v - psi2 - 2.0 * h[rows, 1])
    pick, has = _first_ok(len(ks), rows, ok)
    psis = np.zeros((len(ks), 2))
    psis[has] = np.stack([psi1, psi2], axis=1)[pick[has]]
    return np.where(has, ks.sum(axis=1) * inst.params.ell, math.inf), \
        _arcs_build(inst, sigmas, ks, psis)


# Arc-bridge rows, solved exactly.  With the arcs' orientations and edge
# counts fixed, arc 1 ends at P = u + c1 e^{ia} and arc 2 starts at
# Q = v - c2 e^{ib}, where a and b are the chord directions (complex
# numbers stand for points), and the bridge is Q - P.  The unknowns are the
# turns phi_u at u and phi_v at v, which move a and b, under four bounds:
# |phi_u|, |phi_v| and the joint turns |j1| (arc 1 into the bridge) and |j2|
# (bridge into arc 2) are at most theta.  The shortest bridge sits where at
# most two bounds are active, and every such point has a construction:
#   none active:      u, P, Q and v are collinear;
#   phi_u (phi_v):    Q (P) nearest to or farthest from the fixed P (Q);
#   j1 (j2):          Q (P) lies on line uv, and the chain of chord and
#                     bridge at a fixed angle reaches it (a quadratic in s);
#   two active:       the four corners, a ray from a fixed end point against
#                     the other circle, or a fixed-angle chain (for j1 and
#                     j2 together, the whole chord-bridge-chord chain turned
#                     rigidly about u).
# Evaluating all of these (72 per row; 12 for AB, the same problem in one
# dimension) and keeping the feasible ones gives each row's exact minimum.

def _reach(w, e, rho):
    """Both real s with |w + s e| = rho (complex w, unit e), on a new last
    axis.  Where there is none the double root of the nearest approach is
    returned; candidates are always re-checked on the geometry they give."""
    b = (w * np.conj(e)).real
    r = np.sqrt(np.maximum(b * b - np.abs(w) ** 2 + rho ** 2, 0.0))
    return np.stack([-b - r, -b + r], axis=-1)


def _elbow(target, w, e):
    """Angles t with target = e^{it} (w + s e) for the s of ``_reach``: a
    chain w then s e, turned rigidly to reach a point."""
    target, w, e = np.broadcast_arrays(target, w, e)
    s = _reach(w, e, np.abs(target))
    return np.angle(target)[..., None] - np.angle(w[..., None] + s * e[..., None])


def _ray(origin, beta, center, radius):
    """Points where rays from ``origin`` in direction ``beta`` (both ways)
    meet the circle about ``center``."""
    origin, beta = np.broadcast_arrays(origin, beta)
    e = np.exp(1j * beta)
    return origin[..., None] + _reach(origin - center, e, radius) * e[..., None]


def _shortest(s, ok, *values):
    """Per row, the shortest feasible candidate's s (inf if none) and values."""
    s = np.where(ok, s, np.inf)
    i = np.argmin(s, axis=1)[:, None]
    return [np.take_along_axis(x, i, axis=1)[:, 0] for x in (s,) + values]


def _row_arcs(params: Params, sigmas, ks):
    """Chords and half sweeps of arcs with orientations ``sigmas`` and edge
    counts ``ks``, as columns."""
    return _chord(params, ks)[:, None], ((ks - 1) * sigmas * params.theta / 2.0)[:, None]


def _aba_rows(inst: _Instance, sigmas, ks):
    """Shortest arc-bridge-arc realization of each row of ``sigmas`` and
    ``ks`` (rows x 2): the bridge length (inf where no realization keeps
    every turn within theta), arc 1's first edge direction, the bridge
    direction and arc 2's first edge direction.

    Where the two arcs can meet, bridges shrinking toward the meeting point
    may stay feasible: the infimum 0 is not attained, and the shortest
    stationary bridge is returned.  A short bridge must turn by at most
    theta across it, so such paths tend to AA paths, which ``_solve_AA``
    finds exactly."""
    th = inst.params.theta
    (c1, h1), (c2, h2) = (_row_arcs(inst.params, sigmas[:, i], ks[:, i]) for i in (0, 1))
    u, v = complex(*inst.U.point), complex(*inst.V.point)
    a0, b0 = inst.psi_u + h1, inst.psi_v - h2  # chord directions at zero end turns
    bound, flip = np.array([-th, th]), np.array([0.0, math.pi])
    line = np.angle(v - u) + flip + np.zeros_like(c1)  # both ways along uv
    a_end, b_end = a0 + bound, b0 + bound  # phi_u, phi_v at a bound
    kap1, kap2 = h1 + bound, h2 + bound  # j1, j2 at a bound: beta = a + kap1 = b - kap2
    p_end, q_end = u + c1 * np.exp(1j * a_end), v - c2 * np.exp(1j * b_end)
    p_line, q_line = u + c1 * np.exp(1j * line), v - c2 * np.exp(1j * line)

    def arc1_to(q, kappa):  # a with q - u = e^{ia} (c1 + s e^{i kappa})
        return _elbow(q - u, c1[..., None], np.exp(1j * kappa))

    def arc2_from(p, kappa):  # b with v - p = e^{ib} (c2 + s e^{-i kappa})
        return _elbow(v - p, c2[..., None], np.exp(-1j * kappa))

    beta = _elbow(v - u, (c1 * np.exp(-1j * kap1))[:, :, None]
                  + (c2 * np.exp(1j * kap2))[:, None, :], 1.0 + 0j)
    q_ray = _ray(p_end[:, :, None], a_end[:, :, None] + kap1[:, None, :], v, c2[..., None])
    p_ray = _ray(q_end[:, :, None], b_end[:, :, None] - kap2[:, None, :], u, c1[..., None])
    families = (  # (a, b) by active bounds
        (line[:, :, None], line[:, None, :]),                               # none
        (a_end[:, :, None], np.angle(p_end - v)[:, :, None] + flip),        # phi_u
        (np.angle(q_end - u)[:, :, None] + flip, b_end[:, :, None]),        # phi_v
        (arc1_to(q_line[:, :, None], kap1[:, None, :]), line[:, :, None, None]),   # j1
        (line[:, :, None, None], arc2_from(p_line[:, :, None], kap2[:, None, :])),  # j2
        (a_end[:, :, None], b_end[:, None, :]),                             # phi_u, phi_v
        (a_end[:, :, None, None], np.angle(v - q_ray)),                     # phi_u, j1
        (np.angle(p_ray - u), b_end[:, :, None, None]),                     # phi_v, j2
        (a_end[:, :, None, None], arc2_from(p_end[:, :, None], kap2[:, None, :])),  # phi_u, j2
        (arc1_to(q_end[:, :, None], kap1[:, None, :]), b_end[:, :, None, None]),    # phi_v, j1
        (beta - kap1[:, :, None, None], beta + kap2[:, None, :, None]),     # j1, j2
    )
    pairs = [np.broadcast_arrays(x, y) for x, y in families]
    a = np.concatenate([x.reshape(len(ks), -1) for x, _ in pairs], axis=1)
    b = np.concatenate([y.reshape(len(ks), -1) for _, y in pairs], axis=1)
    bridge = v - c2 * np.exp(1j * b) - u - c1 * np.exp(1j * a)
    s, psi_b = np.abs(bridge), np.angle(bridge)
    ok = (s > 1e-12) & _turns_ok(th, a - a0, b0 - b, psi_b - a - h1, b - h2 - psi_b)
    return _shortest(s, ok, a - h1, psi_b, b - h2)


def _ab_rows(inst: _Instance, sigmas, ks):
    """Shortest arc-bridge realization of each row of ``sigmas`` and ``ks``
    (rows,): the bridge length (inf where none keeps every turn within
    theta), the arc's first edge direction and the bridge direction."""
    th = inst.params.theta
    c, h = _row_arcs(inst.params, sigmas, ks)
    u, v = complex(*inst.U.point), complex(*inst.V.point)
    a0 = inst.psi_u + h
    bound = np.array([-th, th])
    families = (  # a by active bound
        np.angle(v - u) + np.array([0.0, math.pi]) + np.zeros_like(c),      # none
        a0 + bound,                                                           # phi_u
        _elbow(v - u, c[..., None], np.exp(1j * (h + bound))[:, None, :]),   # j1
        np.angle(_ray(v, inst.psi_v + bound, u, c[..., None]) - u),          # phi_v
    )
    a = np.concatenate([x.reshape(len(ks), -1) for x in families], axis=1)
    bridge = v - u - c * np.exp(1j * a)
    s, psi_b = np.abs(bridge), np.angle(bridge)
    ok = (s > 1e-12) & _turns_ok(th, a - a0, psi_b - a - h, inst.psi_v - psi_b)
    return _shortest(s, ok, a - h, psi_b)


def _solve_ABA(inst: _Instance, sigmas, ks):
    """Arc, bridge, arc, with the shortest bridge of ``_aba_rows``."""
    s, psi1, psi_b, psi2 = _aba_rows(inst, sigmas, ks)

    def build(r: int) -> list[Point2]:
        (s1, s2), (k1, k2) = sigmas[r].tolist(), ks[r].tolist()
        return _build_elements(inst, [("arc", s1, k1, float(psi1[r])),
                                      ("bridge", float(s[r]), float(psi_b[r])),
                                      ("arc", s2, k2, float(psi2[r]))])

    return ks.sum(axis=1) * inst.params.ell + s, build


def _solve_AB(inst: _Instance, sigmas, ks, reverse: bool):
    """Arc then bridge (``_ab_rows``) when reverse is False; bridge then arc
    when True, solved as AB on the reversed instance, where the arc turns
    the other way."""
    work = inst if not reverse else _Instance(
        Configuration(inst.V.point, scale(inst.V.heading, -1.0)),
        Configuration(inst.U.point, scale(inst.U.heading, -1.0)),
        inst.params)
    (sigma,), (k,) = sigmas.T, ks.T
    if reverse:
        sigma = -sigma
    s, psi1, psi_b = _ab_rows(work, sigma, k)

    def build(r: int) -> list[Point2]:
        verts = _build_elements(work, [("arc", int(sigma[r]), int(k[r]), float(psi1[r])),
                                       ("bridge", float(s[r]), float(psi_b[r]))])
        return [inst.U.point] + verts[::-1][1:] if reverse else verts

    return k * inst.params.ell + s, build


def _solve_AAA(inst: _Instance, sigmas, ks):
    """Three arcs: the first arc's start turn is sampled at 65 points over
    [-theta, theta], and the other two chords close the chain to V
    (``_two_link``).  All members of a row's family have one length, so the
    first sample that keeps every turn within theta is kept.  Rows are
    solved in chunks of ``_BATCH_ROWS`` samples."""
    th = inst.params.theta
    c, h = _chord(inst.params, ks), (ks - 1) * sigmas * th / 2.0
    samples = np.linspace(-th, th, 65)
    psis, has = np.zeros((len(ks), 3)), np.zeros(len(ks), dtype=bool)
    # rows out of two-link reach for every first chord direction are skipped
    live = np.flatnonzero((inst.d - c[:, 0] <= c[:, 1] + c[:, 2] + 1e-12)
                          & (inst.d + c[:, 0] >= np.abs(c[:, 1] - c[:, 2]) - 1e-12))
    per = _BATCH_ROWS // len(samples)
    for chunk in (live[b0:b0 + per] for b0 in range(0, len(live), per)):
        row = np.repeat(chunk, len(samples))
        psi1 = inst.psi_u + np.tile(samples, len(chunk))
        mid1 = psi1 + h[row, 0]
        at, a2, a3 = _two_link(inst.w[0] - c[row, 0] * np.cos(mid1),
                               inst.w[1] - c[row, 0] * np.sin(mid1), c[row, 1], c[row, 2])
        row, psi1 = row[at], psi1[at]
        psi2, psi3 = a2 - h[row, 1], a3 - h[row, 2]
        ok = _turns_ok(th, psi2 - psi1 - 2.0 * h[row, 0], psi3 - psi2 - 2.0 * h[row, 1],
                       inst.psi_v - psi3 - 2.0 * h[row, 2])
        pick, got = _first_ok(len(chunk), at // len(samples), ok)
        psis[chunk[got]] = np.stack([psi1, psi2, psi3], axis=1)[pick[got]]
        has[chunk[got]] = True
    return np.where(has, ks.sum(axis=1) * inst.params.ell, math.inf), \
        _arcs_build(inst, sigmas, ks, psis)


# the true-type words, in the order plan solves them
_ROW_SOLVERS = {
    "B": _solve_B,
    "A": _solve_A,
    "AA": _solve_AA,
    "AB": functools.partial(_solve_AB, reverse=False),
    "BA": functools.partial(_solve_AB, reverse=True),
    "ABA": _solve_ABA,
    "AAA": _solve_AAA,
}


# ---------------------------------------------------------------------------
# arcs with partial end edges

# Element words with one or two free-length edges F.  An F next to an arc is
# that arc's partial first or last edge when it is short, and a bridge
# carrying the arc's ell-head otherwise; an F between two arcs is the short
# edge they overlap in, or a bridge.  For fixed edge directions the lengths
# solve a linear program with two closure equations, so a shortest path has
# at most two edges whose length is neither 0 nor ell.  These are the words
# over at most three arcs with one or two F edges that the words above miss
# (AF, FA and AFA are AB, BA and ABA).
_PARTIAL_SHAPES = (
    "FAF",
    "FAA", "AAF", "FAFA", "AFAF", "FAAF",
    "FAAA", "AFAA", "AAFA", "AAAF",
    "FAAAF", "FAFAA", "FAAFA", "AFAAF", "AFAFA", "AAFAF",
)
_BATCH_ROWS = 20000   # joint rows evaluated per vectorized batch
_GAP_GRID = 5         # samples per angle between chords in ``_chord_gap``


@dataclass(frozen=True)
class _Patterns:
    """Joint-turn rows of a partial-arc shape.

    ``vals`` holds turn-bound values, with 0 in the column of the joint
    closed by the heading (``head``) and, on rows of a one-parameter family,
    in the column of the joint that parameterizes it (``scan``, else -1).
    Rows with one sum of ``vals`` and one reach of their free joints (theta
    for one, 2 theta for a family) form a ``group``, whose ``sums`` and
    ``reach`` the heading test reads once.  ``per_batch`` rows of arc
    orientations and edge counts are solved together; ``plan`` counts them
    over the rows its floors leave live.

    At t = 0 a token's direction is a lead angle of the arc row (from psi_u
    before the heading joint, after it from psi_v) turned by the joints on
    the way.  Patterns whose arcs agree in this, and in which of them lie in
    the family's turning block, share a ``chords`` column; ``mix`` takes the
    arcs' lead chords (side-major, from ``_leads``) to the chord sum of each
    column and then to its sum over the turning block.  ``f_after`` (the
    side, 0 or 1), ``f_turn`` and ``f_inside`` give the same for each F edge.
    """

    vals: np.ndarray
    head: np.ndarray
    scan: np.ndarray
    group: np.ndarray
    sums: np.ndarray
    reach: np.ndarray
    per_batch: int
    chords: np.ndarray
    mix: np.ndarray
    f_after: np.ndarray
    f_turn: np.ndarray
    f_inside: np.ndarray


@functools.lru_cache(maxsize=None)
def _joint_patterns(shape: str, theta: float) -> _Patterns:
    """Joint rows for the closed-form solves of a partial-arc shape.

    Joint i sits between token i-1 and token i (joint 0 at the start, the
    last one at the end).  The candidates keep their joints at a turn bound
    (+-theta, or 0 at a boundary joint next to an F, the turn-over-length
    bound of a short first or last edge) except for two joints whose
    opposite turns parameterize a one-parameter family.  With two F edges
    both lengths solve position closure, so the family is solved for its
    stationary points, and the rows with only the heading joint free are
    kept too; with one F edge, position closure leaves one equation that
    the family solves.

    An F capped below ell (``_f_caps``) is shorter than a full edge and no
    inflection, so its two joints must turn by at most theta together: rows
    fixing both at one bound, +theta or -theta, never close and are dropped.
    Batches are sized by the rows before this, which leaves every batch's
    outcome as it was.
    """
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
    vals, head, scan = np.array(rows), np.array(head), np.array(scan)
    per_batch = max(1, _BATCH_ROWS // len(vals))
    # free joints hold 0, so only fixed joints can match a nonzero bound
    short = [t for t, cap in zip((t for t, c in enumerate(shape) if c == "F"),
                                 _f_caps(shape, 1.0)) if cap < 1.0]
    live = np.ones(len(vals), dtype=bool)
    for t in short:
        live &= (vals[:, t] == 0.0) | (vals[:, t] != vals[:, t + 1])
    vals, head, scan = vals[live], head[live], scan[live]
    keys = np.column_stack([vals.sum(axis=1), np.where(scan < 0, theta, 2.0 * theta) + 5e-10])
    groups, group = np.unique(keys, axis=0, return_inverse=True)
    tokens = np.arange(len(shape))
    after = tokens >= head[:, None]
    inside = (scan[:, None] >= 0) & (tokens >= scan[:, None]) & ~after
    # in steps of theta: the joints up to each token, less all of them past
    # the heading joint (the turns from psi_v back to the token)
    steps = np.rint(vals / theta).astype(int)
    turned = np.cumsum(steps, axis=1)[:, :-1] - after * steps.sum(axis=1)[:, None]
    arcs = tokens[np.array(list(shape)) == "A"]
    f_cols = tokens[np.array(list(shape)) == "F"]
    cols, chords = np.unique(np.hstack([after[:, arcs], turned[:, arcs], inside[:, arcs]]),
                             axis=0, return_inverse=True)
    c_after, c_turned, c_inside = np.split(cols, 3, axis=1)
    turn = np.exp(1j * theta * c_turned)
    on = np.hstack([np.where(c_after, 0.0, turn), np.where(c_after, turn, 0.0)])
    mix = np.vstack([on, on * np.tile(c_inside, 2)]).T
    return _Patterns(vals, head, scan, group.ravel(), *groups.T, per_batch, chords.ravel(),
                     mix, after[:, f_cols].astype(int),
                     np.exp(1j * theta * turned[:, f_cols]), inside[:, f_cols])


def _leads(inst: _Instance, shape: str, sigmas, ks):
    """Per row of arc orientations and edge counts (rows x 2 x tokens): the
    chord of each arc and the unit vector of each F at its lead angle, from
    psi_u and from psi_v.  From psi_u the lead adds the sweeps before the
    token, from psi_v it takes off the sweeps from the token on; an arc's
    chord also turns by half its own sweep."""
    arcs = [t for t, letter in enumerate(shape) if letter == "A"]
    sweep = np.zeros((len(ks), len(shape)))
    sweep[:, arcs] = (ks - 1) * sigmas * inst.params.theta
    lead = np.cumsum(sweep, axis=1) - sweep / 2.0
    size = np.ones_like(sweep)
    size[:, arcs] = _chord(inst.params, ks)
    return size[:, None, :] * np.exp(1j * np.stack(
        [inst.psi_u + lead, inst.psi_v + lead - sweep.sum(axis=1, keepdims=True)], axis=1))


def _closure_terms(inst: _Instance, shape: str, sigmas, ks, joints):
    """Closure pieces of partial-arc candidates, one per row of arc
    orientations, edge counts and joint turns.

    Returns the element entry directions, the unit vectors of the F edges
    and the displacement r the F edges must cover (w minus the arc chords),
    both as complex numbers, and the F token columns.
    """
    params = inst.params
    th = params.theta
    psi = inst.psi_u + np.cumsum(joints[:, :-1], axis=1)
    r = np.full(len(joints), complex(*inst.w))
    f_cols = []
    arc_i = 0
    for t, letter in enumerate(shape):
        if letter == "F":
            f_cols.append(t)
            continue
        k, sweep = ks[:, arc_i], (ks[:, arc_i] - 1) * sigmas[:, arc_i] * th
        arc_i += 1
        r -= _chord(params, k) * np.exp(1j * (psi[:, t] + sweep / 2.0))
        psi[:, t + 1:] += sweep[:, None]
    f_dirs = [np.exp(1j * psi[:, t]) for t in f_cols]
    return psi, f_dirs, r, f_cols


def _f_caps(shape: str, ell: float) -> list[float]:
    """Exclusive upper bounds on the F lengths of a partial-arc shape for a
    true type.

    Each arc next to an F takes in at most ell of it, and so does an arc
    that starts at u or ends at v with a theta turn there; what no arc
    covers is a bridge.  A true type has at most three arcs and a bridge
    only as in AB, BA or ABA.  So with one arc every F may be a bridge; with
    two arcs an F between them may be a bridge and an end F stays below
    2 ell; with three arcs an F between two of them stays below 2 ell and an
    end F is a partial edge, shorter than a full edge (a full one is a
    fourth arc).
    """
    n_arcs = shape.count("A")
    caps = []
    for t, letter in enumerate(shape):
        if letter == "F":
            if t in (0, len(shape) - 1):
                caps.append({1: math.inf, 2: 2.0 * ell, 3: ell * (1.0 - 1e-12)}[n_arcs])
            else:
                caps.append(math.inf if n_arcs == 2 else 2.0 * ell)
    return caps


def _partial_closure(inst: _Instance, shape: str, ks, joints, f_dirs, r, f_cols):
    """F lengths, total lengths and feasibility mask of partial-arc
    candidates whose joint rows close the heading, from their F edge
    directions ``f_dirs`` and the displacement ``r`` the F edges must cover
    (complex numbers).

    Two F lengths solve position closure as a 2x2 linear system.  One F
    length is the displacement's projection on its direction, which closes
    position when the rest misses V by at most the snap tolerance.  The mask
    covers what the closed form decides: F lengths positive and within
    ``_f_caps``, joint turns within theta, and turn-over-length on a short
    non-inflection F; bounds are checked without the validator's
    tolerances, so that candidates never gain length by leaning on them.
    """
    params = inst.params
    th, ell = params.theta, params.ell
    if len(f_dirs) == 1:
        (e,) = f_dirs
        # dot(e, r) and cross(e, r)
        proj = np.conj(e) * r
        lens = [proj.real]
        ok = np.abs(proj.imag) <= inst.snap_tol
    else:
        e1, e2 = f_dirs
        det = (np.conj(e1) * e2).imag
        ok = np.abs(det) > 1e-12
        safe = np.where(ok, det, 1.0)
        lens = [(np.conj(r) * e2).imag / safe, (np.conj(e1) * r).imag / safe]
    ok &= np.all(np.abs(joints) <= th + 1e-12, axis=1)
    for t, ln, cap in zip(f_cols, lens, _f_caps(shape, ell)):
        a, b = joints[:, t], joints[:, t + 1]
        infl = ((a > TOL_ANG) & (b < -TOL_ANG)) | ((a < -TOL_ANG) & (b > TOL_ANG))
        ok &= (ln > 10.0 * params.tol_dedup) & (ln < cap)
        ok &= (ln >= ell * (1.0 - 1e-12)) | infl | (np.abs(a + b) <= th + 1e-12)
    return lens, ks.sum(axis=1) * ell + sum(lens), ok


def _family_coeffs(f_dirs, r_out, r_in, rotating):
    """Closure cross products along two-joint families as c0 + c1 cos t +
    c2 sin t: cross(e_f(t), r_out - R(t) r_in) for each F edge direction
    e_f, then cross(e1(t), e2(t)) for two F edges.  Vectors are complex
    numbers; ``rotating`` flags, per F edge, the rows where it lies in the
    turning block.

    Raising the turn at the family's first joint by t and lowering it at its
    second joint by t rigidly rotates the tokens between them by t, so every
    cross product of a fixed and a rotating vector is a degree-one
    trigonometric polynomial in t (and one of two rotating vectors is
    constant).  With conj(u) v = dot(u, v) + i cross(u, v), cross(u, R(t) v)
    = cross(u, v) cos t + dot(u, v) sin t.  ``_closure_terms`` with that
    block flagged ``inside`` gives the vectors at t = 0.
    """
    out = []
    for e, m in zip(f_dirs, rotating):
        ce = np.conj(e)
        p, q = ce * r_out, ce * r_in
        # rotating e: cross(R(t) e, r_out) - cross(e, r_in); else
        # cross(e, r_out) - cross(e, R(t) r_in)
        out.append((np.where(m, -q.imag, p.imag), np.where(m, p.imag, -q.imag),
                    -np.where(m, p.real, q.real)))
    if len(f_dirs) == 2:
        (e1, e2), (m1, m2) = f_dirs, rotating
        g = np.conj(e1) * e2
        same = m1 == m2
        out.append((np.where(same, g.imag, 0.0), np.where(same, 0.0, g.imag),
                    np.where(same, 0.0, np.where(m2, g.real, -g.real))))
    return out


def _chord_gap(inst: _Instance, shape: str, sigmas, ks):
    """Lower bound, per row of arc orientations and edge counts, on the
    length the F edges of a partial-arc shape must cover: |w - sum of arc
    chords| over every choice of joint turns within theta that closes the
    heading.

    Chord i points at psi_u + (sum of joints before arc i) + (sweeps so far)
    + half its own sweep.  The angles between consecutive chords are
    sampled on a grid; at each sample the heading closure leaves the first
    chord's rotation an interval, over which the distance from w to the
    rotated chord sum is exact (a point to an arc of a circle).  The sample
    minimum is lowered by a Lipschitz margin and the interval widened by
    the grid's half-steps, so the bound holds between samples too.
    """
    th = inst.params.theta
    n = len(ks)
    ks = np.asarray(ks, dtype=float)
    chords = _chord(inst.params, ks)
    half = (ks - 1) * sigmas * th / 2.0
    at = [t for t, letter in enumerate(shape) if letter == "A"]
    # the chord sum T in the frame of the first chord, and the joint turn
    # spent between arcs, over the grid
    tx, ty = chords[:, :1], np.zeros((n, 1))
    angle, spent = np.zeros((n, 1)), np.zeros((n, 1))
    margin, slop = np.zeros(n), 0.0
    for i in range(1, len(at)):
        width = (at[i] - at[i - 1]) * th  # joints between arcs i-1 and i
        steps = np.linspace(-width, width, _GAP_GRID)
        cells = angle.shape[1] * _GAP_GRID
        angle = ((angle + (half[:, i - 1] + half[:, i])[:, None])[:, :, None]
                 + steps).reshape(n, cells)
        spent = (spent[:, :, None] + steps).reshape(n, cells)
        tx = np.repeat(tx, _GAP_GRID, axis=1) + chords[:, i:i + 1] * np.cos(angle)
        ty = np.repeat(ty, _GAP_GRID, axis=1) + chords[:, i:i + 1] * np.sin(angle)
        margin += chords[:, i:].sum(axis=1) * (steps[1] - steps[0]) / 2.0
        slop += (steps[1] - steps[0]) / 2.0
    # the joints before the first arc rotate T; with the joints after the
    # last arc they close the heading (up to whole turns).  The two joints
    # of a partial end edge turn by at most theta together.
    caps = _f_caps(shape, inst.params.ell)
    first = (at[0] + 1 - (at[0] == 1 and caps[0] < inst.params.ell)) * th
    last = (len(shape) - at[-1] - (at[-1] == len(shape) - 2
                                   and caps[-1] < inst.params.ell)) * th
    need = _norm_arr(inst.psi_v - inst.psi_u - 2.0 * half.sum(axis=1))[:, None]
    size = np.hypot(tx, ty)
    base = inst.psi_u + half[:, :1] + np.arctan2(ty, tx)
    bearing = math.atan2(inst.w[1], inst.w[0])
    # the distance from w grows with the angular miss on [0, pi], so each
    # cell takes its smallest miss over the winds that leave it an interval
    # (few do), and cells that no wind leaves one get no distance
    aim = (bearing - base).ravel()
    miss = np.full(aim.size, math.inf)
    reach = (len(shape) + 1) * th
    for wind in range(-int(reach / TWO_PI) - 1, int(reach / TWO_PI) + 2):
        target = need + wind * TWO_PI - spent
        lo = np.maximum(-first, target - last - slop).ravel()
        hi = np.minimum(first, target + last + slop).ravel()
        at = np.flatnonzero(lo <= hi)
        lo, hi = lo[at], hi[at]
        off = np.maximum(0.0, np.abs(_norm_arr(aim[at] - (lo + hi) / 2.0)) - (hi - lo) / 2.0)
        miss[at] = np.minimum(miss[at], off)
    gap = np.full(size.shape, math.inf)
    at = np.flatnonzero(miss < math.inf)
    size = size.ravel()[at]
    gap.flat[at] = np.sqrt((inst.d - size) ** 2
                           + 4.0 * inst.d * size * np.sin(miss[at] / 2.0) ** 2)
    return np.maximum(gap.min(axis=1) - margin, inst.d - chords.sum(axis=1)).clip(0.0)


def _trig_roots(a, b, c):
    """Both roots of a sin t + b cos t + c = 0 per row, and the mask of rows
    that have them."""
    amp = np.hypot(a, b)
    has = (amp > 1e-14) & (np.abs(c) <= amp)
    arc = np.arcsin(np.clip(-c / np.where(has, amp, 1.0), -1.0, 1.0))
    phase = np.arctan2(b, a)
    return (arc - phase, math.pi - arc - phase), has


def _solve_partial(inst: _Instance, shape: str, sigma_batch, ks_batch,
                   patterns: _Patterns, length_cap: float):
    """Shortest feasible closed-form realization of a partial-arc shape over
    a batch of rows of arc orientations and edge counts, if one is no longer
    than ``length_cap``: (sigmas, ks, path, endpoint miss before snapping),
    or None.

    Along a two-joint family the cross products of ``_family_coeffs`` are
    c0 + c1 cos t + c2 sin t.  With two F edges the F length sum is
    (X1 - X2) / D for X_f = cross(e_f, r) and D = cross(e1, e2), so its
    stationary points solve (N / D)' = 0 in closed form; with one F edge the
    family closes position where X1 = 0.  A solved row's F directions and
    displacement are its t = 0 vectors turned by t: e_f(t) = R(t) e_f on the
    turning block, r(t) = r_out - R(t) r_in.
    """
    th, ell = inst.params.theta, inst.params.ell
    need = inst.psi_v - inst.psi_u - ((ks_batch - 1) * sigma_batch).sum(axis=1) * th
    # the free joints must be able to close the heading at all; the test
    # depends on a pattern only through its group
    left = _norm_arr(need[:, None] - patterns.sums[None, :])
    fits = (np.abs(left) <= patterns.reach)[:, patterns.group]
    # every row against every chords column at t = 0: r = r_out - r_in is
    # w less all chords, r_in the chord sum of the turning block (einsum's
    # own loop, as a BLAS product of this size would start threads)
    vec = _leads(inst, shape, sigma_batch, ks_batch)
    arcs = [t for t, letter in enumerate(shape) if letter == "A"]
    both = np.einsum("rk,kc->rc", vec[:, :, arcs].reshape(len(vec), -1), patterns.mix)
    r, r_in = np.hsplit(both, 2)
    r = complex(*inst.w) - r
    # the F edges must cover |r_out - R(t) r_in|, which turning a family by
    # |t| <= theta (+ 1e-12) moves by at most 2 |r_in| sin(theta / 2)
    # (+ |r_in| 1e-12): within their caps, and within the length cap after
    # the arcs' edges (one F edge may miss r by the snap tolerance)
    gap = np.abs(r) - np.abs(r_in) * (2.0 * math.sin(th / 2.0) + 1e-12) - inst.snap_tol
    floor = (ks_batch.sum(axis=1) * ell)[:, None] + gap
    near = (gap <= sum(_f_caps(shape, ell))) & (floor <= length_cap + 1e-9 * max(1.0, length_cap))
    tup, pat = np.nonzero(fits & near[:, patterns.chords])
    scan = patterns.scan[pat]
    left = left[tup, patterns.group[pat]]
    col = patterns.chords[pat]
    r_in = r_in[tup, col]
    r_out = r[tup, col] + r_in
    f_cols = [t for t, letter in enumerate(shape) if letter == "F"]
    f_dirs = [vec[tup, patterns.f_after[pat, i], t] * patterns.f_turn[pat, i]
              for i, t in enumerate(f_cols)]
    family = np.flatnonzero(scan >= 0)
    coeffs = _family_coeffs([e[family] for e in f_dirs], r_out[family], r_in[family],
                            list(patterns.f_inside[pat[family]].T))
    if len(coeffs) == 3:
        x1, x2, (d0, d1, d2) = coeffs
        n0, n1, n2 = (a - b for a, b in zip(x1, x2))
        # (N / D)' = 0  <=>  alpha sin t + beta cos t + gamma = 0
        roots, has_root = _trig_roots(n0 * d1 - n1 * d0, n2 * d0 - n0 * d2,
                                      n2 * d1 - n1 * d2)
    else:
        ((x0, xc, xs),) = coeffs
        roots, has_root = _trig_roots(xs, xc, x0)
    # rows with only the heading joint free (two F edges) are solved at t = 0;
    # a family root turns its scan joint by t and its heading joint by -t,
    # the only joints that can leave their bounds (the rest hold +-theta or 0)
    single = np.flatnonzero(scan < 0)
    rows, turns, heads = [single], [np.zeros(len(single))], [left[single]]
    left = left[family]
    for root in roots:
        t = _norm_arr(root)
        at = np.flatnonzero(has_root & (np.abs(t) <= th + 1e-12))
        h = _norm_arr(left[at] - root[at])
        live = np.abs(h) <= th + 1e-12
        rows.append(family[at[live]])
        turns.append(t[at[live]])
        heads.append(h[live])
    rows, turns = np.concatenate(rows), np.concatenate(turns)
    solved = pat[rows]
    joints = patterns.vals[solved]
    joints[np.arange(len(rows)), patterns.head[solved]] = np.concatenate(heads)
    turning = np.flatnonzero(scan[rows] >= 0)
    joints[turning, scan[rows[turning]]] = turns[turning]
    spin = np.exp(1j * turns)
    r = r_out[rows] - spin * r_in[rows]
    dirs = [np.where(m, spin * e[rows], e[rows])
            for e, m in zip(f_dirs, patterns.f_inside[solved].T)]
    sigmas, ks = sigma_batch[tup[rows]], ks_batch[tup[rows]]
    _, total, ok = _partial_closure(inst, shape, ks, joints, dirs, r, f_cols)
    ok &= total <= length_cap
    for i in np.flatnonzero(ok)[np.argsort(total[ok], kind="stable")]:
        # the row is built from its own direct closure
        one = slice(i, i + 1)
        psi, e, r, _ = _closure_terms(inst, shape, sigmas[one], ks[one], joints[one])
        lengths = (float(ln[0]) for ln in
                   _partial_closure(inst, shape, ks[one], joints[one], e, r, f_cols)[0])
        arcs = zip(sigmas[i].tolist(), ks[i].tolist())
        elements = []
        for t, letter in enumerate(shape):
            if letter == "A":
                s, k = next(arcs)
                elements.append(("arc", s, k, float(psi[0, t])))
            else:
                elements.append(("bridge", next(lengths), float(psi[0, t])))
        verts = _build_elements(inst, elements)
        path = inst.finish(verts)
        if path is not None:
            return (tuple(sigmas[i].tolist()), tuple(ks[i].tolist()), path,
                    dist(verts[-1], inst.V.point))
    return None


# ---------------------------------------------------------------------------
# enumeration

def _word_rows(n_arcs: int, dpsi: float, theta: float, slack: float, counts,
               ccc: bool, ell: float, cap: float):
    """Rows (sigmas, ks) of arc orientations and edge counts for a word over
    ``n_arcs`` arcs, orientation-major and then lexicographic.

    Every arc takes a count from ``counts``, and three arcs take only the CCC
    orientations when ``ccc`` is set.  The arcs' own turning must lie within
    ``slack`` of the heading change ``dpsi`` (mod 2 pi), so the last arc's
    count is read from that heading band, not from the full product; the
    arcs' edges must fit the length cap, sum(ks) * ell <= cap.  A one-edge
    arc has no turn of its own, so it keeps one orientation.
    """
    def product(values, repeat):
        rows = list(itertools.product(values, repeat=repeat))
        return np.array(rows, dtype=int).reshape(len(rows), repeat)

    orient = product((1, -1), n_arcs)
    if ccc and n_arcs == 3:
        orient = orient[(orient[:, 0] == -orient[:, 1]) & (orient[:, 1] == -orient[:, 2])]
    if not n_arcs:
        n = int(abs(_norm_arr(dpsi)) <= slack + 1e-9)
        return orient[:n], np.zeros((n, 0), dtype=int)
    head = product(counts, n_arcs - 1)
    head = head[(head.sum(axis=1) + 1) * ell <= cap]
    which = np.repeat(np.arange(len(orient)), len(head))
    ks, first = np.tile(head, (len(orient), 1)), orient[which, :-1]
    sigma = orient[which, -1:]
    turned = ((ks - 1) * first).sum(axis=1)[:, None]  # in steps of theta
    # the last arc turns sigma (k - 1) theta, within slack of what the
    # earlier arcs leave of dpsi; a step beyond the band on each side covers
    # the tolerance, and counts wrap mod n_sides
    n_sides = round(TWO_PI / theta)
    band = np.floor((sigma * (dpsi - turned * theta) - slack) / theta) + \
        np.arange(-1, int(2.0 * slack / theta) + 3)
    last = np.sort(band.astype(int) % n_sides + 1, axis=1)
    allowed = np.zeros(n_sides + 1, dtype=bool)
    allowed[list(counts)] = True
    keep = allowed[last]
    # a band wrapping the whole circle reads a count twice
    keep[:, 1:] &= last[:, 1:] != last[:, :-1]
    keep &= np.abs(_norm_arr(dpsi - (turned + sigma * (last - 1)) * theta)) <= slack + 1e-9
    keep &= (ks.sum(axis=1)[:, None] + last) * ell <= cap
    keep &= ~(np.any((ks == 1) & (first < 0), axis=1)[:, None] | ((last == 1) & (sigma < 0)))
    r, c = np.nonzero(keep)
    return orient[which[r]], np.column_stack([ks[r], last[r, c]])


def _guided_range(guess, theta: float, k_cap: int) -> list[int]:
    """Edge counts within a few steps of the smooth arc sweeps, plus the
    small counts (used on fine grids, where full enumeration is wasteful)."""
    if not guess:
        return list(range(1, k_cap + 1))
    ks = set(range(1, min(8, k_cap) + 1))
    for o, sweep in guess:
        if o == 0:
            continue
        center = int(sweep / theta)
        for k in range(center - 4, center + 6):
            if 1 <= k <= k_cap:
                ks.add(k)
    return sorted(ks)


def _dubins_seed(inst: _Instance) -> DiscretePath | None:
    """Scaled discretization of the smooth Dubins curve; always feasible
    (chords over arclength steps theta keep every constraint), so it both
    seeds the incumbent and guarantees the planned length never exceeds the
    discretized smooth length."""
    gamma, params = inst.dubins, inst.params
    if gamma is None or gamma.length <= params.theta * (1.0 + 1e-9):
        return None
    try:
        disc = _smooth.discretize(gamma, params.theta)
    except (ValueError, RuntimeError):
        return None
    verts = [scale(p, params.circumradius) for p in disc.vertices]
    verts[-1] = inst.V.point
    path = inst.finish(verts)
    if path is None:
        log.warning("dubins discretization seed failed validation; skipped")
    return path


def _smooth_guess(inst: _Instance):
    """Arc sweep estimates from the smooth solution, for guided enumeration."""
    if inst.dubins is None:
        return None
    return [(seg.orientation, seg.sweep) if isinstance(seg, _smooth.ArcSeg)
            else (0, seg.length) for seg in inst.dubins.segments]


def plan(U: Configuration, V: Configuration, params: Params,
         k_max: int | None = None) -> PlanResult:
    """Minimum-length feasible path over the candidate shapes of the module
    docstring.

    Candidate arcs are runs of full ell-edges, optionally carrying a partial
    first and last edge of length in (0, ell], overlapping a neighbour in a
    short edge, or joined to it by a bridge.  On fine grids (n_sides > 48)
    arc edge counts are limited to a few steps around the smooth Dubins
    solution's sweeps plus small counts, and three-arc shapes to the CCC
    orientations.  Ties are broken by shorter type word, then
    lexicographically.  A winner
    outside the typing domain or with a forbidden factor (the raw Dubins
    seed can be one) is polished with the rewriter.  The result always
    validates and carries a true type.  ``k_max`` must be at least 1: an arc
    has one edge or more, so a lower cap would leave no arc candidate.
    """
    if k_max is not None and k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    inst = _Instance(U, V, params)
    th, ell, tol_len = params.theta, params.ell, params.tol_len
    k_cap = params.n_sides - 1
    if k_max is not None:
        k_cap = min(k_cap, k_max)
    guided = params.n_sides > 48
    counts = (_guided_range(_smooth_guess(inst), th, k_cap) if guided
              else list(range(1, k_cap + 1)))
    dpsi = normalize_angle(inst.psi_v - inst.psi_u)
    diags: list[CandidateDiag] = []
    found: list[tuple[float, DiscretePath, str]] = []
    incumbent = math.inf

    def record(word, sigmas, ks, path, miss):
        nonlocal incumbent
        real = path_length(path)
        found.append((real, path, word))
        diags.append(CandidateDiag(word, sigmas, ks, "solved", real, miss))
        incumbent = min(incumbent, real)

    def push_rows(word, sigmas, ks):
        """Solve rows of one word at once, then finish them shortest first
        until one validates and every row tied with the incumbent is
        finished."""
        if not len(ks):
            return
        lengths, build = _ROW_SOLVERS[word](inst, sigmas, ks)
        for r in np.argsort(lengths, kind="stable").tolist():
            row = (word, tuple(sigmas[r].tolist()), tuple(ks[r].tolist()))
            length = float(lengths[r])
            if length == math.inf:
                diags.append(CandidateDiag(*row, "infeasible"))
            elif length > incumbent + 1e-9 * max(1.0, incumbent):
                diags.append(CandidateDiag(*row, "pruned", length))
            else:
                verts = build(r)
                path = inst.finish(verts)
                if path is None:
                    diags.append(CandidateDiag(*row, "failed", length))
                else:
                    record(*row, path, dist(verts[-1], V.point))

    seed = _dubins_seed(inst)
    if seed is not None:
        length = path_length(seed)
        incumbent = length
        found.append((length, seed, "(seed)"))
        diags.append(CandidateDiag("(seed)", (), (), "solved", length))

    # Every word's rows come from the heading band, pruned by the length
    # floor: the arcs' edges plus what their chords leave of the
    # displacement for the other edges, which must reach V (a bridge
    # reaches anywhere, F edges as far as ``_f_caps``).
    for word in itertools.chain(_ROW_SOLVERS, _PARTIAL_SHAPES):
        n_arcs = word.count("A")
        reach = math.inf if "B" in word else sum(_f_caps(word, ell))
        if inst.d > n_arcs * 2.0 * params.circumradius + reach + tol_len:
            continue  # out of reach for every edge count
        sigmas, ks = _word_rows(n_arcs, dpsi, th, (len(word) + 1) * th, counts, guided,
                                ell, incumbent + tol_len)
        chords = _chord(params, ks).sum(axis=1)
        near = inst.d <= chords + reach + tol_len
        sigmas, ks, chords = sigmas[near], ks[near], chords[near]
        if word in _ROW_SOLVERS:
            floors = ks.sum(axis=1) * ell + np.maximum(0.0, inst.d - chords)
            live = floors <= incumbent + tol_len
            push_rows(word, sigmas[live], ks[live])
            continue
        # partial-arc shapes: a finer floor, and batches of joint rows
        patterns = _joint_patterns(word, th)
        per_batch = patterns.per_batch
        gap = _chord_gap(inst, word, sigmas, ks)
        floors = ks.sum(axis=1) * ell + gap
        floors[gap > reach + tol_len] = math.inf
        # batches of the rows live now, each cut again by the incumbent of
        # its turn
        live = np.flatnonzero(floors <= incumbent + tol_len)
        for b0 in range(0, len(live), per_batch):
            batch = live[b0:b0 + per_batch]
            batch = batch[floors[batch] <= incumbent + tol_len]
            if not len(batch):
                continue
            got = _solve_partial(inst, word, sigmas[batch], ks[batch], patterns,
                                 incumbent + tol_len)
            if got is None:
                diags.append(CandidateDiag(word, tuple(sigmas[batch[0]].tolist()),
                                           tuple(ks[batch[0]].tolist()), "infeasible"))
            else:
                record(word, *got)

    if not found:
        raise PlannerError("no candidate solved; this instance needs investigation")

    found.sort(key=lambda t: t[0])
    best_len = found[0][0]
    tol = 1e-9 * max(1.0, best_len)
    # candidates outside the typing domain (the raw Dubins seed can be one)
    # type as None and sort after typed ties
    tied = [(length, path, type_or_none(path, params))
            for length, path, _ in found if length <= best_len + tol]

    def tie_key(entry):
        _, path, word = entry
        return (word is None, len(word or ""), word or "", len(path.vertices))

    rest = ((length, path, type_or_none(path, params))
            for length, path, _ in found if length > best_len + tol)
    for length, path, word in itertools.chain(sorted(tied, key=tie_key), rest):
        if _is_true(word):
            return PlanResult(best=path, type_word=word, length=length,
                              diagnostics=diags)
        # untypeable or not true-type (e.g. the raw seed won): polish with
        # the rewriter
        polished, _trace = shorten(path, params, budget=4000)
        pword = type_or_none(polished, params)
        plen = path_length(polished)
        if plen <= length + tol and _is_true(pword):
            return PlanResult(best=polished, type_word=pword, length=plen,
                              diagnostics=diags)
    raise PlannerError("no candidate produced a true-type feasible path")


def _is_true(word: str | None) -> bool:
    return word is not None and (word == "" or find_forbidden_subtype(word) is None)


# ---------------------------------------------------------------------------
# shooting map (diagnostic surface)

def forward_construct(spec: CandidateSpec, U: Configuration, V: Configuration,
                      params: Params) -> tuple[DiscretePath, tuple[float, float, float]]:
    """Build the polyline of a fully specified candidate and report how far
    its endpoint misses the target configuration (dx, dy, dheading)."""
    if spec.phis is None:
        raise ValueError("forward_construct needs explicit joint turns")
    psi = angle_of(U.heading)
    phis = list(spec.phis)
    verts = [U.point]
    arc_i = 0
    for letter in spec.word:
        phi = phis.pop(0)
        psi += phi
        if letter == "A":
            sigma = spec.orientations[arc_i]
            k = spec.ks[arc_i]
            arc_i += 1
            verts.extend(_arc_points(verts[-1], psi, sigma, k, params))
            psi += max(0, k - 1) * sigma * params.theta
        elif letter == "B":
            s = spec.s if spec.s is not None else 0.0
            if s > 0.0:
                verts.append(add(verts[-1], scale(from_angle(psi), s)))
        else:
            raise ValueError(f"unknown letter {letter!r} in word {spec.word!r}")
    psi += phis.pop(0)
    end = Configuration(verts[-1], from_angle(psi))
    path = DiscretePath(Configuration(U.point, U.heading), end, tuple(verts))
    res = (verts[-1][0] - V.point[0], verts[-1][1] - V.point[1],
           normalize_angle(psi - angle_of(V.heading)))
    return path, res


def solve_candidate(spec: CandidateSpec, U: Configuration, V: Configuration,
                    params: Params) -> DiscretePath | None:
    """Best feasible realization of one (word, orientations, ks) candidate."""
    if spec.word not in _ROW_SOLVERS:
        raise ValueError(f"not a true type word: {spec.word!r}")
    inst = _Instance(U, V, params)
    lengths, build = _ROW_SOLVERS[spec.word](
        inst, np.array([spec.orientations], dtype=int).reshape(1, -1),
        np.array([spec.ks], dtype=int).reshape(1, -1))
    return inst.finish(build(0)) if lengths[0] < math.inf else None


# ---------------------------------------------------------------------------
# independent check: randomized search

def oracle_search(U: Configuration, V: Configuration, params: Params,
                  budget: int = 4000, rng=None) -> DiscretePath:
    """Best path found by perturb-and-polish search; an independent check on
    the planner, never the primary answer."""
    rng = np.random.default_rng(rng)
    seeds: list[DiscretePath] = []
    r = params.circumradius
    for factor in (1.0, 1.12, 1.3):
        try:
            Us = Configuration(scale(U.point, 1.0 / (r * factor)), U.heading)
            Vs = Configuration(scale(V.point, 1.0 / (r * factor)), V.heading)
            gamma = _smooth.dubins_solve(Us, Vs)
            if gamma.length <= params.theta:
                continue
            disc = _smooth.discretize(gamma, params.theta)
            verts = [scale(p, r * factor) for p in disc.vertices]
            verts[0], verts[-1] = U.point, V.point
            dedup = [verts[0]]
            for p in verts[1:]:
                if dist(dedup[-1], p) > 10.0 * params.tol_dedup:
                    dedup.append(p)
            dedup[-1] = V.point
            path = DiscretePath(U, V, tuple(dedup))
            if not validate(path, params):
                seeds.append(path)
        except (ValueError, RuntimeError):
            continue
    if not seeds:
        straight = DiscretePath(U, V, (U.point, V.point))
        if not validate(straight, params):
            seeds.append(straight)
    if not seeds:
        raise PlannerError("oracle could not build any feasible seed")

    per = max(200, budget // (2 * len(seeds) + 6))
    best = None
    best_len = math.inf
    for s in seeds:
        polished, _ = shorten(s, params, budget=per)
        ln = path_length(polished)
        if ln < best_len:
            best, best_len = polished, ln

    for _ in range(6):
        sigma = params.ell * rng.uniform(0.01, 0.08)
        verts = list(best.vertices)
        for i in range(1, len(verts) - 1):
            verts[i] = (verts[i][0] + rng.normal(0.0, sigma),
                        verts[i][1] + rng.normal(0.0, sigma))
        try:
            jittered = best.with_vertices(verts)
        except ValueError:
            continue
        if validate(jittered, params):
            continue
        polished, _ = shorten(jittered, params, budget=per)
        ln = path_length(polished)
        if ln < best_len:
            best, best_len = polished, ln
    # the per-seed budget can stop short of a fixed point
    return shorten(best, params)[0]
