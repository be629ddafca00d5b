"""Exact arc-bridge rows: the per-row reference for the words AB, BA and ABA.

``plan`` solves these words as the partial-arc shapes AF, FA and AFA, whose
joint patterns hold all but two joints at a turn bound.  The constructions
here minimize the bridge over every pair of end turns instead, under the
four turn bounds alone, so they give each row's exact shortest realization
under those bounds; the tests compare the planner against them.  The rule
on a short bridge's turns is not applied, so a row's optimum need not
validate.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ddgeo.geometry import Point2, scale
from ddgeo.model import Configuration, Params
from ddgeo.planner import _build_elements, _chord, _Instance, _turns_ok


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


def aba_rows(inst: _Instance, sigmas, ks):
    """Shortest arc-bridge-arc realization of each row of ``sigmas`` and
    ``ks`` (rows x 2): the bridge length (inf where no realization keeps
    every turn within theta), arc 1's first edge direction, the bridge
    direction and arc 2's first edge direction.

    Where the two arcs can meet, bridges shrinking toward the meeting point
    may stay feasible: the infimum 0 is not attained, and the shortest
    stationary bridge is returned.  A short bridge must turn by at most
    theta across it, so such paths tend to AA paths, which the planner's
    ``_solve_arcs`` finds exactly."""
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


def ab_rows(inst: _Instance, sigmas, ks):
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


def solve_aba(inst: _Instance, sigmas, ks):
    """Arc, bridge, arc, with the shortest bridge of ``aba_rows``."""
    s, psi1, psi_b, psi2 = aba_rows(inst, sigmas, ks)

    def build(r: int) -> list[Point2]:
        (s1, s2), (k1, k2) = sigmas[r].tolist(), ks[r].tolist()
        return _build_elements(inst, [("arc", s1, k1, float(psi1[r])),
                                      ("bridge", float(s[r]), float(psi_b[r])),
                                      ("arc", s2, k2, float(psi2[r]))])

    return ks.sum(axis=1) * inst.params.ell + s, build


def solve_ab(inst: _Instance, sigmas, ks, reverse: bool):
    """Arc then bridge (``ab_rows``) when reverse is False; bridge then arc
    when True, solved as AB on the reversed instance, where the arc turns
    the other way."""
    work = inst if not reverse else _Instance(
        Configuration(inst.V.point, scale(inst.V.heading, -1.0)),
        Configuration(inst.U.point, scale(inst.U.heading, -1.0)),
        inst.params)
    (sigma,), (k,) = sigmas.T, ks.T
    if reverse:
        sigma = -sigma
    s, psi1, psi_b = ab_rows(work, sigma, k)

    def build(r: int) -> list[Point2]:
        verts = _build_elements(work, [("arc", int(sigma[r]), int(k[r]), float(psi1[r])),
                                       ("bridge", float(s[r]), float(psi_b[r]))])
        return [inst.U.point] + verts[::-1][1:] if reverse else verts

    return k * inst.params.ell + s, build


# the reference row solvers by word, under the planner's row-solver contract
SOLVERS = {
    "AB": functools.partial(solve_ab, reverse=False),
    "BA": functools.partial(solve_ab, reverse=True),
    "ABA": solve_aba,
}
