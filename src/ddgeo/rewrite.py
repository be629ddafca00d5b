"""Local shortening and restructuring moves on feasible paths.

Every move is a one-parameter family of candidate vertex lists in a step d.
The step harness ``_attempt`` checks full feasibility of a trial step with
one ``model.measure`` pass, and probes one exact step, with no sampled
search: the family's best step.  Translation families never lengthen the
path as d grows, so theirs is the largest step; rotation families have one
interior minimum, their event (the closest approach, in closed form), so
theirs is that event when it lies in range.  Only when that probe fails does
a search below it find the boundary step where a turn reaches the cap.
Every move that translates or turns a vertex block rigidly is built by the
block slide (``_block_slide_attempt``) or the block turn
(``_block_turn_attempt``), whose builders carry the block's motion, so they
give that boundary in closed form (``_cap_step``) and it costs one probe; a
bisection from 0 finds it only when that probe is rejected or the move gives
no motion.  When the feasible steps form an interval, the probed step or
its boundary is the family's best feasible step; when they do not, the
boundary step is the upper edge of an interval the search reached.  Applied
moves strictly decrease (length, type length) lexicographically, so repeated
application drives a path toward a fixed point whose type word carries no
forbidden factor.

The moves sit in one ordered table, ``_MOVES``: per rule kind, a site
generator and one attempt.  ``find_applicable`` and ``shorten`` take the
first site whose attempt succeeds; ``apply`` runs the same attempt at a
given site.  A probe returns the frame (``structure._Frame``) of the
``measure`` pass that accepted its candidate, and the path travels with
that frame, so ``shorten`` walks each path once: the move contexts, the
turn cap, its structure and the trace all read that frame (the length is
its ``total``), and canonicalizing measures again only when it inserts a
cut.

Move catalogue (structure-rule locations refer to the canonicalized path):

* LONG_LONG_SHORTCUT   -- cut the corner between two adjacent long edges.
* LONG_SHORT_SLIDE     -- slide the shared vertex of a long/short pair into
                          the long edge.
* INFLECTION_ROTATE    -- slide an inflection-edge endpoint along a
                          non-normal neighbor edge, or bypass the vertex
                          between two adjacent inflection edges.
* TWO_INFLECTION_SLIDE -- slide the subpath between two similar-turn
                          inflection edges along one of them.
* INFLECTION_SLIDE     -- slide the subpath between an inflection edge and a
                          bridge along the inflection edge.
* LONG_BREAK_SLIDE     -- slide the subpath between a long edge and an
                          inflection/long partner: reconnect directly, or
                          else break the long edge.
* BRIDGE_TRANSLATE     -- slide the subpath between a bridge and a long edge
                          or a second (non-similar) bridge.
* AAB_ELIM             -- rotate the arc of an arc-arc-bridge pattern about
                          the shared arc vertex, shortening the bridge; when
                          the two arcs overlap, slide the arc next to the
                          bridge back along the edge into its first turn.
* AAAA_TO_AAA          -- reduce a run of four arcs: an equal-length
                          three-rotation family merges two arcs, with trio
                          slide fallbacks when the run contains an
                          inflection or long edge.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .geometry import (
    DegenerateGeometryError,
    Point2,
    Vec2,
    add,
    circle_circle_intersection,
    cross,
    dist,
    dot,
    rotate,
    rotate_about,
    scale,
    sub,
    turn_angle,
    unit,
)
from .model import (
    TOL_ANG,
    DiscretePath,
    EdgeClass,
    Params,
    edge_lengths,
    measure,
    reverse,
    transform,
    turns_inflect,
    validate,  # noqa: F401 -- bench/tracing.py wraps rewrite.validate
    vertex_turns,
)
# bench/tracing.py wraps canonicalize, structure_of and type_or_none here
from .structure import (  # noqa: F401
    InternalInconsistencyError,
    PathStructure,
    _canonical,
    _Frame,
    _structure,
    _typed,
    canonicalize,
    structure_of,
    type_or_none,
)

STEP_MIN_FRACTION = 1e-10  # floor of the boundary search, as a fraction of ell
IMPROVE_FRACTION = 1e-10   # minimal accepted gain, as a fraction of ell
# Corners this flat between uncovered (short/long) edges are removed outright:
# the slide rules' gains fall below IMPROVE_FRACTION there, but the corner
# would keep the uncovered stretch from being straight.
COLLAPSE_TOL = 1e-4


class RuleKind(Enum):
    LONG_LONG_SHORTCUT = "long_long_shortcut"
    LONG_SHORT_SLIDE = "long_short_slide"
    INFLECTION_ROTATE = "inflection_rotate"
    INFLECTION_SLIDE = "inflection_slide"
    LONG_BREAK_SLIDE = "long_break_slide"
    TWO_INFLECTION_SLIDE = "two_inflection_slide"
    BRIDGE_TRANSLATE = "bridge_translate"
    AAB_ELIM = "aab_elim"
    AAAA_TO_AAA = "aaaa_to_aaa"


@dataclass(frozen=True)
class RewriteRule:
    kind: RuleKind
    step: float


class RuleNotApplicableError(ValueError):
    """The rule cannot be applied at the given location."""


@dataclass
class TraceEntry:
    rule: RewriteRule
    location: tuple
    length_before: float
    length_after: float
    type_before: str | None
    type_after: str | None


@dataclass
class RewriteTrace:
    entries: list[TraceEntry] = field(default_factory=list)
    budget_exhausted: bool = False


# ---------------------------------------------------------------------------
# step harness
#
# A path travels with its ``_Frame``: the edge lengths and vertex turns of the
# ``measure`` pass that accepted it, which ``_eval_step`` returns.  Moves, the
# trace and the structure all read them there, so each path is walked once.

def _drop_vertex(base: _Frame, i: int) -> _Frame | None:
    """The frame of the path without vertex i, or None if that is
    infeasible."""
    verts = base.path.vertices
    return _eval_step(base.path, base.params, lambda _d: verts[:i] + verts[i + 1:], 0.0)


def _tidy(frame: _Frame) -> _Frame:
    """Drop zero-turn internal vertices, one at a time, keeping only drops
    that leave the path feasible."""
    cur = frame
    changed = True
    while changed and len(cur.path.vertices) > 2:
        changed = False
        for i in range(1, len(cur.path.vertices) - 1):
            if abs(cur.turns[i]) > TOL_ANG:
                continue
            got = _drop_vertex(cur, i)
            if got is None:
                continue
            cur, changed = got, True
            break
    return cur


def _turn_cap(base: _Frame) -> float:
    """Margin cap for boundary-landed steps: slightly inside the validator's
    tolerance, but never below what the input path already carries (so that
    paths born at the tolerance edge can still be rewritten)."""
    worst = max(abs(t) for t in base.turns)
    return max(base.params.theta + 0.4 * TOL_ANG, worst + 0.05 * TOL_ANG)


def _eval_step(base_path: DiscretePath, params: Params, builder, d: float,
               cap: float | None = None) -> _Frame | None:
    """The frame of the candidate path for one step, or None if infeasible.

    One ``measure`` pass gives the violations, the turns for the cap and the
    edge lengths; the frame keeps them, and its ``total`` is the length.
    With ``cap`` the turn bound is tightened slightly below the validator's
    tolerance, so that boundary-landed steps survive the float drift of
    later re-derivations (canonicalization splits edges and recomputes the
    same turns from different vectors).
    """
    verts = builder(d)
    if verts is None:
        return None
    try:
        cand = base_path.with_vertices(verts)
        lengths, turns, violations = measure(cand, params)
    except ValueError:
        return None
    if violations:
        return None
    if cap is not None and any(abs(t) > cap for t in turns):
        return None
    return _Frame(cand, params, lengths, turns)


class _Motion(NamedTuple):
    """How a move's candidate vertices follow the step d, for d < ``until``.

    In the builder's vertex list, the block lo..hi-1 translates by d*u, or,
    when ``pivot`` is given, turns by sign*d about it; the other vertices
    stay put.  A move that has one hangs it on its builder as
    ``builder.motion``.
    """

    lo: int
    hi: int
    u: Vec2 = (0.0, 0.0)
    pivot: Point2 | None = None
    sign: float = 1.0
    until: float = math.inf


def _edge_forms(motion: _Motion, verts: list, base_path: DiscretePath, i: int):
    """The edges into and out of vertex i of ``verts`` (the builder's list at
    d = 0) as (alpha, beta) pairs: the edge is beta + d*alpha for a
    translation and R(sign*d) alpha + beta for a turn.  The start and end
    headings stand in for the pre/post-edges."""
    lo, hi, pivot = motion.lo, motion.hi, motion.pivot

    def place(j):  # vertex j in the same form
        if not lo <= j < hi:
            return (0.0, 0.0), verts[j]
        if pivot is None:
            return motion.u, verts[j]
        return sub(verts[j], pivot), pivot

    def edge(j):
        (aj, bj), (ak, bk) = place(j), place(j + 1)
        return sub(ak, aj), sub(bk, bj)

    into = ((0.0, 0.0), base_path.start.heading) if i == 0 else edge(i - 1)
    out = ((0.0, 0.0), base_path.end.heading) if i == len(verts) - 1 else edge(i)
    return into, out


class _Corner(NamedTuple):
    """A corner of the moving block: the (alpha, beta) forms of its edges,
    the coefficients of their cross and dot products (of 1, d, d^2 for a
    translation, of 1, cos(phi), sin(phi) for a turn by phi = sign*d), the
    largest coordinate its probed turn is computed from at d = 0, and
    whether its edge into and out of it is the start or end heading."""

    into: tuple
    out: tuple
    crosses: tuple
    dots: tuple
    size: float
    headings: tuple


def _corners(motion: _Motion, base_path: DiscretePath, verts: list) -> list[_Corner]:
    """The corners of the moving block in ``verts``, the builder's list at
    d = 0: the only vertices whose turn changes with the step."""
    pivot = motion.pivot
    out = []
    for i in {motion.lo - 1, motion.lo, motion.hi - 1, motion.hi}:
        if not 0 <= i < len(verts):
            continue
        (aa, ba), (ab, bb) = forms = _edge_forms(motion, verts, base_path, i)
        c_aa, c_ab, c_ba, c_bb = cross(aa, ab), cross(aa, bb), cross(ba, ab), cross(ba, bb)
        k_aa, k_ab, k_ba, k_bb = dot(aa, ab), dot(aa, bb), dot(ba, ab), dot(ba, bb)
        if pivot is None:
            crosses, dots = (c_bb, c_ab + c_ba, c_aa), (k_bb, k_ab + k_ba, k_aa)
            size = 0.0
        else:
            crosses = (c_aa + c_bb, c_ab + c_ba, k_ba - k_ab)
            dots = (k_aa + k_bb, k_ab + k_ba, c_ab - c_ba)
            size = max(abs(pivot[0]), abs(pivot[1]))
        # the coordinates' size sets the rounding error of the probed turn
        for p in verts[max(i - 1, 0):i + 2]:
            size = max(size, abs(p[0]), abs(p[1]))
        out.append(_Corner(*forms, crosses, dots, size, (i == 0, i == len(verts) - 1)))
    return out


def _edges_at(motion: _Motion, corner: _Corner, d: float):
    """The corner's edges into and out of it at step d."""
    (aa, ba), (ab, bb) = corner.into, corner.out
    if motion.pivot is None:
        return add(ba, scale(aa, d)), add(bb, scale(ab, d))
    return add(rotate(aa, motion.sign * d), ba), add(rotate(ab, motion.sign * d), bb)


def _turn_noise(size: float, la: float, lb: float) -> float:
    """The rounding error a ``measure`` pass may make in the turn between
    edges of lengths la and lb whose vertices' coordinates are at most
    ``size``."""
    return 2.0 * sys.float_info.epsilon * (size * (1.0 / la + 1.0 / lb) + 1.0)


def _cap_step(motion: _Motion, base_path: DiscretePath, verts: list,
              bound: float, d_hi: float) -> float | None:
    """The step in [0, min(d_hi, until)) at which a turn at a corner of the
    moving block first leaves [-bound, bound], or None.

    ``verts`` is the builder's list at d = 0.  The turn t = atan2(cross, dot)
    of edges a, b equals s*bound (s = +-1) where
    g = cross*cos(bound) - s*dot*sin(bound) = |a||b| sin(t - s*bound)
    vanishes and dot*cos(bound) + s*cross*sin(bound) > 0; it leaves the band
    there when s*g rises.  Written this way the test also holds for bounds
    past pi/2 (n = 4).  A translation makes g a quadratic in d, a turn makes
    it g0 + gc cos(phi) + gs sin(phi) in phi = sign*d.  Each root is pulled
    back by the step that moves its turn by the rounding error a ``measure``
    pass may make in it, so that the probe of the step is not rejected by
    rounding.
    """
    cb, sb = math.cos(bound), math.sin(bound)
    d_hi = min(d_hi, motion.until)
    best = None
    for corner in _corners(motion, base_path, verts):
        for s in (1.0, -1.0):
            g = [c * cb - s * k * sb for c, k in zip(corner.crosses, corner.dots)]
            roots = (_poly_roots(g) if motion.pivot is None
                     else _trig_roots(g, motion.sign))
            for d, rise in roots:
                if not (0.0 < d < d_hi and s * rise > 0.0):
                    continue
                ea, eb = _edges_at(motion, corner, d)
                if dot(ea, eb) * cb + s * cross(ea, eb) * sb <= 0.0:
                    continue
                la, lb = math.hypot(*ea), math.hypot(*eb)
                # a boundary heading is exact: it adds no coordinate rounding
                into, out = corner.headings
                noise = _turn_noise(corner.size, math.inf if into else la,
                                    math.inf if out else lb)
                d = max(0.0, d - noise * la * lb / abs(rise))
                if best is None or d < best:
                    best = d
    return best


def _poly_roots(g) -> list[tuple[float, float]]:
    """(root, slope) of g0 + g1 x + g2 x^2, without the cancellation of the
    textbook formula."""
    g0, g1, g2 = g
    if g2 == 0.0:
        return [(-g0 / g1, g1)] if g1 != 0.0 else []
    disc = g1 * g1 - 4.0 * g2 * g0
    if disc < 0.0:
        return []
    q = -0.5 * (g1 + math.copysign(math.sqrt(disc), g1))
    roots = [q / g2, g0 / q] if q != 0.0 else [0.0]
    return [(x, 2.0 * g2 * x + g1) for x in roots]


def _trig_roots(g, sign: float) -> list[tuple[float, float]]:
    """(d, slope in d) for d in [0, 2 pi) of g0 + gc cos(phi) + gs sin(phi)
    with phi = sign*d."""
    g0, gc, gs = g
    rho = math.hypot(gc, gs)
    if rho == 0.0 or abs(g0) > rho:
        return []
    psi, half = math.atan2(gs, gc), math.acos(-g0 / rho)
    out = []
    for phi in (psi - half, psi + half):
        d = (sign * phi) % (2.0 * math.pi)
        phi = sign * d
        out.append((d, sign * (gs * math.cos(phi) - gc * math.sin(phi))))
    return out


def _bisect(probe, lo: float, at_lo, hi: float, floor: float = 0.0):
    """Bisect from a step ``lo`` toward a step ``hi`` that ``probe``
    rejects, until the midpoint rounds to an end; returns the last accepted
    (step, result).  ``at_lo`` is ``probe``'s result at lo, or None when lo
    is not known to be accepted: then the search gives up, returning
    (lo, None), once hi falls below ``floor`` with nothing accepted."""
    while at_lo is not None or hi >= floor:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        got = probe(mid)
        if got is None:
            hi = mid
        else:
            lo, at_lo = mid, got
    return lo, at_lo


def _attempt(base: _Frame, builder, d_max: float, events=()):
    """Find the best feasible improving step of a move on the path of frame
    ``base``, with one probe when that step passes.

    The family's best step is its event in (0, d_max] when it has one (a
    rotation's closest approach), else d_max: a translation family never
    lengthens the path as d grows and a rotation family has its one
    interior minimum at its event, so no sampled search is needed.  Only
    when that step fails does ``_boundary`` search below it for the step
    where a turn reaches the cap.  Returns (frame of the new path, used
    step) or None.
    """
    if d_max <= 0.0:
        return None
    probe = functools.partial(_eval_step, base.path, base.params, builder)
    step = next((d for d in events if 0.0 < d <= d_max), d_max)
    got = probe(step)
    if got is None:
        step, got = _boundary(base, builder, probe, step)
    if got is None or got.total > base.total - IMPROVE_FRACTION * base.params.ell:
        return None
    return _tidy(got), step


def _boundary(base: _Frame, builder, probe, top: float):
    """(step, probe result) at the turn cap's boundary below ``top``, the
    best step that failed, searched once from 0, or (0.0, None) when
    nothing above the floor passes.

    When the builder carries a ``_Motion`` (the builders of the block slide
    and the block turn), the step is the closed-form first turn exit
    (``_cap_step``), probed once under the cap.  Without a motion, or when
    that probe is rejected (a non-turn constraint binds first), bisection
    from 0 toward that step finds it; it gives up below STEP_MIN_FRACTION *
    ell.  The cap keeps the step a margin inside the tolerance.
    """
    cap = _turn_cap(base)
    motion = getattr(builder, "motion", None)
    step = None if motion is None else _cap_step(
        motion, base.path, builder(0.0), min(cap, base.params.theta + TOL_ANG), top)
    if step is not None and (got := probe(step, cap)) is not None:
        return step, got
    return _bisect(lambda d: probe(d, cap), 0.0, None, top if step is None else step,
                   STEP_MIN_FRACTION * base.params.ell)


def _rotation_events(x: Point2, centre: Point2, y: Point2,
                     sign: float) -> list[float]:
    """The step d > 0 at which x, turned by sign*d about centre, lies on the
    ray from centre to y: there the edge x-y is shortest."""
    try:
        d = sign * turn_angle(sub(x, centre), sub(y, centre))
    except DegenerateGeometryError:
        return []
    return [d] if d > 0.0 else []


def _ell_cross_events(moving: Point2, direction, fixed: Point2,
                      ell: float) -> list[float]:
    """Steps d > 0 at which |(moving + d*direction) - fixed| equals ell."""
    ax, ay = moving[0] - fixed[0], moving[1] - fixed[1]
    b = 2.0 * (ax * direction[0] + ay * direction[1])
    c = ax * ax + ay * ay - ell * ell
    disc = b * b - 4.0 * c
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    return [d for d in ((-b - sq) / 2.0, (-b + sq) / 2.0) if d > 0.0]


def _shift_block(verts: list, lo: int, hi: int, t) -> list[Point2]:
    """The vertex list with vertices lo..hi-1 translated by t."""
    return verts[:lo] + [add(p, t) for p in verts[lo:hi]] + verts[hi:]


def _rotate_block(verts: list, lo: int, hi: int, pivot: Point2,
                  angle: float) -> list[Point2]:
    """The vertex list with vertices lo..hi-1 rotated by angle about pivot."""
    return verts[:lo] + [rotate_about(p, pivot, angle) for p in verts[lo:hi]] + verts[hi:]


# ---------------------------------------------------------------------------
# local edge rules (raw path)
#
# Site generators yield (kind, location); an attempt takes the context and a
# location and returns (frame of the new path, step, *outcome) or None, where
# outcome (AAAA only) is appended to the reported location.

class _Ctx:
    """A path's frame with the per-edge reads of the local rules."""

    def __init__(self, frame: _Frame):
        self.frame = frame
        self.path = frame.path
        self.params = frame.params
        self.verts = list(self.path.vertices)
        self.lens = frame.lengths
        self.classes = frame.classes
        self.turns = frame.turns
        self.infl = [turns_inflect(self.turns[j], self.turns[j + 1])
                     for j in range(len(self.lens))]

    @functools.cached_property
    def dirs(self) -> list[Vec2]:
        """Unit edge directions, built on first read: only the long-long
        shortcut and the block moves read them."""
        return [unit(sub(self.verts[i + 1], self.verts[i]))
                for i in range(len(self.verts) - 1)]


def _collapse_sites(ctx: _Ctx):
    """Near-flat corners whose removal completes a stalled slide.

    A corner qualifies when the turn is tiny, or when the corner rules have
    run out of room (the adjacent edges sit within a hair of length ell, so
    shortcut and slide gains fall below the improvement threshold).
    Normal-normal corners are left alone: both the bent and the straightened
    reading are fine, and removing the corner would destroy two exact arc
    edges for nothing.
    """
    for j in range(len(ctx.classes) - 1):
        t = abs(ctx.turns[j + 1])
        if t <= TOL_ANG:
            continue
        pair = (ctx.classes[j], ctx.classes[j + 1])
        if pair == (EdgeClass.NORMAL, EdgeClass.NORMAL):
            continue
        stalled = False
        if t <= COLLAPSE_TOL:
            stalled = True
        elif t <= 0.15 and EdgeClass.NORMAL not in pair:
            slack = min(ln - ctx.params.ell for ln, c in
                        ((ctx.lens[j], ctx.classes[j]),
                         (ctx.lens[j + 1], ctx.classes[j + 1]))
                        if c is EdgeClass.LONG)
            stalled = slack <= 1e-3 * ctx.params.ell
        if not stalled:
            continue
        if pair == (EdgeClass.LONG, EdgeClass.LONG):
            yield RuleKind.LONG_LONG_SHORTCUT, (j, "collapse")
        else:
            yield RuleKind.LONG_SHORT_SLIDE, (j, "collapse")


def _collapse_attempt(ctx: _Ctx, loc):
    """Remove the near-flat vertex j+1; never lengthens, strictly flattens."""
    j = loc[0]
    got = _drop_vertex(ctx.frame, j + 1)
    if got is None:
        return None
    base = ctx.frame.total
    if got.total > base + 1e-15 * max(1.0, base):
        return None
    return _tidy(got), abs(ctx.turns[j + 1])


def _long_long_sites(ctx: _Ctx):
    for j in range(len(ctx.classes) - 1):
        if (ctx.classes[j] is EdgeClass.LONG
                and ctx.classes[j + 1] is EdgeClass.LONG
                and abs(ctx.turns[j + 1]) > 1e-12):
            yield RuleKind.LONG_LONG_SHORTCUT, (j,)


def _long_long_attempt(ctx: _Ctx, loc):
    (j,) = loc
    params = ctx.params
    d_max = min(ctx.lens[j] - params.ell, ctx.lens[j + 1] - params.ell,
                0.49 * params.ell)
    verts = ctx.verts

    def builder(d):
        a2 = add(verts[j + 1], scale(ctx.dirs[j], -d))
        c2 = add(verts[j + 1], scale(ctx.dirs[j + 1], d))
        return verts[:j + 1] + [a2, c2] + verts[j + 2:]

    # no event lies below d_max: the connector a2-c2 reaches ell at
    # d = ell / (2 cos(turn/2)) >= ell / 2, and each edge reaches ell at its
    # own lens - ell >= d_max
    return _attempt(ctx.frame, builder, d_max)


def _long_short_sites(ctx: _Ctx):
    for j in range(len(ctx.classes) - 1):
        if abs(ctx.turns[j + 1]) <= 1e-12:
            continue
        if ctx.classes[j] is EdgeClass.LONG and ctx.classes[j + 1] is EdgeClass.SHORT:
            yield RuleKind.LONG_SHORT_SLIDE, (j, 0)
        if ctx.classes[j] is EdgeClass.SHORT and ctx.classes[j + 1] is EdgeClass.LONG:
            yield RuleKind.LONG_SHORT_SLIDE, (j, 1)


def _long_short_attempt(ctx: _Ctx, loc):
    """Slide the shared vertex of a long/short pair into the long edge: the
    block slide of that one vertex with the long edge as its source."""
    j, side = loc
    return _block_slide_attempt(ctx, (j, j + 1, "direct") if side == 0 else (j + 1, j, "direct"))


def _inflection_rotate_sites(ctx: _Ctx):
    n_edges = len(ctx.lens)
    for j in range(n_edges):
        if not ctx.infl[j]:
            continue
        if j + 1 < n_edges and ctx.classes[j + 1] is not EdgeClass.NORMAL:
            yield RuleKind.INFLECTION_ROTATE, (j, +1)
        if j - 1 >= 0 and ctx.classes[j - 1] is not EdgeClass.NORMAL:
            yield RuleKind.INFLECTION_ROTATE, (j, -1)
        if j + 1 < n_edges and ctx.infl[j + 1]:
            yield RuleKind.INFLECTION_ROTATE, (j, 0)  # bypass the shared vertex


def _inflection_rotate_attempt(ctx: _Ctx, loc):
    """Mode +-1: slide the endpoint of inflection edge j along its
    non-normal neighbour j + mode, the block slide of that one vertex with
    the neighbour as its source.  Mode 0: bypass the vertex shared with the
    next inflection edge."""
    j, mode = loc
    if mode:
        return _block_slide_attempt(ctx, (j + mode, j, "direct"))
    got = _drop_vertex(ctx.frame, j + 1)
    if got is not None and got.total <= ctx.frame.total - IMPROVE_FRACTION * ctx.params.ell:
        return _tidy(got), 1.0
    return None


# ---------------------------------------------------------------------------
# canonical structure context

class _Struct(_Ctx):
    """Canonicalized path with its decomposition and free-site indices, all
    read off the path's frame and its structure ``st``."""

    def __init__(self, frame: _Frame, st: PathStructure):
        super().__init__(frame)
        self.st = st
        self.infl_edges = [j for j, flag in enumerate(self.infl) if flag]
        self.longs = [j for j, c in enumerate(self.classes) if c is EdgeClass.LONG]
        self.vertex_s = frame.vertex_s
        self.bridges = []
        tol = 1e-6 * max(1.0, self.params.ell)
        for b in self.st.bridges:
            for j in range(len(self.lens)):
                if (abs(self.vertex_s[j] - b.start_s) <= tol
                        and abs(self.vertex_s[j + 1] - b.end_s) <= tol):
                    self.bridges.append(j)
                    break

    def vertex_at_s(self, s: float) -> int | None:
        """The first vertex within 1e-6 ell (at least 1e-6) of arclength s,
        or None.  ``vertex_s`` is strictly increasing."""
        tol = 1e-6 * max(1.0, self.params.ell)
        for i in range(max(bisect.bisect_left(self.vertex_s, s - tol) - 1, 0),
                       len(self.vertex_s)):
            gap = self.vertex_s[i] - s
            if abs(gap) <= tol:
                return i
            if gap > tol:
                break
        return None

    def elements(self):
        labeled = ([("A", i, a.start_s, a.end_s) for i, a in enumerate(self.st.arcs)]
                   + [("B", i, b.start_s, b.end_s) for i, b in enumerate(self.st.bridges)])
        labeled.sort(key=lambda t: (t[2], t[3]))
        return labeled

    def arc_runs(self):
        return [[i for _kind, i, *_ in run] for is_arc, run in
                itertools.groupby(self.elements(), key=lambda e: e[0] == "A") if is_arc]


def _make_struct(frame: _Frame, st: PathStructure | None = None) -> _Struct | None:
    """The canonical context of a feasible path, from its frame.  ``st``,
    the frame's structure when known, gives the cuts; it is the canonical
    path's structure too when every cut is already a vertex."""
    try:
        canon = _canonical(frame.path, frame.params, frame, None if st is None else st.arcs)
        if st is None or len(canon.path.vertices) != len(frame.path.vertices):
            st = _structure(canon)
        return _Struct(canon, st)
    except (InternalInconsistencyError, ValueError):
        return None


# ---------------------------------------------------------------------------
# rigid block moves: a slide between two edges, or a turn about a vertex

def _block_slide_attempt(ctx: _Ctx, loc):
    """Translate the subpath between two edges along the source edge
    (shrinking it), reconnecting at the sink edge either directly or by
    breaking the sink at distance ell from one of its ends.

    Every rule reconnects directly; the long-break slide tries that first,
    then breaks its long sink ell from the block, the break vertex moving
    with it (``"break_moving"``), or ell from the sink's fixed end
    (``"break_anchor"``).
    The block is the vertices between the two edges: for adjacent edges,
    the one vertex they share, which is how the local long/short and
    inflection-endpoint slides run.  The AAB overlap slide and the trio
    slide's translation along its target edge are block slides too.  A long
    source shrinks to ell; any other is consumed at a step equal to its
    length, where its endpoints merge.  The builder carries the block's
    ``_Motion``.
    """
    src_edge, sink_edge, mode = loc
    verts = ctx.verts
    ell = ctx.params.ell
    if src_edge < sink_edge:
        lo, hi = src_edge + 1, sink_edge + 1
        t_dir = unit(sub(verts[src_edge], verts[src_edge + 1]))
        anchor, moving = sink_edge + 1, sink_edge
        src_gone = src_edge + 1
    else:
        lo, hi = sink_edge + 1, src_edge + 1
        t_dir = unit(sub(verts[src_edge + 1], verts[src_edge]))
        anchor, moving = sink_edge, sink_edge + 1
        src_gone = src_edge
    sink_len = ctx.lens[sink_edge]
    src_len = ctx.lens[src_edge]
    to_anchor = unit(sub(verts[anchor], verts[moving]))
    merge_at = src_len - 20.0 * ctx.params.tol_dedup

    if mode != "direct" and sink_len <= ell:
        return None
    moving_break = add(verts[moving], scale(to_anchor, ell))
    anchor_break = add(verts[anchor], scale(to_anchor, -ell))

    def builder(d):
        t = scale(t_dir, d)
        out = _shift_block(verts, lo, hi, t)
        at = sink_edge + 1  # a break vertex follows the sink's first vertex
        if d >= merge_at:
            # source edge fully consumed: its endpoints merge, and a break
            # vertex that would follow the merged-away vertex goes with it
            del out[src_gone]
            if src_gone == sink_edge:
                return out
            at -= src_gone < at
        if mode == "break_moving":
            out.insert(at, add(moving_break, t))
        elif mode == "break_anchor":
            out.insert(at, anchor_break)
        return out

    # the block in the built list: a moving break vertex joins it, an anchor
    # break vertex inserted before it shifts it
    if mode == "break_moving":
        builder.motion = _Motion(lo, hi + 1, t_dir, until=merge_at)
    elif mode == "break_anchor" and src_edge > sink_edge:
        builder.motion = _Motion(lo + 1, hi + 1, t_dir, until=merge_at)
    else:
        builder.motion = _Motion(lo, hi, t_dir, until=merge_at)
    # no events: the slide never lengthens the path as the step grows, so
    # its best step is the largest; where an ell crossing splits its
    # feasible steps, the boundary search takes the interval from 0
    cap = src_len - ell if ctx.classes[src_edge] is EdgeClass.LONG else src_len
    return _attempt(ctx.frame, builder, cap)


def _block_turn_attempt(frame: _Frame, lo: int, hi: int, pivot: int, sign: float,
                        d_max: float):
    """Turn the block of vertices lo..hi-1 by sign*d about the vertex
    ``pivot`` next to it (lo - 1 or hi): the AAB rotation and the trio
    slide's rotation about its junction.

    The edge from the pivot into the block keeps its length; the block's
    far edge is the one whose length changes, and its event is the step at
    which that edge is shortest.  The builder carries the block's
    ``_Motion``.
    """
    verts = list(frame.path.vertices)
    centre = verts[pivot]
    x, y = (hi - 1, hi) if pivot < lo else (lo, lo - 1)

    def builder(d):
        return _rotate_block(verts, lo, hi, centre, sign * d)

    builder.motion = _Motion(lo, hi, pivot=centre, sign=sign)
    return _attempt(frame, builder, d_max,
                    _rotation_events(verts[x], centre, verts[y], sign))


def _two_inflection_sites(sc: _Struct):
    for x in range(len(sc.infl_edges)):
        for y in range(x + 1, len(sc.infl_edges)):
            i, j = sc.infl_edges[x], sc.infl_edges[y]
            if (sc.turns[i] > 0) != (sc.turns[j] > 0):
                continue  # turns not similar
            if abs(cross(sc.dirs[i], sc.dirs[j])) < 1e-12:
                continue  # parallel edges: no strict gain
            yield RuleKind.TWO_INFLECTION_SLIDE, (i, j, "direct")
            yield RuleKind.TWO_INFLECTION_SLIDE, (j, i, "direct")


def _inflection_slide_sites(sc: _Struct):
    for i in sc.infl_edges:
        for b in sc.bridges:
            if b != i:
                yield RuleKind.INFLECTION_SLIDE, (i, b, "direct")


def _long_break_sites(sc: _Struct):
    # a direct reconnection first: it reaches in one move the limit that
    # breaking the long edge and merging the short piece back creep toward
    pairs = [(i, l) for i in sc.infl_edges for l in sc.longs if l != i]
    # adjacent longs belong to the corner shortcut
    pairs += [(l1, l2) for l1 in sc.longs for l2 in sc.longs if abs(l1 - l2) > 1]
    for a, b in pairs:
        for mode in ("direct", "break_moving", "break_anchor"):
            yield RuleKind.LONG_BREAK_SLIDE, (a, b, mode)


def _bridge_translate_sites(sc: _Struct):
    for l in sc.longs:
        for b in sc.bridges:
            if abs(l - b) >= 1:
                yield RuleKind.BRIDGE_TRANSLATE, (l, b, "direct")
    for b1 in sc.bridges:
        for b2 in sc.bridges:
            if b1 == b2:
                continue
            if abs(cross(sc.dirs[b1], sc.dirs[b2])) < 1e-12 and \
                    dot(sc.dirs[b1], sc.dirs[b2]) > 0.0:
                continue  # similar direction: sliding gains nothing
            yield RuleKind.BRIDGE_TRANSLATE, (b1, b2, "direct")


# ---------------------------------------------------------------------------
# arc-arc-bridge rotation

def _aab_sites(sc: _Struct):
    elements = sc.elements()
    for pos in range(len(elements) - 2):
        kinds = "".join(e[0] for e in elements[pos:pos + 3])
        direction = +1 if kinds == "AAB" else -1 if kinds == "BAA" else 0
        if direction:
            for sign in (1.0, -1.0):
                yield RuleKind.AAB_ELIM, (pos, direction, sign)


def _aab_attempt(sc: _Struct, loc):
    pos, direction, sign = loc
    trip = sc.elements()[pos:pos + 3]
    first, second = (trip[0], trip[1]) if direction == +1 else (trip[1], trip[2])
    a1, a2 = sc.st.arcs[first[1]], sc.st.arcs[second[1]]
    tol = 1e-3 * sc.params.ell
    if a2.start_s < a1.end_s - tol:
        return _aab_overlap_slide(sc, a1, a2, direction) if sign > 0 else None
    # arcs joined at a vertex, or within a micro-short connector edge that a
    # stalled slide left behind; the rotation then pivots on the connector's
    # far endpoint and lets the connector absorb the mismatch
    if dist(a1.end_pt, a2.start_pt) > tol:
        return None  # arcs connect through real structure
    if direction == +1:
        w = sc.vertex_at_s(a1.end_s)
        q = sc.vertex_at_s(a2.end_s)
        if w is None or q is None or q <= w:
            return None
        lo, hi = w + 1, q + 1
    else:
        w = sc.vertex_at_s(a2.start_s)
        q = sc.vertex_at_s(a1.start_s)
        if w is None or q is None or q >= w:
            return None
        lo, hi = q, w
    if lo <= 0 or hi >= len(sc.verts):
        return None
    return _block_turn_attempt(sc.frame, lo, hi, w, sign, 0.45 * sc.params.theta)


def _aab_overlap_slide(sc: _Struct, a1, a2, direction: int):
    """AAB/BAA elimination when the two arcs overlap.

    The arc next to the bridge begins ell before its first theta-turn,
    inside the other arc, so there is no shared vertex to rotate about.
    Instead the block from that turn to the bridge slides back toward the
    other arc: the block slide whose source is the edge into the turn (a
    short edge on every input seen) and whose sink is the bridge's edge.
    The source shrinks by the step while the bridge changes by at most the
    step, so the move never lengthens the path and shortens it unless the
    bridge runs straight back along the source.  Sliding the other way
    lengthens the source by the step, so it never improves and is not tried.
    """
    ell = sc.params.ell
    if direction == +1:
        hinge = sc.vertex_at_s(a2.start_s + ell)  # first theta-turn of a2
        last = sc.vertex_at_s(a2.end_s)
        if hinge is None or last is None or last < hinge:
            return None
        src, sink = hinge - 1, last
    else:
        hinge = sc.vertex_at_s(a1.end_s - ell)  # last theta-turn of a1
        first = sc.vertex_at_s(a1.start_s)
        if hinge is None or first is None or first > hinge:
            return None
        src, sink = hinge, first - 1
    if min(src, sink) < 0 or max(src, sink) >= len(sc.lens):
        return None  # the block has no edge on one side
    return _block_slide_attempt(sc, (src, sink, "direct"))


# ---------------------------------------------------------------------------
# trio slide (used inside four-arc runs containing an inflection/long edge)

def _angle_between(a, b, c) -> float:
    """Unsigned angle at b in the triangle a-b-c."""
    return math.atan2(abs(cross(sub(a, b), sub(c, b))), dot(sub(a, b), sub(c, b)))


def _foot_on_line(p, a, b):
    d = unit(sub(b, a))
    return add(a, scale(d, dot(sub(p, a), d)))


def _in_wedge(v, lo, hi) -> bool:
    """True if direction v lies in the closed angular wedge from lo to hi
    (the wedge spanning less than pi)."""
    c_all = cross(lo, hi)
    if c_all >= 0.0:
        return cross(lo, v) >= -1e-12 and cross(v, hi) >= -1e-12
    return cross(lo, v) <= 1e-12 and cross(v, hi) <= 1e-12


def _trio_slide(cp: _Frame, b_idx: int, c_idx: int):
    """One shortening move around the edge (c_idx, c_idx+1), anchored at the
    junction vertex b_idx, for a right-turning run; callers mirror
    left-turning input."""
    params = cp.params
    verts = list(cp.path.vertices)
    d_idx = c_idx + 1
    if not (0 < b_idx < c_idx and d_idx <= len(verts) - 1):
        return None
    a, b, c, d = verts[b_idx - 1], verts[b_idx], verts[c_idx], verts[d_idx]
    if dist(b, c) < 1e-12:
        return None
    ey = unit(sub(b, c))
    ex = (ey[1], -ey[0])
    qd = (dot(sub(d, c), ex), dot(sub(d, c), ey))

    if qd[0] < 0.0 and qd[1] < 0.0:
        # target edge leaves into the third quadrant: rotate the block after
        # b clockwise about b
        return _block_turn_attempt(cp, b_idx + 1, c_idx + 1, b_idx, -1.0, 0.4 * params.theta)

    if qd[0] >= 0.0:
        return None  # not the configuration this move targets

    cd_dir = unit(sub(d, c))

    def rotate_ab(phi):  # b rotates about a; the block b..c follows it
        return _shift_block(verts, b_idx, c_idx + 1, sub(rotate_about(b, a, phi), b))

    # c then turns about c - b + a
    ab_events = _rotation_events(c, add(sub(c, b), a), d, 1.0)

    if _angle_between(a, b, c) <= math.pi / 2.0 + 1e-12:
        foot = _foot_on_line(c, a, b)
        if dist(foot, c) > 1e-12 and _in_wedge(cd_dir, ey, unit(sub(foot, c))):
            # the block b..c slides along the target edge
            return _block_slide_attempt(_Ctx(cp), (c_idx, b_idx - 1, "direct"))
        return _attempt(cp, rotate_ab, 0.4 * params.theta, ab_events)

    ab_dir = unit(sub(b, a))
    if _in_wedge(cd_dir, ey, ab_dir):
        # only c-d changes length: |(w + u) - R(phi) u| with u = b - a and
        # w = d - c falls for some phi <= 0.4 theta only if cross(u, w) > 0,
        # which the wedge rules out (but for its 1e-12 sliver), or if w + u
        # lies within 0.2 theta of -u: c-d runs back along a-b, as after a
        # long edge out and a U-turn, and there this rotation shortens
        return _attempt(cp, rotate_ab, 0.4 * params.theta, ab_events)

    # obtuse angle at b and the target edge outside the wedge: rotate the
    # block clockwise about b, then rotate about a to bring c back onto the
    # target edge's supporting line
    def double_rotation(phi_b):
        out = _rotate_block(verts, b_idx + 1, c_idx + 1, b, -phi_b)
        c1 = out[c_idx]
        ts = [t for t in _ell_cross_events(c, cd_dir, a, dist(a, c1)) if t > 1e-15]
        if not ts:
            return None
        c2 = add(c, scale(cd_dir, ts[0]))
        phi_a = turn_angle(sub(c1, a), sub(c2, a))
        if not (0.0 < phi_a < phi_b):
            return None
        return _rotate_block(out, b_idx, c_idx + 1, a, phi_a)

    return _attempt(cp, double_rotation, 0.3 * params.theta)


def _reflected(frame: _Frame) -> _Frame:
    """The frame of the path reflected across the x-axis: the same lengths,
    every turn negated (both exact in floating point)."""
    return _Frame(transform(frame.path, reflect=True), frame.params, frame.lengths,
                  [-t for t in frame.turns])


def _reversed(frame: _Frame) -> _Frame:
    """The frame of the path traversed backwards: lengths in reverse order,
    turns reversed and negated (exact in floating point)."""
    return _Frame(reverse(frame.path), frame.params, frame.lengths[::-1],
                  [-t for t in reversed(frame.turns)])


def _trio_slide_any(cp: _Frame, c_idx: int):
    """Try the trio slide around edge c_idx with nearby junction anchors, in
    the run's own orientation (mirroring when it turns left)."""
    sign = 1.0 if cp.turns[c_idx] > 0 else -1.0
    work = cp if sign < 0 else _reflected(cp)
    for b_idx in range(c_idx - 1, max(0, c_idx - 7), -1):
        res = _trio_slide(work, b_idx, c_idx)
        if res is not None:
            out, step = res
            return (out if sign < 0 else _reflected(out)), step
    return None


# ---------------------------------------------------------------------------
# four-arc reduction

def _aaaa_sites(sc: _Struct):
    for run in sc.arc_runs():
        if len(run) >= 4:
            yield RuleKind.AAAA_TO_AAA, (run[0],)


def _span_edges(sc: _Struct, s0: float, s1: float):
    tol = 1e-9 * max(1.0, sc.params.ell)
    return [j for j in range(len(sc.lens))
            if sc.vertex_s[j] >= s0 - tol and sc.vertex_s[j + 1] <= s1 + tol]


def _aaaa_attempt(sc: _Struct, loc, allow_circ: bool = True):
    """(frame of the new path, step, how) for the run starting at arc
    loc[0], or None."""
    params = sc.params
    run = next(r for r in sc.arc_runs() if len(r) >= 4 and r[0] == loc[0])
    arcs = [sc.st.arcs[i] for i in run[:4]]
    edges = _span_edges(sc, arcs[0].start_s, arcs[3].end_s)
    targets = [j for j in edges
               if j < len(sc.classes)
               and (sc.infl[j] or sc.classes[j] is EdgeClass.LONG)]
    if targets:
        for j in targets:
            fwd = _trio_slide_any(sc.frame, j)
            if fwd is not None:
                return fwd[0], fwd[1], "trio"
            rj = len(sc.path.vertices) - 2 - j
            bwd = _trio_slide_any(_reversed(sc.frame), rj)
            if bwd is not None:
                return _reversed(bwd[0]), bwd[1], "trio_rev"
        return None
    if not allow_circ:
        return None
    return _aaaa_circ(sc, params, arcs)


def _aaaa_circ(sc: _Struct, params: Params, arcs):
    """Equal-length three-rotation family on the last three arcs of the run,
    swept until two arcs merge (type shortens) or a follow-up shortening
    becomes available."""
    p1, p2, p3, p4 = (sc.vertex_at_s(a.end_s) for a in arcs)
    if None in (p1, p2, p3, p4):
        return None
    if not (0 < p1 < p2 < p3 < p4 <= len(sc.verts) - 1):
        return None
    verts = sc.verts
    w1, w2, w3, w4 = verts[p1], verts[p2], verts[p3], verts[p4]
    r12, r23 = dist(w1, w2), dist(w2, w3)
    cp = sc.path
    base_len = sc.frame.total
    base_type = len(sc.st.type_word)

    def build(eps):
        c_new = rotate_about(w3, w4, eps)
        roots = circle_circle_intersection(w1, r12, c_new, r23)
        if roots is None:
            return None
        b_new = min(roots, key=lambda p: dist(p, w2))
        alpha = turn_angle(sub(w2, w1), sub(b_new, w1))
        beta = turn_angle(sub(w3, w2), sub(c_new, b_new))
        out = list(verts)
        for i in range(p1 + 1, p2):
            out[i] = rotate_about(verts[i], w1, alpha)
        out[p2] = b_new
        for i in range(p2 + 1, p3):
            out[i] = add(b_new, rotate(sub(verts[i], w2), beta))
        out[p3] = c_new
        for i in range(p3 + 1, p4):
            out[i] = rotate_about(verts[i], w4, eps)
        return out

    cap = _turn_cap(sc.frame)

    def feasible(eps):
        got = _eval_step(cp, params, build, eps, cap=cap)
        if got is None or abs(got.total - base_len) > 1e-9 * max(1.0, base_len):
            return None
        return got

    # the follow-up: every move but this one, with the run's trio slides
    follow_moves = _MOVES[:-1] + (
        (True, _aaaa_sites, lambda sc2, loc2: _aaaa_attempt(sc2, loc2, allow_circ=False)),)
    for sign in (1.0, -1.0):
        # double the sweep while it stays feasible, then bisect the last
        # doubling
        lo, cand, eps = 0.0, None, sign * 1e-3
        while abs(eps) <= 2.0 * math.pi and (got := feasible(eps)) is not None:
            lo, cand, eps = eps, got, 2.0 * eps
        if cand is None or abs(eps) > 2.0 * math.pi:
            continue
        lo, cand = _bisect(feasible, lo, cand, eps)
        cand = _tidy(cand)
        st = _typed(cand)
        if st is not None and len(st.type_word) < base_type:
            return cand, abs(lo), "circ"
        # swept to a boundary without a merge: collinearity produced an
        # inflection or long edge, so a strict shortening (possibly a trio
        # slide inside the run) must now exist
        follow = _first_move(_sites(cand, st, follow_moves))
        if follow is not None:
            out, _k, _l, step = follow
            if out.total < base_len - IMPROVE_FRACTION * params.ell:
                return out, step, "circ_chain"
    return None


# ---------------------------------------------------------------------------
# the move table and its walkers

# (structured, site generator, attempt), in priority order.  Local rules read
# the raw path; structured ones read its canonical structure, so they all
# come after the local ones.
_MOVES = (
    (False, _collapse_sites, _collapse_attempt),
    (False, _long_long_sites, _long_long_attempt),
    (False, _long_short_sites, _long_short_attempt),
    (False, _inflection_rotate_sites, _inflection_rotate_attempt),
    (True, _two_inflection_sites, _block_slide_attempt),
    (True, _inflection_slide_sites, _block_slide_attempt),
    (True, _long_break_sites, _block_slide_attempt),
    (True, _bridge_translate_sites, _block_slide_attempt),
    (True, _aab_sites, _aab_attempt),
    (True, _aaaa_sites, _aaaa_attempt),
)


def _sites(frame: _Frame, st: PathStructure | None = None, moves=_MOVES):
    """(kind, location, attempt, context) for every site of the moves on a
    feasible path, in table order.  The structure is built once, at the
    first structured row, from ``st`` (the frame's structure, when known); a
    path without one has no structured sites."""
    ctx = _Ctx(frame)
    for structured, sites, attempt in moves:
        if structured and not isinstance(ctx, _Struct):
            ctx = _make_struct(frame, st)
            if ctx is None:
                return
        for kind, loc in sites(ctx):
            yield kind, loc, attempt, ctx


def _path_sites(path: DiscretePath, params: Params):
    """``_sites`` of any path, from one walk.  A path that is not feasible
    has no structure, so it gets the local rows only."""
    try:
        lengths, turns, violations = measure(path, params)
    except ValueError:  # an edge within tol_dedup, or one not finite
        lengths, turns, violations = edge_lengths(path), vertex_turns(path), True
    moves = _MOVES if not violations else tuple(m for m in _MOVES if not m[0])
    return _sites(_Frame(path, params, lengths, turns), None, moves)


def _first_move(sites):
    """The first of the sites whose attempt succeeds, applied:
    (frame of the new path, kind, location, step), or None."""
    for kind, loc, attempt, ctx in sites:
        got = attempt(ctx, loc)
        if got is not None:
            return got[0], kind, loc + got[2:], got[1]
    return None


def find_applicable(path: DiscretePath,
                    params: Params) -> tuple[RewriteRule, tuple] | None:
    """First applicable rule under the fixed priority (shortcuts before
    slides before equal-length transforms), or None at a fixed point."""
    got = _first_move(_path_sites(path, params))
    if got is None:
        return None
    _, kind, loc, step = got
    return RewriteRule(kind, step), loc


def apply(path: DiscretePath, rule: RewriteRule, location: tuple,
          params: Params) -> DiscretePath:
    """Apply one rule at a location by running that site's attempt from the
    move table (``_attempt``'s best step, or its boundary when that step
    fails).  ``rule.step`` is not read.

    The location must be one that ``find_applicable`` can report for this
    path; an AAAA_TO_AAA location may leave out its outcome tag.  Raises
    RuleNotApplicableError for any other location, or when the attempt
    finds no feasible improving step.
    """
    for kind, loc, attempt, ctx in _path_sites(path, params):
        if kind is rule.kind and location[:len(loc)] == loc:
            got = attempt(ctx, loc)
            if got is not None and location in (loc, loc + got[2:]):
                return got[0].path
            break
    raise RuleNotApplicableError(f"{rule.kind.value} at {location}")


def shorten(path: DiscretePath, params: Params, budget: int = 10_000,
            observer=None) -> tuple[DiscretePath, RewriteTrace]:
    """Drive the path to a fixed point of the move catalogue.

    Every applied move strictly improves (length, type length); the trace
    records each step.  If a move still applies after ``budget`` moves, the
    partial result is returned with ``budget_exhausted`` set.
    ``observer(step_index, path)`` is called after every applied move (frame
    dumps for figures).  Raises ValueError for an infeasible path or a
    negative budget.
    """
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    lengths, turns, violations = measure(path, params)
    if violations:
        raise ValueError("shorten requires a feasible path")
    trace = RewriteTrace()
    # each path is measured by the probe that accepted it and typed once,
    # from that frame: a move's type before is the last one's after
    frame = _tidy(_Frame(path, params, lengths, turns))
    st = _typed(frame)
    if observer is not None:
        observer(0, frame.path)
    while (got := _first_move(_sites(frame, st))) is not None:
        if len(trace.entries) == budget:
            trace.budget_exhausted = True
            break
        new, kind, loc, step = got
        new_st = _typed(new)
        trace.entries.append(TraceEntry(
            rule=RewriteRule(kind, step),
            location=loc,
            length_before=frame.total,
            length_after=new.total,
            type_before=None if st is None else st.type_word,
            type_after=None if new_st is None else new_st.type_word,
        ))
        frame, st = new, new_st
        if observer is not None:
            observer(len(trace.entries), frame.path)
    return frame.path, trace
