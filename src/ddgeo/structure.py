"""Arc/bridge structure of feasible paths: extraction, typing, canonical form.

A discrete circle is the regular ``n_sides``-gon with side ``ell``.  An arc is
a maximal subpath that is also a subpath of some discrete circle; everything
not covered by arcs splits into straight bridges.  Reading arcs (A) and
bridges (B) along the path gives its type word.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate

from .geometry import DegenerateGeometryError, Point2, dist, lerp
from .model import (
    TOL_ANG,
    DiscretePath,
    EdgeClass,
    Params,
    _lengths_and_turns,
    measure,
    validate,  # noqa: F401 -- bench/tracing.py wraps structure.validate
    vertex_turns,  # noqa: F401 -- bench/tracing.py wraps structure.vertex_turns
)

TRUE_TYPES = ("B", "A", "AB", "BA", "AA", "ABA", "AAA")
FORBIDDEN_FACTORS = ("BB", "BAB", "AAB", "BAA", "AAAA")


class InfeasiblePathError(ValueError):
    """The operation requires a feasible path but validation failed."""


class InternalInconsistencyError(RuntimeError):
    """The structural decomposition violated one of its own invariants."""


class Orientation(Enum):
    LEFT = 1
    RIGHT = -1


@dataclass(frozen=True)
class Arc:
    """A maximal discrete circular arc of the path.

    ``start_pt``/``end_pt`` may lie in the middle of path edges.  ``start_s``
    and ``end_s`` are the corresponding arclength positions along the path;
    ``first_vertex``/``last_vertex`` index the first and last path vertices
    the arc contains, and ``edge_count`` counts the arc's polyline segments.
    """

    start_pt: Point2
    end_pt: Point2
    first_vertex: int
    last_vertex: int
    orientation: Orientation
    edge_count: int
    start_s: float
    end_s: float


@dataclass(frozen=True)
class Bridge:
    """A maximal straight piece of the path not covered by any arc."""

    start_pt: Point2
    end_pt: Point2
    host_edge: int
    start_s: float
    end_s: float

    @property
    def length(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class PathStructure:
    arcs: tuple[Arc, ...]
    bridges: tuple[Bridge, ...]
    type_word: str
    # the arclength position of each path vertex, which the pieces' start_s
    # and end_s were measured on; not part of the structure's value, and not
    # serialized
    vertex_s: list[float] = field(repr=False, compare=False)


class _Frame:
    """Arclength view of a path: cumulative positions plus the polyline of
    effective corners (vertices with nonzero turn, and the two endpoints).

    Built from the path's edge lengths and vertex turns, which the caller
    has already walked (``_measured`` takes them from one ``measure`` pass).
    With ``params``, every path edge and every effective edge is classified
    (``classes``, ``eff_class``) as ``classify_edge`` would.
    """

    def __init__(self, path: DiscretePath, params: Params | None,
                 lengths: list[float], turns: list[float]):
        self.path = path
        self.params = params
        self.lengths = lengths
        self.turns = turns
        self.vertex_s = vs = list(accumulate(lengths, initial=0.0))
        self.total = vs[-1]
        n = len(vs)
        # effective corners: endpoints always, interior only if turning
        self.eff_idx = [0, *(i for i in range(1, n - 1) if abs(turns[i]) > TOL_ANG)]
        if n > 1:
            self.eff_idx.append(n - 1)
        self.eff_s = es = [vs[i] for i in self.eff_idx]
        self.eff_turn = [turns[i] for i in self.eff_idx]
        if params is not None:
            # an effective edge spans whole path edges, so it is the one
            # classify_edge rejects first
            eff_len = [b - a for a, b in zip(es, es[1:])]
            for ln in eff_len:
                if not 0.0 < ln < math.inf:
                    raise DegenerateGeometryError(f"edge length must be positive, got {ln}")
            short, long = params.ell - params.tol_len, params.ell + params.tol_len
            S, N, L = EdgeClass.SHORT, EdgeClass.NORMAL, EdgeClass.LONG
            self.eff_class = [S if ln < short else L if ln > long else N for ln in eff_len]
            self.classes = [S if ln < short else L if ln > long else N for ln in lengths]

    def point_at(self, s: float, lo: int = 1) -> Point2:
        """The point at arclength s; no vertex before index ``lo`` may lie
        beyond s."""
        v = self.path.vertices
        if s <= 0.0:
            return v[0]
        if s >= self.total:
            return v[-1]
        vs = self.vertex_s
        i = bisect_right(vs, s, lo, len(v) - 1) - 1
        return lerp(v[i], v[i + 1], (s - vs[i]) / (vs[i + 1] - vs[i]))


def _measured(path: DiscretePath, params: Params) -> _Frame:
    """The frame of a feasible path, from one ``measure`` pass that also
    checks feasibility; raises InfeasiblePathError otherwise."""
    lengths, turns, violations = measure(path, params)
    if violations:
        raise InfeasiblePathError("arc extraction requires a feasible path")
    return _Frame(path, params, lengths, turns)


def extract_arcs(path: DiscretePath, params: Params) -> list[Arc]:
    """The maximal discrete circular arcs of a feasible path, in path order.

    Besides runs of theta-turns, every normal edge not already inside such an
    arc is itself a (single-edge) arc: it coincides with one full edge of a
    discrete circle and cannot be extended through sub-theta corners.
    Overlapping consecutive arcs are both reported.
    """
    return _arcs(_measured(path, params))


def _arcs(frame: _Frame) -> list[Arc]:
    """The frame's arcs, sorted by (start_s, end_s), left to right over its
    effective corners.

    Runs of same-sign theta-turn corners joined by normal edges become arcs
    whose ends extend over the whole adjacent normal or short edge, or the
    length-ell part of an adjacent long edge; terminal corners extend only
    inward.  So normal edge k (from corner k to corner k + 1) lies inside
    run [f, l] exactly when f - 1 <= k <= l, and the runs come out sorted by
    both corners: the edge is covered exactly when it lies inside the last
    run with f - 1 <= k.  Each other normal edge is a single-edge arc, after
    the runs with f <= k.  An arc's edge count is its corner span, plus one
    for each end inside a long edge.
    """
    if len(frame.path.vertices) == 1:
        return []
    params = frame.params
    ell, dedup = params.ell, params.tol_dedup
    idx, es, turn, cls = frame.eff_idx, frame.eff_s, frame.eff_turn, frame.eff_class
    normal, long = EdgeClass.NORMAL, EdgeClass.LONG
    last = len(es) - 1

    # one-sided seed test: feasibility already caps |t| at theta + TOL_ANG,
    # and a two-sided window can lose boundary turns to floating-point rounding
    floor = params.theta - TOL_ANG
    runs: list[list[int]] = []  # [first, last, sign] in effective corners
    for k, t in enumerate(turn):
        if abs(t) >= floor:
            sign = 1 if t > 0 else -1
            if runs and runs[-1][1] == k - 1 and runs[-1][2] == sign and cls[k - 1] is normal:
                runs[-1][1] = k
            else:
                runs.append([k, k, sign])
    # (start_s, end_s, first and last effective corner, sign, edge count)
    spans = []
    for f, l, sign in runs:
        inside = 0
        if f == 0:
            s0, ef = es[0], 0
        elif cls[f - 1] is long:
            s0, ef, inside = es[f] - ell, f, 1
        else:
            s0, ef = es[f - 1], f - 1
        if l == last:
            s1, el = es[last], last
        elif cls[l] is long:
            s1, el, inside = es[l] + ell, l, inside + 1
        else:
            s1, el = es[l + 1], l + 1
        spans.append((s0, s1, ef, el, sign, el - ef + inside))

    ordered = []
    emitted = started = 0
    for k, c in enumerate(cls):
        if c is not normal:
            continue
        while started < len(runs) and runs[started][0] - 1 <= k:
            started += 1
        if started and k <= runs[started - 1][1]:
            continue
        # no run has f - 1 = k, so the runs before this edge are the first
        # ``started``
        ordered += spans[emitted:started]
        emitted = started
        # orientation of a single-edge arc is a convention; take the side of
        # the stronger endpoint turn, defaulting to left
        ta, tb = turn[k], turn[k + 1]
        t = tb if abs(tb) > abs(ta) else ta
        ordered.append((es[k], es[k + 1], k, k + 1, -1 if t < 0 else 1, 1))
    ordered += spans[emitted:]

    vs = frame.vertex_s
    arcs = []
    for s0, s1, ef, el, sign, edge_count in ordered:
        # corner ef - 1 lies before s0 (a long start lies past it, inside
        # the long edge), and corner el at or before s1; positional
        # arguments, as keywords double the cost of a frozen dataclass
        arcs.append(Arc(
            frame.point_at(s0, idx[ef - 1] + 1 if ef else 1),
            frame.point_at(s1, idx[el] + 1),
            bisect_left(vs, s0 - dedup),                            # first_vertex
            bisect_right(vs, s1 + dedup) - 1,                       # last_vertex
            Orientation.LEFT if sign > 0 else Orientation.RIGHT,
            edge_count,
            s0,
            s1,
        ))
    return arcs


def _merged_spans(arcs: list[Arc]) -> list[tuple[float, float]]:
    spans = sorted((a.start_s, a.end_s) for a in arcs)
    merged: list[list[float]] = []
    for s0, s1 in spans:
        if merged and s0 <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], s1)
        else:
            merged.append([s0, s1])
    return [(a, b) for a, b in merged]


def extract_bridges(path: DiscretePath, arcs: list[Arc],
                    params: Params | None = None) -> list[Bridge]:
    """Straight segments of the path not covered by its arcs (as
    ``extract_arcs`` gives them), in path order.

    Raises InternalInconsistencyError if an uncovered stretch contains a
    turning vertex: the complement of the arcs of a path at a rewriting fixed
    point is always straight, so a bend here means the caller handed in a path
    outside this function's domain.
    """
    frame = _Frame(path, params, *_lengths_and_turns(path, 0.0))
    return _bridges(frame, sorted(arcs, key=lambda a: (a.start_s, a.end_s)))[0]


def _bridges(frame: _Frame, arcs: list[Arc]) -> tuple[list[Bridge], str]:
    """The bridges between the frame's arcs, sorted by (start_s, end_s), and
    the type word, in one pass over the arcs in that order.

    A bridge fills each gap of more than a sliver between the overlapping
    blocks of arcs; its ends are the neighbouring arcs' ends or the path's.
    """
    v = frame.path.vertices
    if len(v) == 1:
        return [], ""
    total, vs, es = frame.total, frame.vertex_s, frame.eff_s
    sliver = 1e-9 * max(1.0, total)
    bridges: list[Bridge] = []
    word = []

    def bridge(a, a_pt, b, b_pt):
        for k in range(bisect_right(es, a + sliver), len(es)):
            if es[k] >= b - sliver:
                break
            if abs(frame.eff_turn[k]) > TOL_ANG:
                raise InternalInconsistencyError(
                    f"uncovered stretch [{a:.6g}, {b:.6g}] contains a turn at s={es[k]:.6g}")
        bridges.append(Bridge(a_pt, b_pt, bisect_right(vs, 0.5 * (a + b), 1, len(v) - 1) - 1,
                              a, b))
        word.append("B")

    cursor, cursor_pt = 0.0, v[0]  # the end of the blocks so far
    end = end_pt = None            # the end of the current block
    for arc in arcs:
        if end is None or arc.start_s > end:
            if end is not None:
                cursor, cursor_pt = end, end_pt
            if arc.start_s - cursor > sliver:
                bridge(cursor, cursor_pt, arc.start_s, arc.start_pt)
            end, end_pt = arc.end_s, arc.end_pt
        elif arc.end_s > end:
            end, end_pt = arc.end_s, arc.end_pt
        word.append("A")
    if end is not None:
        cursor, cursor_pt = end, end_pt
    if total - cursor > sliver:
        bridge(cursor, cursor_pt, total, v[-1])
    return bridges, "".join(word)


def structure_of(path: DiscretePath, params: Params) -> PathStructure:
    """Arcs, bridges, and the type word of a feasible path."""
    return _structure(_measured(path, params))


def _structure(frame: _Frame) -> PathStructure:
    arcs = _arcs(frame)
    bridges, word = _bridges(frame, arcs)
    return PathStructure(tuple(arcs), tuple(bridges), word, frame.vertex_s)


def _typed(frame: _Frame) -> PathStructure | None:
    """The structure of a feasible path's frame, or None where
    ``type_or_none`` gives None (a bend in an uncovered stretch)."""
    try:
        return _structure(frame)
    except (InternalInconsistencyError, ValueError):
        return None


def type_string(path: DiscretePath, params: Params) -> str:
    """The path's type word over {A, B}.

    Note that a straight path types as "A" when its length is exactly ell
    (a normal edge is one full edge of a discrete circle) and as "B"
    otherwise; a single-point path has the empty type.
    """
    return structure_of(path, params).type_word


def type_or_none(path: DiscretePath, params: Params) -> str | None:
    """The type word, or None for a path outside the typing domain
    (infeasible, or with a bend in an uncovered stretch)."""
    try:
        return type_string(path, params)
    except (InternalInconsistencyError, ValueError):
        return None


def canonicalize(path: DiscretePath, params: Params) -> DiscretePath:
    """Insert every bridge endpoint as a (zero-turn) path vertex.

    Bridge endpoints in the middle of edges are exactly the arc endpoints
    that are not already vertices (arc extensions into long edges), so the
    cuts are taken from the arcs; this stays well-defined even for feasible
    paths whose uncovered part is not straight.  The result is feasible
    whenever the input is: inserted vertices add zero turns, and any newly
    short piece of a split edge sits next to the length-ell part of an arc
    (never next to another short edge).
    """
    return _canonical(path, params).path


def _canonical(path: DiscretePath, params: Params, frame: _Frame | None = None,
               arcs: tuple[Arc, ...] | list[Arc] | None = None) -> _Frame:
    """``canonicalize``'s result as a frame.

    ``frame``, when given, is the path's frame from a ``measure`` pass that
    found it feasible, and ``arcs`` its arcs.  The result is measured again
    only when a cut is inserted; otherwise it is the path's frame itself.
    """
    if frame is None:
        frame = _measured(path, params)
    if arcs is None:
        arcs = _arcs(frame)
    # bridge endpoints are exactly the boundary points of the union of the
    # arc spans (overlap-interior arc endpoints stay mid-edge)
    cuts = []
    for s0, s1 in _merged_spans(arcs):
        cuts.extend((s0, s1))
    cuts = sorted(set(cuts))

    new_vertices: list[Point2] = []
    n = len(path.vertices)
    ci = 0
    for vi in range(n):
        s = frame.vertex_s[vi]
        while ci < len(cuts) and cuts[ci] < s - params.tol_dedup:
            pt = frame.point_at(cuts[ci])
            if not new_vertices or dist(new_vertices[-1], pt) > params.tol_dedup:
                new_vertices.append(pt)
            ci += 1
        if ci < len(cuts) and abs(cuts[ci] - s) <= params.tol_dedup:
            ci += 1  # already a vertex
        new_vertices.append(path.vertices[vi])
    if len(new_vertices) == n:  # every cut is already a vertex
        return frame
    try:
        return _measured(path.with_vertices(new_vertices), params)
    except ValueError:
        pass
    # Outside the shortest-path domain an inserted endpoint can sit next to
    # an existing short edge (the input had a long edge adjacent to a short
    # one, which shortest paths never do).  Keep the cuts that are
    # individually feasible.
    result = frame
    for c in cuts:
        pt = frame.point_at(c)
        verts = list(result.path.vertices)
        for i in range(len(verts) - 1):
            d_total = dist(verts[i], verts[i + 1])
            if (dist(verts[i], pt) + dist(pt, verts[i + 1]) <= d_total + params.tol_dedup
                    and dist(verts[i], pt) > params.tol_dedup
                    and dist(pt, verts[i + 1]) > params.tol_dedup):
                candidate = verts[:i + 1] + [pt] + verts[i + 1:]
                try:
                    result = _measured(result.path.with_vertices(candidate), params)
                except ValueError:
                    pass
                break
    return result


def find_forbidden_subtype(type_word: str) -> tuple[str, int] | None:
    """Leftmost forbidden factor of the word, as (factor, position), or None."""
    for i in range(len(type_word)):
        for factor in FORBIDDEN_FACTORS:
            if type_word.startswith(factor, i):
                return factor, i
    return None


def is_true_type(word: str) -> bool:
    return word in TRUE_TYPES
