"""Arc/bridge structure of feasible paths: extraction, typing, canonical form.

A discrete circle is the regular ``n_sides``-gon with side ``ell``.  An arc is
a maximal subpath that is also a subpath of some discrete circle; everything
not covered by arcs splits into straight bridges.  Reading arcs (A) and
bridges (B) along the path gives its type word.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum

from .geometry import Point2, dist, lerp
from .model import (
    TOL_ANG,
    DiscretePath,
    EdgeClass,
    Params,
    _lengths_and_turns,
    classify_edge,
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
    """

    def __init__(self, path: DiscretePath, params: Params | None,
                 lengths: list[float], turns: list[float]):
        self.path = path
        self.params = params
        v = path.vertices
        self.lengths = lengths
        self.vertex_s = [0.0]
        for ln in lengths:
            self.vertex_s.append(self.vertex_s[-1] + ln)
        self.total = self.vertex_s[-1]
        self.turns = turns
        # effective corners: endpoints always, interior only if turning
        self.eff_idx = [0]
        for i in range(1, len(v) - 1):
            if abs(self.turns[i]) > TOL_ANG:
                self.eff_idx.append(i)
        if len(v) > 1:
            self.eff_idx.append(len(v) - 1)
        self.eff_s = [self.vertex_s[i] for i in self.eff_idx]
        self.eff_turn = [self.turns[i] for i in self.eff_idx]
        self.eff_len = [self.eff_s[k + 1] - self.eff_s[k]
                        for k in range(len(self.eff_idx) - 1)]
        if params is not None:
            self.eff_class = [classify_edge(ln, params) for ln in self.eff_len]

    def point_at(self, s: float) -> Point2:
        v = self.path.vertices
        if s <= 0.0:
            return v[0]
        if s >= self.total:
            return v[-1]
        i = bisect.bisect_right(self.vertex_s, s) - 1
        i = min(i, len(v) - 2)
        seg = self.vertex_s[i + 1] - self.vertex_s[i]
        t = (s - self.vertex_s[i]) / seg
        return lerp(v[i], v[i + 1], t)

    def vertices_in(self, s0: float, s1: float, tol: float) -> tuple[int, int]:
        """First and last path-vertex indices whose position lies in
        [s0 - tol, s1 + tol]."""
        first = bisect.bisect_left(self.vertex_s, s0 - tol)
        last = bisect.bisect_right(self.vertex_s, s1 + tol) - 1
        if first > last:
            raise InternalInconsistencyError("arc span contains no path vertex")
        return first, last

    def edge_at(self, s: float) -> int:
        """Index of the path edge containing arclength position s."""
        i = bisect.bisect_right(self.vertex_s, s) - 1
        return max(0, min(i, len(self.path.vertices) - 2))


def _measured(path: DiscretePath, params: Params) -> _Frame:
    """The frame of a feasible path, from one ``measure`` pass that also
    checks feasibility; raises InfeasiblePathError otherwise."""
    lengths, turns, violations = measure(path, params)
    if violations:
        raise InfeasiblePathError("arc extraction requires a feasible path")
    return _Frame(path, params, lengths, turns)


def _theta_seeds(frame: _Frame) -> list[int]:
    # one-sided test: feasibility already caps |t| at theta + TOL_ANG, and a
    # two-sided window can lose boundary turns to floating-point rounding
    th = frame.params.theta
    return [k for k, t in enumerate(frame.eff_turn) if abs(t) >= th - TOL_ANG]


def _arc_spans(frame: _Frame) -> list[tuple[float, float, int, int, int]]:
    """Arc spans as (start_s, end_s, eff_first, eff_last, sign) tuples.

    Seeds every theta-turn corner, chains runs of same-sign seeds joined by
    normal edges, then extends both run ends: a whole adjacent normal or short
    edge joins the arc, while only the length-ell portion of an adjacent long
    edge does.  Terminal seeds (flush starts/ends) extend only inward.
    """
    params = frame.params
    seeds = _theta_seeds(frame)
    if not seeds:
        return []
    signs = {k: (1 if frame.eff_turn[k] > 0 else -1) for k in seeds}

    runs: list[list[int]] = []
    for k in seeds:
        if (runs and runs[-1][-1] == k - 1 and signs[runs[-1][-1]] == signs[k]
                and frame.eff_class[k - 1] is EdgeClass.NORMAL):
            runs[-1].append(k)
        else:
            runs.append([k])

    last_eff = len(frame.eff_idx) - 1
    spans = []
    for run in runs:
        f, l = run[0], run[-1]
        if f == 0:
            s0, ef = frame.eff_s[0], 0
        elif frame.eff_class[f - 1] is EdgeClass.LONG:
            s0, ef = frame.eff_s[f] - params.ell, f
        else:
            s0, ef = frame.eff_s[f - 1], f - 1
        if l == last_eff:
            s1, el = frame.eff_s[last_eff], last_eff
        elif frame.eff_class[l] is EdgeClass.LONG:
            s1, el = frame.eff_s[l] + params.ell, l
        else:
            s1, el = frame.eff_s[l + 1], l + 1
        spans.append((s0, s1, ef, el, signs[f]))
    return spans


def extract_arcs(path: DiscretePath, params: Params) -> list[Arc]:
    """The maximal discrete circular arcs of a feasible path, in path order.

    Besides runs of theta-turns, every normal edge not already inside such an
    arc is itself a (single-edge) arc: it coincides with one full edge of a
    discrete circle and cannot be extended through sub-theta corners.
    Overlapping consecutive arcs are both reported.
    """
    return _arcs(_measured(path, params))


def _arcs(frame: _Frame) -> list[Arc]:
    if len(frame.path.vertices) == 1:
        return []
    params = frame.params
    spans = _arc_spans(frame)

    covered = sorted((s0, s1) for s0, s1, *_ in spans)
    tol = params.tol_len

    def is_covered(a: float, b: float) -> bool:
        return any(s0 - tol <= a and b <= s1 + tol for s0, s1 in covered)

    # single normal edges not inside any theta-run arc (m=2 admission)
    for k, cls in enumerate(frame.eff_class):
        if cls is not EdgeClass.NORMAL:
            continue
        a, b = frame.eff_s[k], frame.eff_s[k + 1]
        if is_covered(a, b):
            continue
        # orientation of a single-edge arc is a convention; take the side of
        # the stronger endpoint turn, defaulting to left
        ta, tb = frame.eff_turn[k], frame.eff_turn[k + 1]
        t = tb if abs(tb) > abs(ta) else ta
        spans.append((a, b, k, k + 1, -1 if t < 0 else 1))

    spans.sort(key=lambda sp: (sp[0], sp[1]))
    arcs = []
    for s0, s1, ef, el, sign in spans:
        fv, lv = frame.vertices_in(s0, s1, params.tol_dedup)
        arcs.append(Arc(
            start_pt=frame.point_at(s0),
            end_pt=frame.point_at(s1),
            first_vertex=fv,
            last_vertex=lv,
            orientation=Orientation.LEFT if sign > 0 else Orientation.RIGHT,
            edge_count=el - ef + (0 if s0 >= frame.eff_s[ef] - tol else 1)
            + (0 if s1 <= frame.eff_s[el] + tol else 1),
            start_s=s0,
            end_s=s1,
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
    """Straight segments of the path not covered by arcs, in path order.

    Raises InternalInconsistencyError if an uncovered stretch contains a
    turning vertex: the complement of the arcs of a path at a rewriting fixed
    point is always straight, so a bend here means the caller handed in a path
    outside this function's domain.
    """
    return _bridges(_Frame(path, params, *_lengths_and_turns(path, 0.0)), arcs)


def _bridges(frame: _Frame, arcs: list[Arc]) -> list[Bridge]:
    if len(frame.path.vertices) == 1:
        return []
    total = frame.total
    sliver = 1e-9 * max(1.0, total)

    gaps = []
    cursor = 0.0
    for s0, s1 in _merged_spans(arcs):
        if s0 - cursor > sliver:
            gaps.append((cursor, s0))
        cursor = max(cursor, s1)
    if total - cursor > sliver:
        gaps.append((cursor, total))

    bridges = []
    for a, b in gaps:
        for k, s in enumerate(frame.eff_s):
            if a + sliver < s < b - sliver and abs(frame.eff_turn[k]) > TOL_ANG:
                raise InternalInconsistencyError(
                    f"uncovered stretch [{a:.6g}, {b:.6g}] contains a turn at s={s:.6g}")
        bridges.append(Bridge(
            start_pt=frame.point_at(a),
            end_pt=frame.point_at(b),
            host_edge=frame.edge_at(0.5 * (a + b)),
            start_s=a,
            end_s=b,
        ))
    return bridges


def structure_of(path: DiscretePath, params: Params) -> PathStructure:
    """Arcs, bridges, and the type word of a feasible path."""
    return _structure(_measured(path, params))


def _structure(frame: _Frame) -> PathStructure:
    arcs = _arcs(frame)
    bridges = _bridges(frame, arcs)
    labeled = [(a.start_s, a.end_s, "A") for a in arcs]
    labeled += [(b.start_s, b.end_s, "B") for b in bridges]
    labeled.sort(key=lambda t: (t[0], t[1]))
    word = "".join(letter for _, _, letter in labeled)
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
            if not new_vertices or dist(new_vertices[-1], frame.point_at(cuts[ci])) > params.tol_dedup:
                new_vertices.append(frame.point_at(cuts[ci]))
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
