"""Discrete path data model and the feasibility validator.

A discrete bounded-curvature path is a polygonal path that

* turns by at most ``theta`` at every vertex,
* has no two adjacent short (< ``ell``) edges,
* for every short non-inflection edge, turns by at most ``theta`` from the
  edge before it to the edge after it (turn-over-length),

where the turn at the first/last vertex is measured against conceptual
pre/post-edges of length ``ell`` aligned with the boundary headings.  The
validator applies the three constraints uniformly on the augmented vertex
sequence (pre-edge, path vertices, post-edge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .geometry import (
    DegenerateGeometryError,
    Point2,
    Vec2,
    add,
    dist,
    is_unit,
    neg,
    rotate,
    scale,
    sub,
)

TOL_ANG = 1e-9  # absolute tolerance on turn comparisons, radians


@dataclass(frozen=True)
class Params:
    """Model parameters: turn bound ``theta`` and edge length ``ell``.

    ``theta`` must divide 2*pi exactly; ``n_sides`` is that integer quotient,
    the vertex count of the discrete circle.
    """

    theta: float
    ell: float
    n_sides: int = field(default=0)

    def __post_init__(self):
        if not (0.0 < self.theta <= math.pi / 2 + 1e-15):
            raise ValueError(f"theta must be in (0, pi/2], got {self.theta}")
        if not (self.ell > 0.0 and math.isfinite(self.ell)):
            raise ValueError(f"ell must be positive, got {self.ell}")
        n = self.n_sides if self.n_sides else round(2.0 * math.pi / self.theta)
        if n < 4 or abs(n * self.theta - 2.0 * math.pi) > 1e-9:
            raise ValueError(f"theta={self.theta} does not divide 2*pi into >=4 parts")
        object.__setattr__(self, "n_sides", n)

    @classmethod
    def from_sides(cls, n_sides: int, ell: float) -> "Params":
        if n_sides < 4:
            raise ValueError(f"n_sides must be at least 4, got {n_sides}")
        return cls(theta=2.0 * math.pi / n_sides, ell=ell, n_sides=n_sides)

    @property
    def tol_len(self) -> float:
        return 1e-9 * self.ell

    @property
    def tol_dedup(self) -> float:
        return 1e-12 * self.ell

    @property
    def circumradius(self) -> float:
        """Circumradius of the discrete circle (regular n_sides-gon with side ell)."""
        return self.ell / (2.0 * math.sin(self.theta / 2.0))


@dataclass(frozen=True)
class Configuration:
    """An oriented state: a point plus a unit heading."""

    point: Point2
    heading: Vec2

    def __post_init__(self):
        if not (math.isfinite(self.point[0]) and math.isfinite(self.point[1])):
            raise ValueError(f"point must be finite, got {self.point}")
        if not is_unit(self.heading):
            raise ValueError(f"heading must be a unit vector, got {self.heading}")

    @classmethod
    def at_angle(cls, point: Point2, angle: float) -> "Configuration":
        return cls(point, (math.cos(angle), math.sin(angle)))


class EdgeClass(Enum):
    SHORT = "short"
    NORMAL = "normal"
    LONG = "long"


class ViolationKind(Enum):
    TURN = "turn"
    LENGTH = "length"
    TURN_OVER_LENGTH = "turn_over_length"
    PRE_EDGE = "pre_edge"
    POST_EDGE = "post_edge"


@dataclass(frozen=True)
class Violation:
    """One broken constraint.

    ``location`` is a vertex index for turn violations and an edge index for
    length and turn-over-length violations.  ``magnitude`` is the excess in
    radians (turn kinds) or length units (LENGTH: how far the longer of the
    two short edges falls below ell).
    """

    kind: ViolationKind
    location: int
    magnitude: float


@dataclass(frozen=True)
class DiscretePath:
    """Vertex polyline with its two boundary configurations.

    ``vertices[0]`` must equal ``start.point`` and ``vertices[-1]`` must equal
    ``end.point``.
    """

    start: Configuration
    end: Configuration
    vertices: tuple[Point2, ...]

    def __post_init__(self):
        verts = tuple(map(tuple, self.vertices))
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 1:
            raise ValueError("path needs at least one vertex")
        if verts[0] != self.start.point:
            raise ValueError("first vertex must equal start.point")
        if verts[-1] != self.end.point:
            raise ValueError("last vertex must equal end.point")

    @classmethod
    def from_vertices(cls, vertices, start_heading: Vec2,
                      end_heading: Vec2) -> "DiscretePath":
        verts = tuple(tuple(p) for p in vertices)
        return cls(Configuration(verts[0], start_heading),
                   Configuration(verts[-1], end_heading), verts)

    def with_vertices(self, vertices) -> "DiscretePath":
        """Same boundary configurations over a new vertex list (endpoints must agree)."""
        return DiscretePath(self.start, self.end, vertices)


def classify_edge(length: float, params: Params) -> EdgeClass:
    """Short / Normal / Long split of (0, inf) at ell, with tolerance tol_len."""
    if not (length > 0.0) or not math.isfinite(length):
        raise DegenerateGeometryError(f"edge length must be positive, got {length}")
    if length < params.ell - params.tol_len:
        return EdgeClass.SHORT
    if length > params.ell + params.tol_len:
        return EdgeClass.LONG
    return EdgeClass.NORMAL


def edge_lengths(path: DiscretePath) -> list[float]:
    v = path.vertices
    return [dist(v[i], v[i + 1]) for i in range(len(v) - 1)]


def path_length(path: DiscretePath) -> float:
    """Total length of the path edges (pre/post-edges excluded)."""
    return sum(edge_lengths(path), 0.0)


def augmented(path: DiscretePath, params: Params) -> list[Point2]:
    """Vertex sequence with the pre-edge and post-edge endpoints attached."""
    u_pre = sub(path.start.point, scale(path.start.heading, params.ell))
    v_post = add(path.end.point, scale(path.end.heading, params.ell))
    return [u_pre, *path.vertices, v_post]


def _lengths_and_turns(path: DiscretePath, tol: float) -> tuple[list[float], list[float]]:
    """Edge lengths and signed vertex turns in one walk over the path.

    The turn at vertex i is ``atan2(cross, dot)`` of the raw edge vectors
    into and out of it, with the start/end headings standing in for the
    pre/post-edges.  Raises DegenerateGeometryError at the first edge whose
    length is at most ``tol``.
    """
    v = path.vertices
    ax, ay = path.start.heading
    lengths: list[float] = []
    turns: list[float] = []
    atan2, hypot = math.atan2, math.hypot
    px, py = v[0]
    for i in range(1, len(v)):
        qx, qy = v[i]
        bx, by = qx - px, qy - py
        ln = hypot(bx, by)
        if ln <= tol:
            raise DegenerateGeometryError(f"repeated vertex at index {i - 1}")
        lengths.append(ln)
        turns.append(atan2(ax * by - ay * bx, ax * bx + ay * by))
        ax, ay, px, py = bx, by, qx, qy
    bx, by = path.end.heading
    turns.append(atan2(ax * by - ay * bx, ax * bx + ay * by))
    return lengths, turns


def vertex_turns(path: DiscretePath) -> list[float]:
    """Signed turn at every path vertex.

    The turn at the first vertex is measured from the start heading (the
    pre-edge direction) and the turn at the last vertex is measured onto the
    end heading.  For a single-vertex path this is the lone turn from the
    start heading to the end heading.  Raises DegenerateGeometryError only
    on an exactly repeated vertex.
    """
    return _lengths_and_turns(path, 0.0)[1]


def turns_inflect(a: float, b: float) -> bool:
    """True iff the turns at the two ends of an edge have opposite signs,
    each beyond TOL_ANG (zero turns count as non-inflection)."""
    return (a > TOL_ANG and b < -TOL_ANG) or (a < -TOL_ANG and b > TOL_ANG)


def is_inflection(path: DiscretePath, edge_index: int) -> bool:
    """True iff the path turns in opposite directions at the two ends of the edge.

    Turns at terminal vertices are taken against the pre/post-edges, so every
    path edge has a well-defined answer.  Zero turns count as non-inflection.
    """
    n_edges = len(path.vertices) - 1
    if not (0 <= edge_index < n_edges):
        raise IndexError(f"edge index {edge_index} out of range [0, {n_edges})")
    t = vertex_turns(path)
    return turns_inflect(t[edge_index], t[edge_index + 1])


def measure(path: DiscretePath,
            params: Params) -> tuple[list[float], list[float], list[Violation]]:
    """Edge lengths, vertex turns and every constraint violation of the path.

    The single source of the three constraints, checked on the pre/post-
    augmented vertex sequence: the turn bound at every vertex, the
    no-adjacent-short-edges rule, and turn-over-length for every short
    non-inflection edge (the signed-turn sum at its two ends, which for a
    non-inflection edge equals the exterior angle between the supporting
    lines of its neighbors).  The pre/post-edges are normal by construction,
    so only path edges can be short, and their neighbor turns always exist.

    Raises DegenerateGeometryError for an edge of length at most
    ``tol_dedup`` and, failing that, for the first non-finite edge length.
    Violations are listed turn kinds first (by vertex), then LENGTH, then
    TURN_OVER_LENGTH (by edge).
    """
    lengths, turns = _lengths_and_turns(path, params.tol_dedup)
    theta, ell = params.theta, params.ell
    bound = theta + TOL_ANG
    violations: list[Violation] = []
    last = len(turns) - 1
    for i, t in enumerate(turns):
        if abs(t) > bound:
            kind = (ViolationKind.PRE_EDGE if i == 0 else
                    ViolationKind.POST_EDGE if i == last else ViolationKind.TURN)
            violations.append(Violation(kind, i, abs(t) - theta))

    short_below = ell - params.tol_len  # classify_edge's SHORT bound
    over: list[Violation] = []
    prev_short = False
    for j, ln in enumerate(lengths):
        if not math.isfinite(ln):
            raise DegenerateGeometryError(f"edge length must be positive, got {ln}")
        if not ln < short_below:
            prev_short = False
            continue
        if prev_short:
            violations.append(Violation(ViolationKind.LENGTH, j - 1,
                                        ell - max(lengths[j - 1], ln)))
        prev_short = True
        a, b = turns[j], turns[j + 1]
        if turns_inflect(a, b):
            continue
        total = abs(a + b)
        if total > bound:
            over.append(Violation(ViolationKind.TURN_OVER_LENGTH, j, total - theta))
    violations += over
    return lengths, turns, violations


def validate(path: DiscretePath, params: Params) -> list[Violation]:
    """All constraint violations of the path; an empty list means feasible.

    See ``measure`` for the checks and the order of the list.
    """
    return measure(path, params)[2]


def reverse(path: DiscretePath) -> DiscretePath:
    """The same polyline traversed backwards (headings flip sign)."""
    return DiscretePath(
        start=Configuration(path.end.point, neg(path.end.heading)),
        end=Configuration(path.start.point, neg(path.start.heading)),
        vertices=tuple(reversed(path.vertices)),
    )


def transform(path: DiscretePath, angle: float = 0.0,
              translation: Vec2 = (0.0, 0.0), reflect: bool = False) -> DiscretePath:
    """Rigid motion (optionally composed with a reflection across the x-axis).

    The reflection is applied first, then the rotation, then the translation.
    """
    def tp(p: Point2) -> Point2:
        q = (p[0], -p[1]) if reflect else p
        return add(rotate(q, angle), translation)

    def tv(d: Vec2) -> Vec2:
        q = (d[0], -d[1]) if reflect else d
        return rotate(q, angle)

    return DiscretePath(
        start=Configuration(tp(path.start.point), tv(path.start.heading)),
        end=Configuration(tp(path.end.point), tv(path.end.heading)),
        vertices=tuple(tp(p) for p in path.vertices),
    )

