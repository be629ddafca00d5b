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

Each true-type word B, A, AB, BA, AA, ABA and AAA over full-edge arcs has a
batched row solver (``_ROW_SOLVERS``) that takes all rows of arc
orientations and edge counts at once and returns the shortest realization
of each.  The words A, AA and AAA share one exact solver (``_solve_arcs``),
which closes position in closed form (chord geometry and two-link inverse
kinematics): the chord directions fix every turn, so a row is feasible iff
its chords close position with every turn within theta, and the
one-parameter AAA family is searched where one of its angles is at a bound
or turns back.  A bridge is a free-length edge, so AB, BA and ABA are the
partial-arc shapes AF, FA and AFA below, solved like them within the
incumbent.  Per row that can give a longer bridge than the exact minimum
over the end turns, but never on a row that wins (the argument is at
``_joint_patterns``).

``_PARTIAL_SHAPES`` holds every other word over at most three arcs with one
or two F edges.  Their F lengths solve position closure linearly, and their
joints sit at a turn bound except one closed by the heading, or except two
whose one-parameter family is solved in closed form (for its stationary
points with two F edges, for the turns that close position with one); a
two-F family turning one F edge only has a monotone F length sum and is not
enumerated.  Joints strictly inside their bounds beyond these are not
searched.  F lengths that would leave a bridge where no true type has one
are left out (``_f_caps``), and so are words over four or more arcs, whose
types all carry the forbidden factor AAAA.

Every word, true type or partial-arc shape, takes one pipeline.  Its rows
come from the heading band of its arc count: one enumerator
(``_word_rows``) builds each count's rows once per ``plan`` call, at the
widest heading slack of the count's words (``_ArcRows``), and each word
picks its own by its slack and the incumbent.  Rows are pruned by the
incumbent length against a floor: the arcs' edges plus a lower bound on
the length the other edges must cover.  That bound is what the chords
leave of |UV|, or for the partial-arc shapes the finer ``_chord_gap``,
which depends on a shape only through its arc layout.  ``_chord_gap``
samples every joint between two arcs at one step, theta / 2, so the
layouts of one arc count share one grid of chord sums, and the layouts
with one budget of end joints share one wind pass over it.  One pass per
arc count thus floors every layout of the count, on the rows whose plain
floor fits the incumbent and whose heading miss some layout's joints can
close.  The word's row solver gives each live row its length (for every
word with an F edge, within the incumbent: one cap), and ``plan``'s
``push_rows`` finishes the rows shortest first.  Only the floor
depends on the word's family.  A finished row is measured once
(``_Instance.finish``): that frame gives its length and, in the tie-break,
its type.

The partial-arc row solver (``_solve_partial``) takes every live row of a
shape in one pass against the joint patterns of ``_joint_patterns``, in
chunks of at most ``_PAIR_BUDGET`` row-pattern pairs, which bounds its
memory.  A row's length is that of its shortest closed-form realization
within the incumbent (inf where there is none), and the row is laid out
from that realization's joint turns and F lengths.  Patterns that fix
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
the closure again.  Their F lengths, F caps and the length cap are tested
next, and only the candidates that pass get joint rows and the remaining
turn tests.

A discretization of the smooth Dubins curve between the configurations is
always feasible, so its length is the first incumbent: a bound that prunes
rows, never a candidate.  By the discrete analogue of Dubins' theorem a
shortest path has a true type, so a complete enumeration's shortest
candidate has one.  The guided enumeration of fine grids can miss the
optimum and leave a winner without a true type; only such a winner is
polished with the rewriter.
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
    validate,  # noqa: F401 -- bench/tracing.py wraps planner.validate
)
from .rewrite import shorten
from .structure import _Frame, _measured, _typed, is_true_type, type_or_none
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

    * ``solved``: its path validated; ``length`` is the path's length, from
      the one ``measure`` pass that validated it;
    * ``failed``: its shortest realization did not validate; ``length`` is
      that realization's length;
    * ``pruned``: its exact length exceeds the incumbent, so it was not
      built.

    Only rows with a realization are listed: a row whose turns cannot all
    stay within theta gets no entry, and nor does a row of a word with an F
    edge (AB, BA, ABA or a partial-arc shape) with no realization within
    the incumbent.
    """

    word: str                # true-type word or a partial-arc shape over {A, F}
    orientations: tuple[int, ...]
    ks: tuple[int, ...]
    status: str
    length: float | None = None


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


def _norm_arr(a):
    """Angles wrapped into [-pi, pi), bit for bit as (a + pi) % TWO_PI - pi.

    numpy's float % is fmod plus a sign fix-up, and fmod is exact, so the
    fix-up written out (one add of TWO_PI where fmod is negative) gives the
    same bits; done in place, it makes one array where the % makes three.
    """
    x = np.array(a, dtype=float)
    x += math.pi
    np.fmod(x, TWO_PI, out=x)
    np.add(x, TWO_PI, out=x, where=x < 0.0)
    x -= math.pi
    return x


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

    def finish(self, vertices: list[Point2]) -> _Frame | None:
        """Snap the built endpoint onto V, dedup, and measure: the frame of
        the path's one ``measure`` pass, or None where it is infeasible."""
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
            return _measured(DiscretePath(self.U, self.V, tuple(verts)), self.params)
        except ValueError:
            return None


def _build_elements(inst: _Instance, elements) -> list[Point2]:
    """Vertices from U along elements ('arc', sigma, k, psi1), k ell-edges
    from first edge direction psi1 turning by sigma theta at each vertex, or
    ('bridge', s, psi)."""
    ell, th = inst.params.ell, inst.params.theta
    verts = [inst.U.point]
    for el in elements:
        if el[0] == "arc":
            _, sigma, k, psi1 = el
            x, y = verts[-1]
            for j in range(k):
                a = psi1 + j * sigma * th
                x += ell * math.cos(a)
                y += ell * math.sin(a)
                verts.append((x, y))
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


def _two_link(w, c1, c2):
    """Chord directions with c1 e^{i a1} + c2 e^{i a2} = w for arrays of
    complex displacements w and chords c1, c2 (broadcast together).

    Returns (rows, a1, a2): per solution, the index of its displacement and
    the two chord directions, ordered by index.  A zero displacement has no
    solution here: for c1 = c2 its solutions are the back-to-back chords of
    a whole circle, which ``_solve_arcs`` solves on the turns.
    """
    w, c1, c2 = np.broadcast_arrays(*(np.atleast_1d(x) for x in (w, c1, c2)))
    d = np.abs(w)
    reach = (d >= 1e-12) & (d <= c1 + c2 + 1e-12) & (d >= np.abs(c1 - c2) - 1e-12)
    g = np.arccos(np.clip((c1 * c1 + d * d - c2 * c2) / (2.0 * c1 * np.where(reach, d, 1.0)),
                          -1.0, 1.0))
    base = np.angle(w)
    # both elbow branches of each displacement, one when they coincide
    rows = np.repeat(np.arange(len(d)), 2)
    a1 = np.stack([base + g, base - g], axis=1).ravel()
    keep = np.repeat(reach, 2) & (np.tile([True, False], len(d)) | np.repeat(g > 1e-15, 2))
    rest = w[rows] - c1[rows] * np.exp(1j * a1)
    # a degenerate second chord is only valid if c2 is consumed exactly
    keep = np.flatnonzero(keep & (np.abs(rest) >= 1e-15))
    return rows[keep], a1[keep], np.angle(rest[keep])


def _solve_arcs(inst: _Instance, sigmas, ks):
    """One, two or three arcs in a row whose chords close from U to V.

    Arc i's chord direction a_i is its first edge direction plus its half
    sweep h_i, so the chord directions fix every turn and the heading band
    fixes their sum: a row is feasible iff its chords close position with
    every turn within theta, and all its realizations have one length.  One
    arc's chord points along w.  Two arcs form a two-link chain, or for
    w = 0 and c1 = c2 a back-to-back pair whose middle joint is fixed: the
    even split of what it leaves to phi_u and phi_v is within theta iff any
    split is (a member at a bound would turn by theta at U or V, which types
    as one more arc).  Three arcs leave a one-parameter family with a
    feasible member iff one has a turn at +-theta or, where a whole loop of
    it is feasible, one where a1 turns back (chords 2 and 3 parallel or
    antiparallel).  Fixing that one angle fixes an end chord or welds two
    chords into one rigid link, which leaves a two-link closure.  Closures
    run one kind at a time over the rows no earlier kind solved, and a row
    keeps its first solution whose turns all lie within theta.
    """
    th, psi_u, psi_v = inst.params.theta, inst.psi_u, inst.psi_v
    c, h = _chord(inst.params, ks), (ks - 1) * sigmas * th / 2.0
    w = complex(*inst.w)
    chords, has = np.zeros(ks.shape), np.zeros(len(ks), dtype=bool)

    def keep(rows, *a):  # record solutions; the rows still unsolved
        a = np.stack(a, axis=1)
        psi = a - h[rows]
        ok = _turns_ok(th, psi[:, 0] - psi_u, *(psi[:, 1:] - psi[:, :-1] - 2.0 * h[rows, :-1]).T,
                       psi_v - psi[:, -1] - 2.0 * h[rows, -1])
        pick, got = _first_ok(len(ks), rows, ok)
        chords[got], has[got] = a[pick[got]], True
        return np.flatnonzero(~has)

    if ks.shape[1] == 1:
        at = np.flatnonzero((np.abs(inst.d - c[:, 0]) <= inst.snap_tol)
                            & (inst.d > inst.params.tol_dedup))
        keep(at, np.full(len(at), np.angle(w)))
    elif ks.shape[1] == 2:
        todo = keep(*_two_link(w, c[:, 0], c[:, 1]))
        a1 = psi_u + h[todo, 0] + _norm_arr(psi_v - psi_u - h[todo, 0] - h[todo, 1] - math.pi) / 2.0
        rest = w - c[todo, 0] * np.exp(1j * a1)
        at = np.flatnonzero(np.abs(np.abs(rest) - c[todo, 1]) <= inst.snap_tol)
        keep(todo[at], a1[at], np.angle(rest[at]))
    else:
        todo = np.arange(len(ks))
        for bound in (-th, th):  # phi_u at a bound fixes a1
            a1 = psi_u + h[todo, 0] + bound
            at, a2, a3 = _two_link(w - c[todo, 0] * np.exp(1j * a1), c[todo, 1], c[todo, 2])
            todo = keep(todo[at], a1[at], a2, a3)
        for bound in (-th, th):  # phi_v at a bound fixes a3
            a3 = psi_v - h[todo, 2] - bound
            at, a1, a2 = _two_link(w - c[todo, 2] * np.exp(1j * a3), c[todo, 0], c[todo, 1])
            todo = keep(todo[at], a1, a2, a3[at])
        for delta in (h[:, 0] + h[:, 1] - th, h[:, 0] + h[:, 1] + th):
            # the joint of arcs 1 and 2 at a bound fixes a2 - a1
            link = c[todo, 0] + c[todo, 1] * np.exp(1j * delta[todo])
            at, a, a3 = _two_link(w, np.abs(link), c[todo, 2])
            a1 = a - np.angle(link[at])
            todo = keep(todo[at], a1, a1 + delta[todo[at]], a3)
        mid = h[:, 1] + h[:, 2]
        for delta in (mid - th, mid + th, np.zeros(len(ks)), np.full(len(ks), math.pi)):
            # the joint of arcs 2 and 3 at a bound, or chords 2 and 3
            # parallel or antiparallel, fixes a3 - a2
            link = c[todo, 1] + c[todo, 2] * np.exp(1j * delta[todo])
            at, a1, a = _two_link(w, c[todo, 0], np.abs(link))
            a2 = a - np.angle(link[at])
            todo = keep(todo[at], a1, a2, a2 + delta[todo[at]])
    psis = chords - h

    def build(r: int) -> list[Point2]:
        return _build_elements(inst, [("arc", s, k, p) for s, k, p in zip(
            sigmas[r].tolist(), ks[r].tolist(), psis[r].tolist())])

    return np.where(has, ks.sum(axis=1) * inst.params.ell, math.inf), build


# ---------------------------------------------------------------------------
# arcs with partial end edges

# Element words with one or two free-length edges F.  An F next to an arc is
# that arc's partial first or last edge when it is short, and a bridge
# carrying the arc's ell-head otherwise; an F between two arcs is the short
# edge they overlap in, or a bridge.  For fixed edge directions the lengths
# solve a linear program with two closure equations, so a shortest path has
# at most two edges whose length is neither 0 nor ell.  These are the words
# over at most three arcs with one or two F edges that the words above miss
# (AF, FA and AFA are AB, BA and ABA, whose row solvers ``_solve_bridged``
# builds from ``_solve_partial``).
_PARTIAL_SHAPES = (
    "FAF",
    "FAA", "AAF", "FAFA", "AFAF", "FAAF",
    "FAAA", "AFAA", "AAFA", "AAAF",
    "FAAAF", "FAFAA", "FAAFA", "AFAAF", "AFAFA", "AAFAF",
)
_PAIR_BUDGET = 100000  # row-pattern pairs (row-cell pairs in ``_chord_gap``) per chunk


@dataclass(frozen=True)
class _Patterns:
    """Joint-turn rows of a partial-arc shape.

    ``vals`` holds turn-bound values, with 0 in the column of the joint
    closed by the heading (``head``) and, on rows of a one-parameter family,
    in the column of the joint that parameterizes it (``scan``, else -1);
    a family turns both F edges of a two-F shape or neither.  Rows with one
    sum of ``vals`` and one reach of their free joints (theta for one, 2
    theta for a family) form a ``group``, whose ``sums`` and ``reach`` the
    heading test reads once.  ``_solve_partial`` pairs every row of arc
    orientations and edge counts with every pattern, at most
    ``_PAIR_BUDGET`` pairs per chunk.

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
    opposite turns parameterize a one-parameter family.  With one F edge,
    position closure leaves one equation that the family solves.  With two,
    both lengths solve position closure, so a family contributes only the
    stationary points of their sum, and the rows with only the heading joint
    free are kept too.  A family whose turning block (the tokens from its
    first joint up to its heading joint) holds one of the two F edges has
    none and is dropped: with e1 turning and c the block's chords, closure
    R(t) (l1 e1 + c) + l2 e2 = r gives l1 + l2 = a + C tan(psi / 2) for the
    angle psi = psi_0 + t between the F edges, monotone in t wherever they
    are not parallel.  The families left turn both F edges or neither, so
    cross(e1, e2) is constant along each.

    An F capped below ell (``_f_caps``) is shorter than a full edge and no
    inflection, so its two joints must turn by at most theta together: rows
    fixing both at one bound, +theta or -theta, never close and are dropped,
    so they take no share of a chunk's pair budget.

    AF, FA and AFA are the words AB, BA and ABA, and per row these patterns
    need not find their shortest bridge: the exact minimum over the end
    turns can hold one joint at a bound, or none, where the patterns hold
    two.  Such a row never wins the plan, because its exact optimum is a
    neighbouring row's polyline or loses to one.  Where a one-edge arc meets
    the bridge at a zero turn, the optimum is the polyline of the row
    without that arc, which the patterns reach: from (0, 0, 0 deg) to
    (7, 2, 40 deg) at n = 16 the exact ABA row (1, 1) is 7.280261636878005,
    the length of the BA winner, where AFA gives 7.283037569490061.  Every
    other such optimum is beaten by a strictly shorter candidate of another
    row; many type as AABA or ABAA, a forbidden factor.  On the 80 instances
    of ``test_plan_not_beaten_by_exact_bridge_rows`` the patterns give 560
    rows longer than an exact optimum that validates: 106 of those optima
    are a neighbouring row's polyline and the other 454 lose to a shorter
    candidate.
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
    tokens = np.arange(len(shape))
    arcs = tokens[np.array(list(shape)) == "A"]
    f_cols = tokens[np.array(list(shape)) == "F"]
    after = tokens >= head[:, None]
    inside = (scan[:, None] >= 0) & (tokens >= scan[:, None]) & ~after
    # a family turning one of two F edges has no stationary point
    live = (len(f_cols) == 1) | (inside[:, f_cols].sum(axis=1) != 1)
    # free joints hold 0, so only fixed joints can match a nonzero bound
    for t, cap in zip(f_cols, _f_caps(shape, 1.0)):
        if cap < 1.0:
            live &= (vals[:, t] == 0.0) | (vals[:, t] != vals[:, t + 1])
    vals, head, scan, after, inside = vals[live], head[live], scan[live], after[live], inside[live]
    keys = np.column_stack([vals.sum(axis=1), np.where(scan < 0, theta, 2.0 * theta) + 5e-10])
    groups, group = np.unique(keys, axis=0, return_inverse=True)
    # in steps of theta: the joints up to each token, less all of them past
    # the heading joint (the turns from psi_v back to the token)
    steps = np.rint(vals / theta).astype(int)
    turned = np.cumsum(steps, axis=1)[:, :-1] - after * steps.sum(axis=1)[:, None]
    cols, chords = np.unique(np.hstack([after[:, arcs], turned[:, arcs], inside[:, arcs]]),
                             axis=0, return_inverse=True)
    c_after, c_turned, c_inside = np.split(cols, 3, axis=1)
    turn = np.exp(1j * theta * c_turned)
    on = np.hstack([np.where(c_after, 0.0, turn), np.where(c_after, turn, 0.0)])
    mix = np.vstack([on, on * np.tile(c_inside, 2)]).T
    return _Patterns(vals, head, scan, group.ravel(), *groups.T, chords.ravel(),
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


def _f_lengths(inst: _Instance, shape: str, ks, f_dirs, r):
    """F lengths, total lengths and the mask of partial-arc candidates whose
    F lengths close position and lie within their bounds, from the F edge
    directions ``f_dirs`` and the displacement ``r`` the F edges must cover
    (complex numbers).

    Two F lengths solve position closure as a 2x2 linear system.  One F
    length is the displacement's projection on its direction, which closes
    position when the rest misses V by at most the snap tolerance.  The mask
    keeps F lengths positive and within ``_f_caps``; ``_joints_ok`` tests
    the joints.  Bounds are checked without the validator's tolerances, so
    that candidates never gain length by leaning on them.
    """
    params = inst.params
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
    for ln, cap in zip(lens, _f_caps(shape, params.ell)):
        ok &= (ln > 10.0 * params.tol_dedup) & (ln < cap)
    return lens, ks.sum(axis=1) * params.ell + sum(lens), ok


def _joints_ok(params: Params, joints, lens, f_cols):
    """Mask of partial-arc candidates whose joint turns all lie within theta
    and whose short non-inflection F edges (lengths ``lens``, at tokens
    ``f_cols``) keep turn-over-length: their two joints turn by at most
    theta together."""
    th, ell = params.theta, params.ell
    ok = np.all(np.abs(joints) <= th + 1e-12, axis=1)
    for t, ln in zip(f_cols, lens):
        a, b = joints[:, t], joints[:, t + 1]
        infl = ((a > TOL_ANG) & (b < -TOL_ANG)) | ((a < -TOL_ANG) & (b > TOL_ANG))
        ok &= (ln >= ell * (1.0 - 1e-12)) | infl | (np.abs(a + b) <= th + 1e-12)
    return ok


def _family_coeffs(f_dirs, r_out, r_in, rotating):
    """Closure cross products along two-joint families: cross(e_f(t),
    r_out - R(t) r_in) for each F edge direction e_f as c0 + c1 cos t +
    c2 sin t, then for two F edges D = cross(e1, e2), constant because they
    turn together or not at all.  Vectors are complex numbers; ``rotating``
    flags, per F edge, the rows where it lies in the turning block.

    Raising the turn at the family's first joint by t and lowering it at its
    second joint by t rigidly rotates the tokens between them by t, so every
    cross product of a fixed and a rotating vector is a degree-one
    trigonometric polynomial in t.  With conj(u) v = dot(u, v) + i cross(u,
    v), cross(u, R(t) v) = cross(u, v) cos t + dot(u, v) sin t.
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
        out.append((np.conj(f_dirs[0]) * f_dirs[1]).imag)
    return out


def _layout(shape: str) -> tuple[int, ...]:
    """The arc layout of a partial-arc shape, in steps of theta: how far the
    joints before its first arc, between each two arcs and after its last
    arc turn together at most.  The two joints of a partial end edge turn by
    at most theta together.  ``_chord_gap`` reads a shape only through its
    layout, so shapes that share one share their floors."""
    at = [t for t, letter in enumerate(shape) if letter == "A"]
    caps = _f_caps(shape, 1.0)
    first = at[0] + 1 - (at[0] == 1 and caps[0] < 1.0)
    last = len(shape) - at[-1] - (at[-1] == len(shape) - 2 and caps[-1] < 1.0)
    return (first, *(b - a for a, b in zip(at, at[1:])), last)


_LAYOUTS = {shape: _layout(shape) for shape in _PARTIAL_SHAPES}


def _chord_gap(inst: _Instance, layouts, sigmas, ks):
    """Lower bounds, per row of arc orientations and edge counts and per arc
    layout of ``layouts`` (``_layout``, all of one arc count), on the length
    the F edges of a partial-arc shape with that layout must cover: |w - sum
    of arc chords| over every choice of joint turns within theta that closes
    the heading (rows x layouts).

    Chord i points at psi_u + (sum of joints before arc i) + (sweeps so far)
    + half its own sweep.  The angle between two consecutive chords is
    sampled at steps of theta / 2, 4 b + 1 samples where the joints between
    them turn by at most b theta; at each sample the heading closure leaves
    the first chord's rotation an interval, over which the distance from w
    to the rotated chord sum is exact (a point to an arc of a circle).  The
    sample minimum is lowered by a Lipschitz margin and the interval widened
    by the half-steps, so the bound holds between samples too.

    With one step for every joint, the margin and the widening depend on the
    arc count only, and a layout's samples are a sub-grid of those of the
    widest joints of ``layouts``.  So one grid of chord sums serves every
    layout, one wind pass over it serves every layout with one budget of end
    joints (first, last), and each layout's floor is the minimum over its
    own sub-grid.
    """
    th = inst.params.theta
    n = len(ks)
    ks = np.asarray(ks, dtype=float)
    chords = _chord(inst.params, ks)
    half = (ks - 1) * sigmas * th / 2.0
    widest = [max(between) for between in zip(*(lay[1:-1] for lay in layouts))]
    # the chord sum T in the frame of the first chord, and the joint turn
    # spent between arcs, over the grid
    tx, ty = chords[:, :1], np.zeros((n, 1))
    angle, spent = np.zeros((n, 1)), np.zeros(1)
    margin, slop = np.zeros(n), 0.0
    for i, between in enumerate(widest, 1):
        steps = np.arange(-2 * between, 2 * between + 1) * (th / 2.0)
        cells = angle.shape[1] * len(steps)
        angle = ((angle + (half[:, i - 1] + half[:, i])[:, None])[:, :, None]
                 + steps).reshape(n, cells)
        spent = (spent[:, None] + steps).ravel()
        tx = np.repeat(tx, len(steps), axis=1) + chords[:, i:i + 1] * np.cos(angle)
        ty = np.repeat(ty, len(steps), axis=1) + chords[:, i:i + 1] * np.sin(angle)
        margin += chords[:, i:].sum(axis=1) * (th / 4.0)
        slop += th / 4.0
    need = _norm_arr(inst.psi_v - inst.psi_u - 2.0 * half.sum(axis=1))[:, None]
    size = np.hypot(tx, ty).ravel()
    base = inst.psi_u + half[:, :1] + np.arctan2(ty, tx)
    bearing = math.atan2(inst.w[1], inst.w[0])
    aim = (bearing - base).ravel()
    out = np.empty((n, len(layouts)))
    for ends in sorted({(lay[0], lay[-1]) for lay in layouts}):
        # the joints before the first arc rotate T; with the joints after
        # the last arc they close the heading (up to whole turns).  The
        # distance from w grows with the angular miss on [0, pi], so each
        # cell takes its smallest miss over the winds that leave it an
        # interval (few do), and cells that no wind leaves one get no
        # distance.  A wind leaves one only where |need + wind 2 pi - spent|
        # is at most first + last + slop, and |need| <= pi
        first, last = ends[0] * th, ends[1] * th
        turn = first + last + slop + sum(widest) * th
        winds = int((math.pi + turn) / TWO_PI + 1e-9)
        miss = np.full(aim.size, math.inf)
        for wind in range(-winds, winds + 1):
            target = need + wind * TWO_PI - spent
            lo = np.maximum(-first, target - last - slop).ravel()
            hi = np.minimum(first, target + last + slop).ravel()
            at = np.flatnonzero(lo <= hi)
            lo, hi = lo[at], hi[at]
            off = np.maximum(0.0, np.abs(_norm_arr(aim[at] - (lo + hi) / 2.0)) - (hi - lo) / 2.0)
            miss[at] = np.minimum(miss[at], off)
        gap = np.full(aim.size, math.inf)
        at = np.flatnonzero(miss < math.inf)
        gap[at] = np.sqrt((inst.d - size[at]) ** 2
                          + 4.0 * inst.d * size[at] * np.sin(miss[at] / 2.0) ** 2)
        gap = gap.reshape(n, *(4 * b + 1 for b in widest))
        for j, lay in enumerate(layouts):
            if (lay[0], lay[-1]) == ends:
                sub = gap[(slice(None), *(slice(2 * (b - mine), 2 * (b + mine) + 1)
                                          for b, mine in zip(widest, lay[1:-1])))]
                out[:, j] = sub.min(axis=tuple(range(1, sub.ndim)))
    return np.maximum(out - margin[:, None],
                      (inst.d - chords.sum(axis=1))[:, None]).clip(0.0)


def _trig_roots(a, b, c):
    """Both roots of a sin t + b cos t + c = 0 per row, and the mask of rows
    that have them."""
    amp = np.hypot(a, b)
    has = (amp > 1e-14) & (np.abs(c) <= amp)
    arc = np.arcsin(np.clip(-c / np.where(has, amp, 1.0), -1.0, 1.0))
    phase = np.arctan2(b, a)
    return (arc - phase, math.pi - arc - phase), has


def _partial_candidates(inst: _Instance, shape: str, sigma_rows, ks_rows,
                        patterns: _Patterns, length_cap: float):
    """Feasible closed-form realizations of a partial-arc shape over rows of
    arc orientations and edge counts that are no longer than ``length_cap``:
    per realization, the index of its row, its joint turns, its F lengths
    (realizations x F edges) and its length.

    Along a two-joint family the cross products of ``_family_coeffs`` are
    c0 + c1 cos t + c2 sin t.  With two F edges the F length sum is N / D
    for N = X1 - X2, X_f = cross(e_f, r), and the constant D = cross(e1,
    e2), so its stationary points solve N' = 0 in closed form; with one F
    edge the family closes position where X1 = 0.  A solved row's F
    directions and displacement are its t = 0 vectors turned by t: e_f(t) =
    R(t) e_f on the turning block, r(t) = r_out - R(t) r_in.
    """
    th, ell = inst.params.theta, inst.params.ell
    need = inst.psi_v - inst.psi_u - ((ks_rows - 1) * sigma_rows).sum(axis=1) * th
    # the free joints must be able to close the heading at all; the test
    # depends on a pattern only through its group
    left = _norm_arr(need[:, None] - patterns.sums[None, :])
    fits = (np.abs(left) <= patterns.reach)[:, patterns.group]
    # every row against every chords column at t = 0: r = r_out - r_in is
    # w less all chords, r_in the chord sum of the turning block (einsum's
    # own loop, as a BLAS product of this size would start threads)
    vec = _leads(inst, shape, sigma_rows, ks_rows)
    arcs = [t for t, letter in enumerate(shape) if letter == "A"]
    both = np.einsum("rk,kc->rc", vec[:, :, arcs].reshape(len(vec), -1), patterns.mix)
    r, r_in = np.hsplit(both, 2)
    r = complex(*inst.w) - r
    # the F edges must cover |r_out - R(t) r_in|, which turning a family by
    # |t| <= theta (+ 1e-12) moves by at most 2 |r_in| sin(theta / 2)
    # (+ |r_in| 1e-12): within their caps, and within the length cap after
    # the arcs' edges (one F edge may miss r by the snap tolerance)
    gap = np.abs(r) - np.abs(r_in) * (2.0 * math.sin(th / 2.0) + 1e-12) - inst.snap_tol
    floor = (ks_rows.sum(axis=1) * ell)[:, None] + gap
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
        (_, x1c, x1s), (_, x2c, x2s), d = coeffs
        # N' = 0, scaled by D:  -(n1 D) sin t + (n2 D) cos t = 0
        roots, has_root = _trig_roots(-((x1c - x2c) * d), (x1s - x2s) * d, 0.0)
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
    rows, turns, heads = (np.concatenate(x) for x in (rows, turns, heads))
    spin = np.exp(1j * turns)
    dirs = [np.where(m, spin * e[rows], e[rows])
            for e, m in zip(f_dirs, patterns.f_inside[pat[rows]].T)]
    lens, total, ok = _f_lengths(inst, shape, ks_rows[tup[rows]], dirs,
                                 r_out[rows] - spin * r_in[rows])
    # only the candidates whose F lengths close within their caps and the
    # length cap get their joint rows
    keep = np.flatnonzero(ok & (total <= length_cap))
    rows, turns, lens, total = rows[keep], turns[keep], [ln[keep] for ln in lens], total[keep]
    solved = pat[rows]
    joints = patterns.vals[solved]
    joints[np.arange(len(rows)), patterns.head[solved]] = heads[keep]
    turning = np.flatnonzero(scan[rows] >= 0)
    joints[turning, scan[rows[turning]]] = turns[turning]
    ok = np.flatnonzero(_joints_ok(inst.params, joints, lens, f_cols))
    return tup[rows[ok]], joints[ok], np.column_stack(lens)[ok], total[ok]


def _solve_partial(inst: _Instance, shape: str, sigmas, ks, length_cap: float):
    """Row solver of a partial-arc shape: per row of arc orientations and
    edge counts, the length of its shortest feasible closed-form realization
    no longer than ``length_cap`` (inf where there is none), and a function
    building a row's vertices, as for the words of ``_ROW_SOLVERS``.

    ``_partial_candidates`` takes the rows in chunks of at most
    ``_PAIR_BUDGET`` row-pattern pairs, which bounds the memory of the pass;
    a row's candidates all come from its own chunk, so the answer does not
    depend on the chunk size.  A row keeps its first shortest candidate: its
    joint turns and the F lengths that ranked it lay the row out.
    """
    th = inst.params.theta
    patterns = _joint_patterns(shape, th)
    step = max(1, _PAIR_BUDGET // len(patterns.vals))
    lengths, joints = np.full(len(ks), math.inf), np.zeros((len(ks), len(shape) + 1))
    f_lens = np.zeros((len(ks), shape.count("F")))
    for c0 in range(0, len(ks), step):
        at, j, f, total = _partial_candidates(inst, shape, sigmas[c0:c0 + step],
                                              ks[c0:c0 + step], patterns, length_cap)
        order = np.lexsort((total, at))
        rows, first = np.unique(at[order], return_index=True)
        pick = order[first]
        lengths[rows + c0], joints[rows + c0], f_lens[rows + c0] = total[pick], j[pick], f[pick]

    def build(r: int) -> list[Point2]:
        # each token's entry direction: psi_u, the joints up to it and the
        # sweeps of the arcs before it
        psi = inst.psi_u + np.cumsum(joints[r, :-1])
        arcs, f_len = zip(sigmas[r].tolist(), ks[r].tolist()), iter(f_lens[r].tolist())
        elements = []
        for t, letter in enumerate(shape):
            if letter == "F":
                elements.append(("bridge", next(f_len), float(psi[t])))
                continue
            sigma, k = next(arcs)
            elements.append(("arc", sigma, k, float(psi[t])))
            psi[t + 1:] += (k - 1) * sigma * th
        return _build_elements(inst, elements)

    return lengths, build


def _solve_bridged(shape: str):
    """Row solver of the true-type word with a bridge that ``shape`` spells
    with an F: the partial-arc solver within the length cap ``cap``, none
    unless given."""
    return lambda inst, sigmas, ks, cap=math.inf: _solve_partial(inst, shape, sigmas, ks, cap)


# the true-type words with a bridge, spelled as partial-arc shapes
_BRIDGED = {"AB": "AF", "BA": "FA", "ABA": "AFA"}

# the true-type words, in the order plan solves them
_ROW_SOLVERS = {
    "B": _solve_B,
    "A": _solve_arcs,
    "AA": _solve_arcs,
    **{word: _solve_bridged(shape) for word, shape in _BRIDGED.items()},
    "AAA": _solve_arcs,
}


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


# every word plan solves, in that order, and the widest heading slack of
# each arc count's words, in steps of theta
_WORDS = (*_ROW_SOLVERS, *_PARTIAL_SHAPES)
_WIDEST_SLACK = {n_arcs: max(len(w) + 1 for w in _WORDS if w.count("A") == n_arcs)
                 for n_arcs in range(4)}


class _ArcRows:
    """The rows of one arc count in a ``plan`` call.

    ``_word_rows`` builds them once, at the widest heading slack of the
    count's words and at the length cap of the count's first word.  Each
    row keeps the two quantities ``_word_rows`` bounds: its heading miss
    (the turn its arcs leave to the joints) and its edges' length.  A word
    picks its rows by its own slack and the current cap, so it gets what
    ``_word_rows`` would give it, in the same order.  The floor of a
    partial-arc shape depends on the shape only through its arc layout
    (``_layout``), and the layouts of one arc count share ``_chord_gap``'s
    grid, so one ``_chord_gap`` pass gives every layout of the count its
    floors: one wind pass per budget (first, last) of end joints, which the
    four three-arc layouts share and the five two-arc layouts split three
    ways.
    """

    def __init__(self, inst: _Instance, dpsi: float, sigmas, ks):
        params = inst.params
        self.inst, self.sigmas, self.ks = inst, sigmas, ks
        self.miss = np.abs(_norm_arr(dpsi - ((ks - 1) * sigmas).sum(axis=1) * params.theta))
        self.edges = ks.sum(axis=1) * params.ell
        self.chords = _chord(params, ks).sum(axis=1)
        self.floors: dict[tuple[int, ...], np.ndarray] = {}

    def pick(self, slack: float, cap: float):
        """Indices of the rows within heading slack ``slack`` whose arcs'
        edges fit the length cap, ascending."""
        return np.flatnonzero((self.miss <= slack + 1e-9) & (self.edges <= cap))

    def floor(self, layout: tuple[int, ...], cap: float):
        """``_chord_gap`` per row under an arc layout.  The first call
        computes it for every layout of the arc count, on the union of the
        rows any of them can keep: within the cap of that call and the
        widest reach and heading turn of the count's shapes (inf elsewhere).
        The union is taken because a later layout may turn or reach further
        than the first one; a later word never has a wider cap, so it never
        picks the rows left out.

        ``_chord_gap`` is never below what the chords leave of |UV|, so a row
        whose edges plus that exceed the cap is left out; so is a row whose
        heading miss no layout's joints can close, even with the slop of
        ``_chord_gap``'s grid: no wind leaves any of its cells an interval.
        The rows go through ``_chord_gap`` in chunks of at most
        ``_PAIR_BUDGET`` row-cell pairs, which bounds the memory of the
        pass; a row's floors depend on that row alone, so not on the chunk
        size."""
        if not self.floors:
            inst = self.inst
            th, ell, tol_len = inst.params.theta, inst.params.ell, inst.params.tol_len
            shapes = [shape for shape in _PARTIAL_SHAPES if len(_LAYOUTS[shape]) == len(layout)]
            layouts = sorted({_LAYOUTS[shape] for shape in shapes})
            reach = max(sum(_f_caps(shape, ell)) for shape in shapes)
            turn = max(map(sum, layouts)) * th + (len(layout) - 2) * th / 4.0 + 1e-9
            at = np.flatnonzero((self.edges + np.maximum(0.0, inst.d - self.chords) <= cap)
                                & (inst.d <= self.chords + reach + tol_len)
                                & (self.miss <= turn))
            cells = math.prod(4 * max(between) + 1
                              for between in zip(*(lay[1:-1] for lay in layouts)))
            step = max(1, _PAIR_BUDGET // cells)
            gaps = np.full((len(self.ks), len(layouts)), math.inf)
            for c0 in range(0, len(at), step):
                rows = at[c0:c0 + step]
                gaps[rows] = _chord_gap(inst, layouts, self.sigmas[rows], self.ks[rows])
            self.floors = dict(zip(layouts, gaps.T))
        return self.floors[layout]


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


def _dubins_seed(inst: _Instance) -> _Frame | None:
    """Frame of the scaled discretization of the smooth Dubins curve, each
    straight kept as one edge; always feasible (chords over arclength steps
    theta keep every constraint, and dropping a vertex between two collinear
    edges changes no turn), so its length both seeds the incumbent and
    guarantees the planned length never exceeds the discretized smooth
    length."""
    gamma, params = inst.dubins, inst.params
    if gamma is None or gamma.length <= params.theta * (1.0 + 1e-9):
        return None
    try:
        samples = gamma.sample(_smooth.breakpoints_skipping_straights(gamma, params.theta))
    except (ValueError, RuntimeError):
        return None
    verts = [scale(p, params.circumradius) for p, _ in samples]
    verts[-1] = inst.V.point
    frame = inst.finish(verts)
    if frame is None:
        log.warning("dubins discretization seed failed validation; skipped")
    return frame


def _smooth_guess(inst: _Instance):
    """Arc sweep estimates from the smooth solution, for guided enumeration."""
    if inst.dubins is None:
        return None
    return [(seg.orientation, seg.sweep) if isinstance(seg, _smooth.ArcSeg)
            else (0, seg.length) for seg in inst.dubins.segments]


def plan(U: Configuration, V: Configuration, params: Params) -> PlanResult:
    """Minimum-length feasible path over the candidate shapes of the module
    docstring.

    Candidate arcs are runs of full ell-edges, optionally carrying a partial
    first and last edge of length in (0, ell], overlapping a neighbour in a
    short edge, or joined to it by a bridge.  On fine grids (n_sides > 48)
    arc edge counts are limited to a few steps around the smooth Dubins
    solution's sweeps plus small counts, and three-arc shapes to the CCC
    orientations.  Ties are broken by shorter type word, then
    lexicographically.  A winner outside the typing domain or with a
    forbidden factor (the guided enumeration can leave one) is polished with
    the rewriter.  The result always validates and carries a true type.

    Every word goes through one loop body: its rows, a length floor that
    prunes them against the incumbent, and ``push_rows``, the only place
    rows are finished.  ``diagnostics`` lists the rows that had a
    realization, solved, failed or pruned (``CandidateDiag``).
    """
    inst = _Instance(U, V, params)
    th, ell, tol_len = params.theta, params.ell, params.tol_len
    k_cap = params.n_sides - 1
    guided = params.n_sides > 48
    counts = (_guided_range(_smooth_guess(inst), th, k_cap) if guided
              else list(range(1, k_cap + 1)))
    dpsi = normalize_angle(inst.psi_v - inst.psi_u)
    diags: list[CandidateDiag] = []
    found: list[_Frame] = []
    incumbent = math.inf

    def push_rows(word, sigmas, ks):
        """Solve rows of one word at once with its row solver (for a word
        with an F edge, within the incumbent), then finish them shortest
        first until one validates and every row tied with the incumbent is
        finished.  Rows longer than the incumbent are listed as pruned; the
        loop stops at the first row without a realization (inf length), and
        no such row is listed."""
        nonlocal incumbent
        if not len(ks):
            return
        cap = incumbent + tol_len  # the one cap of every word with an F edge
        if word in _BRIDGED:
            lengths, build = _ROW_SOLVERS[word](inst, sigmas, ks, cap)
        elif word in _ROW_SOLVERS:
            lengths, build = _ROW_SOLVERS[word](inst, sigmas, ks)
        else:
            lengths, build = _solve_partial(inst, word, sigmas, ks, cap)
        for r in np.argsort(lengths, kind="stable").tolist():
            length = float(lengths[r])
            if length == math.inf:
                break
            row = (word, tuple(sigmas[r].tolist()), tuple(ks[r].tolist()))
            if length > incumbent + 1e-9 * max(1.0, incumbent):
                diags.append(CandidateDiag(*row, "pruned", length))
                continue
            frame = inst.finish(build(r))
            if frame is None:
                diags.append(CandidateDiag(*row, "failed", length))
                continue
            found.append(frame)
            diags.append(CandidateDiag(*row, "solved", frame.total))
            incumbent = min(incumbent, frame.total)

    seed = _dubins_seed(inst)
    if seed is not None:
        incumbent = seed.total

    # Every word's rows come from the heading band of its arc count, pruned
    # by the length floor: the arcs' edges plus a lower bound on what the
    # other edges must cover, which must reach V (a bridge reaches anywhere,
    # F edges as far as ``_f_caps``).  The bound is what the chords leave of
    # the displacement, or for the partial-arc shapes the finer
    # ``_chord_gap`` of their arc layout.
    rows: dict[int, _ArcRows] = {}
    for word in _WORDS:
        n_arcs = word.count("A")
        reach = math.inf if "B" in word else sum(_f_caps(word, ell))
        if inst.d > n_arcs * 2.0 * params.circumradius + reach + tol_len:
            continue  # out of reach for every edge count
        if n_arcs not in rows:
            rows[n_arcs] = _ArcRows(inst, dpsi, *_word_rows(
                n_arcs, dpsi, th, _WIDEST_SLACK[n_arcs] * th, counts, guided, ell,
                incumbent + tol_len))
        arcs = rows[n_arcs]
        at = arcs.pick((len(word) + 1) * th, incumbent + tol_len)
        at = at[inst.d <= arcs.chords[at] + reach + tol_len]
        gap = (np.maximum(0.0, inst.d - arcs.chords[at]) if word in _ROW_SOLVERS
               else arcs.floor(_LAYOUTS[word], incumbent + tol_len)[at])
        at = at[(gap <= reach + tol_len) & (arcs.edges[at] + gap <= incumbent + tol_len)]
        push_rows(word, arcs.sigmas[at], arcs.ks[at])

    if not found:
        raise PlannerError("no candidate solved; this instance needs investigation")

    found.sort(key=lambda frame: frame.total)
    best_len = found[0].total
    tol = 1e-9 * max(1.0, best_len)

    def typed(frame):  # untypeable candidates type as None
        st = _typed(frame)
        return frame, None if st is None else st.type_word

    def tie_key(entry):  # None sorts after typed ties
        frame, word = entry
        return (word is None, len(word or ""), word or "", len(frame.path.vertices))

    tied = sorted((typed(f) for f in found if f.total <= best_len + tol), key=tie_key)
    rest = (typed(f) for f in found if f.total > best_len + tol)
    for frame, word in itertools.chain(tied, rest):
        if _is_true(word):
            return PlanResult(best=frame.path, type_word=word, length=frame.total,
                              diagnostics=diags)
        # no true type: the enumeration missed the optimum (the guided one
        # can), so polish the winner with the rewriter
        polished, _trace = shorten(frame.path, params, budget=4000)
        pword = type_or_none(polished, params)
        plen = path_length(polished)
        if plen <= frame.total + tol and _is_true(pword):
            return PlanResult(best=polished, type_word=pword, length=plen,
                              diagnostics=diags)
    raise PlannerError("no candidate produced a true-type feasible path")


def _is_true(word: str | None) -> bool:
    return word == "" or is_true_type(word)


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
    elements = []
    arcs = zip(spec.orientations, spec.ks)
    for letter in spec.word:
        psi += phis.pop(0)
        if letter == "A":
            sigma, k = next(arcs)
            elements.append(("arc", sigma, k, psi))
            psi += max(0, k - 1) * sigma * params.theta
        elif letter == "B":
            elements.append(("bridge", spec.s if spec.s is not None else 0.0, psi))
        else:
            raise ValueError(f"unknown letter {letter!r} in word {spec.word!r}")
    psi += phis.pop(0)
    verts = _build_elements(_Instance(U, V, params), elements)
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
    frame = inst.finish(build(0)) if lengths[0] < math.inf else None
    return None if frame is None else frame.path
