"""Local shortening and restructuring moves on feasible paths.

Every move follows the same discipline: build a candidate vertex list for a
trial step, check full feasibility with the validator, and halve the step on
failure down to a minimum before declaring the move inapplicable.  Applied
moves strictly decrease (length, type length) lexicographically, so repeated
application drives a path toward a fixed point whose type word carries no
forbidden factor.

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
                          inflection/long partner, breaking the long edge.
* BRIDGE_TRANSLATE     -- slide the subpath between a bridge and a long edge
                          or a second (non-similar) bridge.
* AAB_ELIM             -- rotate the arc of an arc-arc-bridge pattern about
                          the shared arc vertex, shortening the bridge; when
                          the two arcs overlap inside a long edge, slide the
                          arc next to the bridge back along that edge.
* AAAA_TO_AAA          -- reduce a run of four arcs: an equal-length
                          three-rotation family merges two arcs, with trio
                          slide fallbacks when the run contains an
                          inflection or long edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .geometry import (
    Point2,
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
    classify_edge,
    edge_lengths,
    measure,
    path_length,
    reverse,
    transform,
    turns_inflect,
    validate,
    vertex_turns,
)
from .structure import (
    InternalInconsistencyError,
    canonicalize,
    structure_of,
    type_or_none,
)

STEP_MIN_FRACTION = 1e-10  # smallest trial step, as a fraction of ell
IMPROVE_FRACTION = 1e-10   # minimal accepted gain, as a fraction of ell
HALVINGS = 40
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

def _tidy(path: DiscretePath, params: Params) -> DiscretePath:
    """Drop zero-turn internal vertices, one at a time, keeping only drops
    that leave the path feasible."""
    cur = path
    changed = True
    while changed and len(cur.vertices) > 2:
        changed = False
        turns = vertex_turns(cur)
        for i in range(1, len(cur.vertices) - 1):
            if abs(turns[i]) > TOL_ANG:
                continue
            verts = cur.vertices[:i] + cur.vertices[i + 1:]
            got = _eval_step(cur, params, lambda _d: verts, 0.0)
            if got is None:
                continue
            cur = got[0]
            changed = True
            break
    return cur


def _turn_cap(base_path: DiscretePath, params: Params) -> float:
    """Margin cap for boundary-landed steps: slightly inside the validator's
    tolerance, but never below what the input path already carries (so that
    paths born at the tolerance edge can still be rewritten)."""
    worst = max(abs(t) for t in vertex_turns(base_path))
    return max(params.theta + 0.4 * TOL_ANG, worst + 0.05 * TOL_ANG)


def _eval_step(base_path: DiscretePath, params: Params, builder, d: float,
               cap: float | None = None):
    """(candidate path, its length) for one step, or None if infeasible.

    One ``measure`` pass gives the violations, the turns for the cap and the
    edge lengths.  With ``cap`` the turn bound is tightened slightly below
    the validator's tolerance, so that boundary-landed steps survive the
    float drift of later re-derivations (canonicalization splits edges and
    recomputes the same turns from different vectors).
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
    return cand, sum(lengths)


def _attempt(base_path: DiscretePath, params: Params, builder, d_max: float,
             discrete: bool = False, events=()):
    """Find the best feasible improving step of a move.

    The step is optimized, not just halved: exact event steps (edge lengths
    crossing ell, edges shrinking to nothing) are tried first, then the
    harness bisects up to the feasibility boundary (where turn constraints
    become tight, which is exactly where arcs merge) and golden-searches the
    interior.  The shortest feasible result wins.  Returns
    (new_path, used_step) or None.
    """
    improve = IMPROVE_FRACTION * params.ell
    base = path_length(base_path)

    if discrete:
        got = _eval_step(base_path, params, builder, d_max)
        if got is not None and got[1] <= base - improve:
            return _tidy(got[0], params), d_max
        return None

    best = None  # (length, path, step)
    for d in events:
        if not (0.0 < d <= d_max * (1.0 + 1e-12)):
            continue
        got = _eval_step(base_path, params, builder, d)
        if got is not None and (best is None or got[1] < best[0]):
            best = (got[1], got[0], d)

    if d_max <= 0.0:
        if best is not None and best[0] <= base - improve:
            return _tidy(best[1], params), best[2]
        return None
    d_min = STEP_MIN_FRACTION * params.ell

    # find any feasible step by halving
    d_feas, feas = None, None
    d = d_max
    for _ in range(HALVINGS):
        got = _eval_step(base_path, params, builder, d)
        if got is not None:
            d_feas, feas = d, got
            break
        d *= 0.5
        if d < d_min:
            break
    if d_feas is None:
        if best is not None and best[0] <= base - improve:
            return _tidy(best[1], params), best[2]
        return None

    best_d, (best_cand, best_len) = d_feas, feas
    if best is not None and best[0] < best_len:
        best_len, best_cand, best_d = best

    # push toward the feasibility boundary (events: a turn reaching theta),
    # staying a safety margin inside the tolerance
    if d_feas < d_max:
        cap = _turn_cap(base_path, params)
        lo, hi = d_feas, min(2.0 * d_feas, d_max)
        cand = _eval_step(base_path, params, builder, hi, cap=cap)
        while cand is not None and hi < d_max:
            lo, hi = hi, min(2.0 * hi, d_max)
            cand = _eval_step(base_path, params, builder, hi, cap=cap)
        if cand is not None:
            lo = hi
        else:
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if _eval_step(base_path, params, builder, mid, cap=cap) is not None:
                    lo = mid
                else:
                    hi = mid
        boundary = _eval_step(base_path, params, builder, lo, cap=cap)
        if boundary is not None and boundary[1] < best_len:
            best_d, (best_cand, best_len) = lo, boundary
        upper = lo
    else:
        upper = d_max

    # golden search the interior for the best improving step
    def objective(d):
        got = _eval_step(base_path, params, builder, d)
        return math.inf if got is None else got[1]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, upper
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
    f1, f2 = objective(c1), objective(c2)
    for _ in range(40):
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = objective(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = objective(c2)
    d_gold = 0.5 * (a + b)
    got = _eval_step(base_path, params, builder, d_gold)
    if got is not None and got[1] < best_len:
        best_d, (best_cand, best_len) = d_gold, got

    if best_len <= base - improve:
        return _tidy(best_cand, params), best_d
    return None


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


# ---------------------------------------------------------------------------
# local edge rules (raw path)

class _Ctx:
    def __init__(self, path: DiscretePath, params: Params):
        self.path = path
        self.verts = list(path.vertices)
        self.lens = edge_lengths(path)
        self.classes = [classify_edge(ln, params) for ln in self.lens]
        self.turns = vertex_turns(path)
        self.dirs = [unit(sub(self.verts[i + 1], self.verts[i]))
                     for i in range(len(self.verts) - 1)]
        self.infl = [turns_inflect(self.turns[j], self.turns[j + 1])
                     for j in range(len(self.lens))]


def _collapse_sites(ctx: _Ctx, params: Params):
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
            slack = min(ln - params.ell for ln, c in
                        ((ctx.lens[j], ctx.classes[j]),
                         (ctx.lens[j + 1], ctx.classes[j + 1]))
                        if c is EdgeClass.LONG)
            stalled = slack <= 1e-3 * params.ell
        if not stalled:
            continue
        if pair == (EdgeClass.LONG, EdgeClass.LONG):
            yield RuleKind.LONG_LONG_SHORTCUT, (j, "collapse")
        else:
            yield RuleKind.LONG_SHORT_SLIDE, (j, "collapse")


def _collapse_attempt(path: DiscretePath, params: Params, j: int):
    """Remove the near-flat vertex j+1; never lengthens, strictly flattens."""
    verts = path.vertices
    got = _eval_step(path, params, lambda _d: verts[:j + 1] + verts[j + 2:], 0.0)
    if got is None:
        return None
    base = path_length(path)
    if got[1] > base + 1e-15 * max(1.0, base):
        return None
    return _tidy(got[0], params), abs(vertex_turns(path)[j + 1])


def _long_long_sites(ctx: _Ctx):
    for j in range(len(ctx.classes) - 1):
        if (ctx.classes[j] is EdgeClass.LONG
                and ctx.classes[j + 1] is EdgeClass.LONG
                and abs(ctx.turns[j + 1]) > 1e-12):
            yield (j,)


def _long_long_builder(ctx: _Ctx, params: Params, loc):
    (j,) = loc
    d_max = min(ctx.lens[j] - params.ell, ctx.lens[j + 1] - params.ell,
                0.49 * params.ell)
    verts = ctx.verts

    def builder(d):
        a2 = add(verts[j + 1], scale(ctx.dirs[j], -d))
        c2 = add(verts[j + 1], scale(ctx.dirs[j + 1], d))
        return verts[:j + 1] + [a2, c2] + verts[j + 2:]

    # the connector a2-c2 has length 2 d cos(turn/2); landing it exactly on
    # ell keeps the decomposition clean
    events = []
    half = abs(ctx.turns[j + 1]) / 2.0
    if math.cos(half) > 1e-9:
        events.append(params.ell / (2.0 * math.cos(half)))
    events += [ctx.lens[j] - params.ell, ctx.lens[j + 1] - params.ell]
    return d_max, builder, False, events


def _long_short_sites(ctx: _Ctx):
    for j in range(len(ctx.classes) - 1):
        if abs(ctx.turns[j + 1]) <= 1e-12:
            continue
        if ctx.classes[j] is EdgeClass.LONG and ctx.classes[j + 1] is EdgeClass.SHORT:
            yield (j, 0)
        if ctx.classes[j] is EdgeClass.SHORT and ctx.classes[j + 1] is EdgeClass.LONG:
            yield (j, 1)


def _long_short_builder(ctx: _Ctx, params: Params, loc):
    j, side = loc
    verts = ctx.verts
    if side == 0:  # long then short: pull the shared vertex back along the long edge
        d_max = ctx.lens[j] - params.ell
        move = scale(ctx.dirs[j], -1.0)
        far = verts[j + 2]
    else:          # short then long: push the shared vertex into the long edge
        d_max = ctx.lens[j + 1] - params.ell
        move = ctx.dirs[j + 1]
        far = verts[j]

    def builder(d):
        out = list(verts)
        out[j + 1] = add(verts[j + 1], scale(move, d))
        return out

    # step at which the short edge grows to exactly ell (it then joins the
    # arc layer as a normal edge), plus the long edge reaching ell
    events = _ell_cross_events(verts[j + 1], move, far, params.ell)
    events.append(d_max)
    return d_max, builder, False, events


def _inflection_rotate_sites(ctx: _Ctx):
    n_edges = len(ctx.lens)
    for j in range(n_edges):
        if not ctx.infl[j]:
            continue
        if j + 1 < n_edges and ctx.classes[j + 1] is not EdgeClass.NORMAL:
            yield (j, +1)
        if j - 1 >= 0 and ctx.classes[j - 1] is not EdgeClass.NORMAL:
            yield (j, -1)
        if j + 1 < n_edges and ctx.infl[j + 1]:
            yield (j, 0)  # bypass the shared vertex


def _inflection_rotate_builder(ctx: _Ctx, params: Params, loc):
    j, mode = loc
    verts = ctx.verts
    if mode == 0:
        def bypass(_d):
            return verts[:j + 1] + verts[j + 2:]
        return 1.0, bypass, True, ()
    if mode == +1:
        nb, moving = j + 1, j + 1
        move = ctx.dirs[nb]
        opposite = verts[j]      # far end of the inflection edge
        absorb = verts[j + 2]    # vertex the neighbor edge shrinks toward
    else:
        nb, moving = j - 1, j
        move = scale(ctx.dirs[nb], -1.0)
        opposite = verts[j + 1]
        absorb = verts[j - 1]
    merge_at = ctx.lens[nb] - 20.0 * params.tol_dedup

    if ctx.classes[nb] is EdgeClass.SHORT:
        cap = ctx.lens[nb]

        def builder(d):
            if d >= merge_at:
                # the neighbor edge is fully consumed: its vertices merge
                out = list(verts)
                out[moving] = absorb
                del out[absorb_idx]
                return out
            out = list(verts)
            out[moving] = add(verts[moving], scale(move, d))
            return out

        absorb_idx = j + 2 if mode == +1 else j - 1
        events = [ctx.lens[nb]]
    else:
        cap = ctx.lens[nb] - params.ell

        def builder(d):
            out = list(verts)
            out[moving] = add(verts[moving], scale(move, d))
            return out

        events = [cap]
    # the inflection edge itself grows; crossing ell exactly keeps typing clean
    events += _ell_cross_events(verts[moving], move, opposite, params.ell)
    return cap, builder, False, events


_LOCAL_RULES = [
    (RuleKind.LONG_LONG_SHORTCUT, _long_long_sites, _long_long_builder),
    (RuleKind.LONG_SHORT_SLIDE, _long_short_sites, _long_short_builder),
    (RuleKind.INFLECTION_ROTATE, _inflection_rotate_sites, _inflection_rotate_builder),
]


# ---------------------------------------------------------------------------
# canonical structure context

class _Struct(_Ctx):
    """Canonicalized path with its decomposition and free-site indices."""

    def __init__(self, cp: DiscretePath, params: Params):
        super().__init__(cp, params)
        self.params = params
        self.st = structure_of(cp, params)
        self.infl_edges = [j for j, flag in enumerate(self.infl) if flag]
        self.longs = [j for j, c in enumerate(self.classes) if c is EdgeClass.LONG]
        self.bridges = []
        acc, spans = 0.0, []
        for j, ln in enumerate(self.lens):
            spans.append((acc, acc + ln))
            acc += ln
        tol = 1e-6 * max(1.0, params.ell)
        for b in self.st.bridges:
            for j, (s0, s1) in enumerate(spans):
                if abs(s0 - b.start_s) <= tol and abs(s1 - b.end_s) <= tol:
                    self.bridges.append(j)
                    break
        self.vertex_s = [0.0]
        for ln in self.lens:
            self.vertex_s.append(self.vertex_s[-1] + ln)

    def vertex_at(self, pt: Point2) -> int | None:
        tol = 1e-6 * max(1.0, self.params.ell)
        for i, p in enumerate(self.verts):
            if dist(p, pt) <= tol:
                return i
        return None

    def vertex_at_s(self, s: float) -> int | None:
        tol = 1e-6 * max(1.0, self.params.ell)
        for i, vs in enumerate(self.vertex_s):
            if abs(vs - s) <= tol:
                return i
        return None

    def elements(self):
        labeled = ([("A", i, a.start_s, a.end_s) for i, a in enumerate(self.st.arcs)]
                   + [("B", i, b.start_s, b.end_s) for i, b in enumerate(self.st.bridges)])
        labeled.sort(key=lambda t: (t[2], t[3]))
        return labeled

    def arc_runs(self):
        runs, cur = [], []
        for kind, i, *_ in self.elements():
            if kind == "A":
                cur.append(i)
            else:
                if cur:
                    runs.append(cur)
                cur = []
        if cur:
            runs.append(cur)
        return runs


def _make_struct(path: DiscretePath, params: Params) -> _Struct | None:
    try:
        cp = canonicalize(path, params)
        return _Struct(cp, params)
    except (InternalInconsistencyError, ValueError):
        return None


# ---------------------------------------------------------------------------
# block slides between two free sites

def _block_slide_builder(sc: _Struct, src_edge: int, sink_edge: int, mode: str):
    """Translate the subpath between two edges along the source edge
    (shrinking it), reconnecting at the sink edge either directly or by
    breaking the sink at distance ell from one of its ends.

    Returns (builder, events) or None.  At a step equal to the source length
    the source edge is consumed and its endpoints merge.
    """
    verts = sc.verts
    ell = sc.params.ell
    n = len(verts)
    if src_edge == sink_edge:
        return None
    if src_edge < sink_edge:
        block = set(range(src_edge + 1, sink_edge + 1))
        t_dir = unit(sub(verts[src_edge], verts[src_edge + 1]))
        anchor, moving = sink_edge + 1, sink_edge
        src_keep, src_gone = src_edge, src_edge + 1
    else:
        block = set(range(sink_edge + 1, src_edge + 1))
        t_dir = unit(sub(verts[src_edge + 1], verts[src_edge]))
        anchor, moving = sink_edge, sink_edge + 1
        src_keep, src_gone = src_edge + 1, src_edge
    if not block or min(block) <= 0 or max(block) >= n - 1:
        return None
    sink_len = sc.lens[sink_edge]
    src_len = sc.lens[src_edge]
    to_anchor = unit(sub(verts[anchor], verts[moving]))
    merge_at = src_len - 20.0 * sc.params.tol_dedup

    if mode != "direct" and sink_len <= ell:
        return None

    def builder(d):
        t = scale(t_dir, d)
        merging = d >= merge_at
        out = []
        for i, p in enumerate(verts):
            if i == src_gone and merging:
                continue  # source edge fully consumed; endpoints merge
            out.append(add(p, t) if i in block else p)
            if i == sink_edge:
                if mode == "break_moving":
                    out.append(add(add(verts[moving], scale(to_anchor, ell)), t))
                elif mode == "break_anchor":
                    out.append(add(verts[anchor], scale(to_anchor, -ell)))
        return out

    events = [src_len]
    if mode == "direct":
        events += _ell_cross_events(verts[moving], t_dir, verts[anchor], ell)
    return builder, events


def _pair_sites(sc: _Struct, kind: RuleKind):
    turns, dirs = sc.turns, sc.dirs
    if kind is RuleKind.TWO_INFLECTION_SLIDE:
        for x in range(len(sc.infl_edges)):
            for y in range(x + 1, len(sc.infl_edges)):
                i, j = sc.infl_edges[x], sc.infl_edges[y]
                if (turns[i] > 0) != (turns[j] > 0):
                    continue  # turns not similar
                if abs(cross(dirs[i], dirs[j])) < 1e-12:
                    continue  # parallel edges: no strict gain
                yield (i, j, "direct")
                yield (j, i, "direct")
    elif kind is RuleKind.INFLECTION_SLIDE:
        for i in sc.infl_edges:
            for b in sc.bridges:
                if b != i:
                    yield (i, b, "direct")
    elif kind is RuleKind.LONG_BREAK_SLIDE:
        for i in sc.infl_edges:
            for l in sc.longs:
                if l == i:
                    continue
                yield (i, l, "break_moving")
                yield (i, l, "break_anchor")
        for l1 in sc.longs:
            for l2 in sc.longs:
                if abs(l1 - l2) <= 1:
                    continue  # adjacent longs belong to the corner shortcut
                yield (l1, l2, "break_moving")
                yield (l1, l2, "break_anchor")
    elif kind is RuleKind.BRIDGE_TRANSLATE:
        for l in sc.longs:
            for b in sc.bridges:
                if abs(l - b) >= 1:
                    yield (l, b, "direct")
        for b1 in sc.bridges:
            for b2 in sc.bridges:
                if b1 == b2:
                    continue
                if abs(cross(dirs[b1], dirs[b2])) < 1e-12 and \
                        dot(dirs[b1], dirs[b2]) > 0.0:
                    continue  # similar direction: sliding gains nothing
                yield (b1, b2, "direct")


def _pair_cap(sc: _Struct, src: int) -> float:
    if sc.classes[src] is EdgeClass.LONG:
        return sc.lens[src] - sc.params.ell
    return sc.lens[src]


_PAIR_RULES = [
    RuleKind.TWO_INFLECTION_SLIDE,
    RuleKind.INFLECTION_SLIDE,
    RuleKind.LONG_BREAK_SLIDE,
    RuleKind.BRIDGE_TRANSLATE,
]


# ---------------------------------------------------------------------------
# arc-arc-bridge rotation

def _aab_sites(sc: _Struct):
    elements = sc.elements()
    for pos in range(len(elements) - 2):
        kinds = "".join(e[0] for e in elements[pos:pos + 3])
        if kinds == "AAB":
            yield (pos, +1)
        if kinds == "BAA":
            yield (pos, -1)


def _aab_builder(sc: _Struct, loc):
    pos, direction = loc
    elements = sc.elements()
    if pos + 2 >= len(elements):
        return None, None
    trip = elements[pos:pos + 3]
    first, second = (trip[0], trip[1]) if direction == +1 else (trip[1], trip[2])
    a1, a2 = sc.st.arcs[first[1]], sc.st.arcs[second[1]]
    verts = sc.verts
    tol = 1e-3 * sc.params.ell
    if a2.start_s < a1.end_s - tol:
        return _aab_overlap_slide(sc, a1, a2, direction)
    # arcs joined at a vertex, or within a micro-short connector edge that a
    # stalled slide left behind; the rotation then pivots on the connector's
    # far endpoint and lets the connector absorb the mismatch
    if dist(a1.end_pt, a2.start_pt) > tol:
        return None, None  # arcs connect through real structure
    if direction == +1:
        w = sc.vertex_at(a1.end_pt)
        q = sc.vertex_at(a2.end_pt)
        if w is None or q is None or q <= w:
            return None, None
        block = range(w + 1, q + 1)
    else:
        w = sc.vertex_at(a2.start_pt)
        q = sc.vertex_at(a1.start_pt)
        if w is None or q is None or q >= w:
            return None, None
        block = range(q, w)
    if not block or min(block) <= 0 or max(block) >= len(verts) - 1:
        return None, None
    pivot = verts[w]

    def make(sign):
        def builder(d):
            out = list(verts)
            for i in block:
                out[i] = rotate_about(verts[i], pivot, sign * d)
            return out
        return builder

    return 0.45 * sc.params.theta, make


def _aab_overlap_slide(sc: _Struct, a1, a2, direction: int):
    """AAB/BAA elimination when the two arcs overlap inside a long edge.

    The arc next to the bridge takes in the ell-tail (or ell-head) of that
    edge, so there is no shared vertex to rotate about; instead the arc's
    block slides along the edge toward the other arc.  The edge shrinks by
    the step while the bridge changes by at most the step, so the move never
    lengthens the path and shortens it unless the bridge runs straight back
    along the edge.
    """
    ell = sc.params.ell
    verts = sc.verts
    if direction == +1:
        hinge = sc.vertex_at_s(a2.start_s + ell)  # first theta-turn of a2
        last = sc.vertex_at(a2.end_pt)
        if hinge is None or last is None or last < hinge:
            return None, None
        block, edge = range(hinge, last + 1), hinge - 1
        move = unit(sub(verts[hinge - 1], verts[hinge]))
    else:
        hinge = sc.vertex_at_s(a1.end_s - ell)  # last theta-turn of a1
        first = sc.vertex_at(a1.start_pt)
        if hinge is None or first is None or first > hinge:
            return None, None
        block, edge = range(first, hinge + 1), hinge
        move = unit(sub(verts[hinge + 1], verts[hinge]))
    if min(block) <= 0 or max(block) >= len(verts) - 1:
        return None, None

    def make(sign):
        def builder(d):
            out = list(verts)
            for i in block:
                out[i] = add(verts[i], scale(move, sign * d))
            return out
        return builder

    return sc.lens[edge] - 20.0 * sc.params.tol_dedup, make


# ---------------------------------------------------------------------------
# trio slide (used inside four-arc runs containing an inflection/long edge)

def _mirror(path: DiscretePath) -> DiscretePath:
    return transform(path, reflect=True)


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


def _line_circle(p0, d, center, r):
    f = sub(p0, center)
    b = 2.0 * dot(f, d)
    c = dot(f, f) - r * r
    disc = b * b - 4.0 * c
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    return [(-b - sq) / 2.0, (-b + sq) / 2.0]


def _trio_slide(cp: DiscretePath, params: Params, b_idx: int, c_idx: int):
    """One shortening move around the edge (c_idx, c_idx+1), anchored at the
    junction vertex b_idx, for a right-turning run; callers mirror
    left-turning input."""
    verts = list(cp.vertices)
    d_idx = c_idx + 1
    if not (0 < b_idx < c_idx and d_idx <= len(verts) - 1):
        return None
    a, b, c, d = verts[b_idx - 1], verts[b_idx], verts[c_idx], verts[d_idx]
    if dist(b, c) < 1e-12:
        return None
    ey = unit(sub(b, c))
    ex = (ey[1], -ey[0])
    qd = (dot(sub(d, c), ex), dot(sub(d, c), ey))

    def attempt(builder, cap):
        return _attempt(cp, params, builder, cap)

    if qd[0] < 0.0 and qd[1] < 0.0:
        # target edge leaves into the third quadrant: rotate the block after
        # b clockwise about b
        block = list(range(b_idx + 1, c_idx + 1))

        def rot_cw(phi):
            out = list(verts)
            for i in block:
                out[i] = rotate_about(verts[i], b, -phi)
            return out

        return attempt(rot_cw, 0.4 * params.theta)

    if qd[0] >= 0.0:
        return None  # not the configuration this move targets

    cd_dir = unit(sub(d, c))
    block_bc = list(range(b_idx, c_idx + 1))

    def slide_cd(dd):
        out = list(verts)
        for i in block_bc:
            out[i] = add(verts[i], scale(cd_dir, dd))
        return out

    def rotate_ab(phi):
        b_new = rotate_about(b, a, phi)
        t = sub(b_new, b)
        out = list(verts)
        for i in block_bc:
            out[i] = add(verts[i], t)
        return out

    if _angle_between(a, b, c) <= math.pi / 2.0 + 1e-12:
        foot = _foot_on_line(c, a, b)
        if dist(foot, c) > 1e-12 and _in_wedge(cd_dir, ey, unit(sub(foot, c))):
            return attempt(slide_cd, 0.5 * dist(c, d))
        return attempt(rotate_ab, 0.4 * params.theta)

    ab_dir = unit(sub(b, a))
    if _in_wedge(cd_dir, ey, ab_dir):
        return attempt(rotate_ab, 0.4 * params.theta)

    # obtuse angle at b and the target edge outside the wedge: rotate the
    # block clockwise about b, then rotate about a to bring c back onto the
    # target edge's supporting line
    def double_rotation(phi_b):
        out = list(verts)
        for i in range(b_idx + 1, c_idx + 1):
            out[i] = rotate_about(verts[i], b, -phi_b)
        c1 = out[c_idx]
        roots = _line_circle(c, cd_dir, a, dist(a, c1))
        ts = sorted(t for t in roots if t > 1e-15)
        if not ts:
            return None
        c2 = add(c, scale(cd_dir, ts[0]))
        phi_a = turn_angle(sub(c1, a), sub(c2, a))
        if not (0.0 < phi_a < phi_b):
            return None
        for i in range(b_idx, c_idx + 1):
            out[i] = rotate_about(out[i], a, phi_a)
        return out

    return attempt(double_rotation, 0.3 * params.theta)


def _trio_slide_any(cp: DiscretePath, params: Params, c_idx: int):
    """Try the trio slide around edge c_idx with nearby junction anchors, in
    the run's own orientation (mirroring when it turns left)."""
    turns = vertex_turns(cp)
    sign = 1.0 if turns[c_idx] > 0 else -1.0
    work = cp if sign < 0 else _mirror(cp)
    for b_idx in range(c_idx - 1, max(0, c_idx - 7), -1):
        res = _trio_slide(work, params, b_idx, c_idx)
        if res is not None:
            out, step = res
            return (out if sign < 0 else _mirror(out)), step
    return None


# ---------------------------------------------------------------------------
# four-arc reduction

def _aaaa_sites(sc: _Struct):
    for run in sc.arc_runs():
        if len(run) >= 4:
            yield (run[0],)


def _span_edges(sc: _Struct, s0: float, s1: float):
    out = []
    tol = 1e-9 * max(1.0, sc.params.ell)
    for j in range(len(sc.lens)):
        if sc.vertex_s[j] >= s0 - tol and sc.vertex_s[j + 1] <= s1 + tol:
            out.append(j)
    return out


def _aaaa_attempt(sc: _Struct, params: Params, loc, allow_circ: bool = True):
    run = next((r for r in sc.arc_runs() if len(r) >= 4 and r[0] == loc[0]), None)
    if run is None:
        return None
    arcs = [sc.st.arcs[i] for i in run[:4]]
    edges = _span_edges(sc, arcs[0].start_s, arcs[3].end_s)
    targets = [j for j in edges
               if j < len(sc.classes)
               and (sc.infl[j] or sc.classes[j] is EdgeClass.LONG)]
    if targets:
        for j in targets:
            fwd = _trio_slide_any(sc.path, params, j)
            if fwd is not None:
                return fwd[0], fwd[1], "trio"
            rev_cp = reverse(sc.path)
            rj = len(sc.path.vertices) - 2 - j
            bwd = _trio_slide_any(rev_cp, params, rj)
            if bwd is not None:
                return reverse(bwd[0]), bwd[1], "trio_rev"
        return None
    if not allow_circ:
        return None
    return _aaaa_circ(sc, params, arcs)


def _aaaa_circ(sc: _Struct, params: Params, arcs):
    """Equal-length three-rotation family on the last three arcs of the run,
    swept until two arcs merge (type shortens) or a follow-up shortening
    becomes available."""
    p1 = sc.vertex_at(arcs[0].end_pt)
    p2 = sc.vertex_at(arcs[1].end_pt)
    p3 = sc.vertex_at(arcs[2].end_pt)
    p4 = sc.vertex_at(arcs[3].end_pt)
    if None in (p1, p2, p3, p4):
        return None
    if not (0 < p1 < p2 < p3 < p4 <= len(sc.verts) - 1):
        return None
    verts = sc.verts
    w1, w2, w3, w4 = verts[p1], verts[p2], verts[p3], verts[p4]
    r12, r23 = dist(w1, w2), dist(w2, w3)
    cp = sc.path
    base_len = path_length(cp)
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

    cap = _turn_cap(cp, params)

    def feasible(eps):
        got = _eval_step(cp, params, build, eps, cap=cap)
        if got is None or abs(got[1] - base_len) > 1e-9 * max(1.0, base_len):
            return None
        return got[0]

    for sign in (1.0, -1.0):
        lo, hi = 0.0, None
        eps = sign * 1e-3
        for _ in range(40):
            if feasible(eps) is not None:
                lo = eps
                eps *= 2.0
                if abs(eps) > 2.0 * math.pi:
                    break
            else:
                hi = eps
                break
        if hi is None or lo == 0.0:
            continue
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if feasible(mid) is not None:
                lo = mid
            else:
                hi = mid
        cand = feasible(lo)
        if cand is None:
            continue
        cand = _tidy(cand, params)
        new_type = type_or_none(cand, params)
        if new_type is not None and len(new_type) < base_type:
            return cand, abs(lo), "circ"
        # swept to a boundary without a merge: collinearity produced an
        # inflection or long edge, so a strict shortening (possibly a trio
        # slide inside the run) must now exist
        follow = _find_shortening(cand, params)
        if follow is None:
            sc2 = _make_struct(cand, params)
            if sc2 is not None:
                for loc2 in _aaaa_sites(sc2):
                    res2 = _aaaa_attempt(sc2, params, loc2, allow_circ=False)
                    if res2 is not None:
                        follow = (res2[0], None, None, res2[1])
                        break
        if follow is not None:
            out, _k, _l, step = follow
            if path_length(out) < base_len - IMPROVE_FRACTION * params.ell:
                return out, step, "circ_chain"
    return None


# ---------------------------------------------------------------------------
# orchestration

def _find_shortening(path: DiscretePath, params: Params):
    """First applicable strictly-shortening rule, applied.  Returns
    (new_path, kind, location, step) or None."""
    ctx = _Ctx(path, params)
    for kind, loc in _collapse_sites(ctx, params):
        got = _collapse_attempt(path, params, loc[0])
        if got is not None:
            return got[0], kind, loc, got[1]
    for kind, sites, build in _LOCAL_RULES:
        for loc in sites(ctx):
            d_max, builder, discrete, events = build(ctx, params, loc)
            got = _attempt(path, params, builder, d_max, discrete=discrete,
                           events=events)
            if got is not None:
                return got[0], kind, loc, got[1]
    sc = _make_struct(path, params)
    if sc is None:
        return None
    for kind in _PAIR_RULES:
        for loc in _pair_sites(sc, kind):
            made = _block_slide_builder(sc, loc[0], loc[1], loc[2])
            if made is None:
                continue
            builder, events = made
            got = _attempt(sc.path, params, builder, _pair_cap(sc, loc[0]),
                           events=events)
            if got is not None:
                return got[0], kind, loc, got[1]
    for loc in _aab_sites(sc):
        cap, make = _aab_builder(sc, loc)
        if make is None:
            continue
        for sign in (1.0, -1.0):
            got = _attempt(sc.path, params, make(sign), cap)
            if got is not None:
                return got[0], RuleKind.AAB_ELIM, loc + (sign,), got[1]
    return None


def _find_and_apply(path: DiscretePath, params: Params):
    got = _find_shortening(path, params)
    if got is not None:
        return got
    sc = _make_struct(path, params)
    if sc is None:
        return None
    for loc in _aaaa_sites(sc):
        res = _aaaa_attempt(sc, params, loc)
        if res is not None:
            out, step, how = res
            return out, RuleKind.AAAA_TO_AAA, loc + (how,), step
    return None


def find_applicable(path: DiscretePath,
                    params: Params) -> tuple[RewriteRule, tuple] | None:
    """First applicable rule under the fixed priority (shortcuts before
    slides before equal-length transforms), or None at a fixed point."""
    got = _find_and_apply(path, params)
    if got is None:
        return None
    _, kind, loc, step = got
    return RewriteRule(kind, step), loc


def apply(path: DiscretePath, rule: RewriteRule, location: tuple,
          params: Params) -> DiscretePath:
    """Apply one rule at a location, halving the step on infeasibility.

    Raises RuleNotApplicableError when no feasible improving step exists down
    to the minimum step.
    """
    kind = rule.kind
    if len(location) >= 2 and location[1] == "collapse":
        got = _collapse_attempt(path, params, location[0])
        if got is None:
            raise RuleNotApplicableError(f"{kind.value} at {location}")
        return got[0]
    for k, _sites, build in _LOCAL_RULES:
        if k is kind:
            ctx = _Ctx(path, params)
            try:
                d_max, builder, discrete, events = build(ctx, params, location)
            except IndexError:
                raise RuleNotApplicableError(f"{kind.value} at {location}")
            got = _attempt(path, params, builder, d_max, discrete=discrete,
                           events=events)
            if got is None:
                raise RuleNotApplicableError(f"{kind.value} at {location}")
            return got[0]
    sc = _make_struct(path, params)
    if sc is None:
        raise RuleNotApplicableError(f"{kind.value}: path has no clean structure")
    if kind in _PAIR_RULES:
        made = _block_slide_builder(sc, location[0], location[1], location[2])
        if made is None:
            raise RuleNotApplicableError(f"{kind.value} at {location}")
        builder, events = made
        got = _attempt(sc.path, params, builder, _pair_cap(sc, location[0]),
                       events=events)
        if got is None:
            raise RuleNotApplicableError(f"{kind.value} at {location}")
        return got[0]
    if kind is RuleKind.AAB_ELIM:
        cap, make = _aab_builder(sc, location[:2])
        if make is None:
            raise RuleNotApplicableError(f"{kind.value} at {location}")
        signs = (location[2],) if len(location) > 2 else (1.0, -1.0)
        for sign in signs:
            got = _attempt(sc.path, params, make(sign), cap)
            if got is not None:
                return got[0]
        raise RuleNotApplicableError(f"{kind.value} at {location}")
    if kind is RuleKind.AAAA_TO_AAA:
        res = _aaaa_attempt(sc, params, location[:1])
        if res is None:
            raise RuleNotApplicableError(f"{kind.value} at {location}")
        return res[0]
    raise ValueError(f"unknown rule kind {kind}")


def shorten(path: DiscretePath, params: Params, budget: int = 10_000,
            observer=None) -> tuple[DiscretePath, RewriteTrace]:
    """Drive the path to a fixed point of the move catalogue.

    Every applied move strictly improves (length, type length); the trace
    records each step.  If the budget runs out first, the partial result is
    returned with ``budget_exhausted`` set.  ``observer(step_index, path)``
    is called after every applied move (frame dumps for figures).
    """
    if validate(path, params):
        raise ValueError("shorten requires a feasible path")
    trace = RewriteTrace()
    current = _tidy(path, params)
    if observer is not None:
        observer(0, current)
    for _ in range(budget):
        got = _find_and_apply(current, params)
        if got is None:
            return current, trace
        new_path, kind, loc, step = got
        # each path is typed once: a move's type before is the last one's after
        word = trace.entries[-1].type_after if trace.entries else type_or_none(current, params)
        trace.entries.append(TraceEntry(
            rule=RewriteRule(kind, step),
            location=loc,
            length_before=path_length(current),
            length_after=path_length(new_path),
            type_before=word,
            type_after=type_or_none(new_path, params),
        ))
        current = new_path
        if observer is not None:
            observer(len(trace.entries), current)
    trace.budget_exhausted = True
    return current, trace
