"""Arc and bridge extraction as a chain of per-endpoint walks: the reference
for ``structure._structure``'s one pass.

Each step here reads the frame again: the theta seeds, the runs and their
spans, every normal edge tested against every span, one ``point_at``
bisection per arc and bridge endpoint, the merged arc cover, and a scan of
every effective corner per uncovered stretch.  The tests compare the
library's structures, bridges and error messages with these by ``repr``.
"""

from __future__ import annotations

import bisect

from ddgeo.geometry import Point2, lerp
from ddgeo.model import TOL_ANG, DiscretePath, EdgeClass, Params, _lengths_and_turns, classify_edge
from ddgeo.structure import Arc, Bridge, InternalInconsistencyError, Orientation, PathStructure


class Frame:
    """Arclength view of a path: cumulative positions plus the polyline of
    effective corners (vertices with nonzero turn, and the two endpoints)."""

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
        first = bisect.bisect_left(self.vertex_s, s0 - tol)
        last = bisect.bisect_right(self.vertex_s, s1 + tol) - 1
        if first > last:
            raise InternalInconsistencyError("arc span contains no path vertex")
        return first, last

    def edge_at(self, s: float) -> int:
        i = bisect.bisect_right(self.vertex_s, s) - 1
        return max(0, min(i, len(self.path.vertices) - 2))


def _theta_seeds(frame: Frame) -> list[int]:
    th = frame.params.theta
    return [k for k, t in enumerate(frame.eff_turn) if abs(t) >= th - TOL_ANG]


def _arc_spans(frame: Frame) -> list[tuple[float, float, int, int, int]]:
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


def arcs(frame: Frame) -> list[Arc]:
    if len(frame.path.vertices) == 1:
        return []
    params = frame.params
    spans = _arc_spans(frame)

    covered = sorted((s0, s1) for s0, s1, *_ in spans)
    tol = params.tol_len

    def is_covered(a: float, b: float) -> bool:
        return any(s0 - tol <= a and b <= s1 + tol for s0, s1 in covered)

    for k, cls in enumerate(frame.eff_class):
        if cls is not EdgeClass.NORMAL:
            continue
        a, b = frame.eff_s[k], frame.eff_s[k + 1]
        if is_covered(a, b):
            continue
        ta, tb = frame.eff_turn[k], frame.eff_turn[k + 1]
        t = tb if abs(tb) > abs(ta) else ta
        spans.append((a, b, k, k + 1, -1 if t < 0 else 1))

    spans.sort(key=lambda sp: (sp[0], sp[1]))
    out = []
    for s0, s1, ef, el, sign in spans:
        fv, lv = frame.vertices_in(s0, s1, params.tol_dedup)
        out.append(Arc(
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
    return out


def merged_spans(arc_list: list[Arc]) -> list[tuple[float, float]]:
    spans = sorted((a.start_s, a.end_s) for a in arc_list)
    merged: list[list[float]] = []
    for s0, s1 in spans:
        if merged and s0 <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], s1)
        else:
            merged.append([s0, s1])
    return [(a, b) for a, b in merged]


def bridges(frame: Frame, arc_list: list[Arc]) -> list[Bridge]:
    if len(frame.path.vertices) == 1:
        return []
    total = frame.total
    sliver = 1e-9 * max(1.0, total)

    gaps = []
    cursor = 0.0
    for s0, s1 in merged_spans(arc_list):
        if s0 - cursor > sliver:
            gaps.append((cursor, s0))
        cursor = max(cursor, s1)
    if total - cursor > sliver:
        gaps.append((cursor, total))

    out = []
    for a, b in gaps:
        for k, s in enumerate(frame.eff_s):
            if a + sliver < s < b - sliver and abs(frame.eff_turn[k]) > TOL_ANG:
                raise InternalInconsistencyError(
                    f"uncovered stretch [{a:.6g}, {b:.6g}] contains a turn at s={s:.6g}")
        out.append(Bridge(
            start_pt=frame.point_at(a),
            end_pt=frame.point_at(b),
            host_edge=frame.edge_at(0.5 * (a + b)),
            start_s=a,
            end_s=b,
        ))
    return out


def extract_bridges(path: DiscretePath, arc_list: list[Arc],
                    params: Params | None = None) -> list[Bridge]:
    return bridges(Frame(path, params, *_lengths_and_turns(path, 0.0)), arc_list)


def structure(frame: Frame) -> PathStructure:
    arc_list = arcs(frame)
    bridge_list = bridges(frame, arc_list)
    labeled = [(a.start_s, a.end_s, "A") for a in arc_list]
    labeled += [(b.start_s, b.end_s, "B") for b in bridge_list]
    labeled.sort(key=lambda t: (t[0], t[1]))
    word = "".join(letter for _, _, letter in labeled)
    return PathStructure(tuple(arc_list), tuple(bridge_list), word, frame.vertex_s)
