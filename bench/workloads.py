"""The four workloads: seeded corpora, the timed call and the output checks.

Every workload builds a fixed-size corpus (a *round*) from the seed; the run
repeats whole rounds.  Each case is one call into the program.  ``call``
is the only code inside the timed region; ``check`` compares the output with
what the program promises, never with stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import ddgeo.cli
from ddgeo import document, planner, rewrite
from ddgeo.geometry import add, from_angle, scale
from ddgeo.model import Configuration, DiscretePath, Params, path_length, validate
from ddgeo.planner import CandidateSpec, forward_construct
from ddgeo.smooth import discretize, dubins_solve
from ddgeo.structure import find_forbidden_subtype, is_true_type, type_or_none, type_string

FINE_SWITCH = 48  # plan uses guided enumeration above this many sides


@dataclass
class Case:
    label: str
    params: Params
    args: tuple
    dubins: float                    # smooth Dubins length, scaled by the circumradius
    known_fault: bool = False        # fails every time because of a program fault
    mirror_of: int | None = None     # index of the case this one mirrors
    extra: dict = field(default_factory=dict)


def cfg(x: float, y: float, deg: float) -> Configuration:
    return Configuration((x, y), from_angle(math.radians(deg)))


def unit_params(n: int) -> Params:
    """Grid whose discrete circle has circumradius 1: ell = 2 sin(pi/n)."""
    return Params.from_sides(n, 2.0 * math.sin(math.pi / n))


def dubins_length(U: Configuration, V: Configuration, params: Params) -> float:
    r = params.circumradius
    Us = Configuration(scale(U.point, 1.0 / r), U.heading)
    Vs = Configuration(scale(V.point, 1.0 / r), V.heading)
    return dubins_solve(Us, Vs).length * r


def discretized_curve(U: Configuration, V: Configuration, n: int) -> DiscretePath:
    return discretize(dubins_solve(U, V), 2.0 * math.pi / n)


def mirror(c: Configuration) -> Configuration:
    """Reflection in the x axis."""
    return Configuration((c.point[0], -c.point[1]), (c.heading[0], -c.heading[1]))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# plan_far / plan_near

def _pairs(shape_rng, pose_rng, m: int, d_range) -> list[tuple[Configuration, Configuration]]:
    """m pairs whose shapes form a Latin hypercube over the three quantities
    plan depends on: the distance, the bearing of V seen from U's heading,
    and V's heading relative to U's.  Each of the m equal slices of each
    range holds exactly one pair.  ``shape_rng`` draws the shapes and
    ``pose_rng`` the position and rotation of each pair."""
    lo, hi = d_range
    cells = [(shape_rng.permutation(m) + shape_rng.uniform(size=m)) / m for _ in range(3)]
    pairs = []
    for d_u, bearing_u, heading_u in zip(*cells):
        d = lo + (hi - lo) * float(d_u)
        psi = float(pose_rng.uniform(0.0, 2.0 * math.pi))
        u = (float(pose_rng.uniform(-2.0, 2.0)), float(pose_rng.uniform(-2.0, 2.0)))
        v = add(u, scale(from_angle(psi + 2.0 * math.pi * float(bearing_u)), d))
        pairs.append((Configuration(u, from_angle(psi)),
                      Configuration(v, from_angle(psi + 2.0 * math.pi * float(heading_u)))))
    return pairs


class PlanWorkload:
    """``plan`` on configuration pairs, each followed by its mirror image
    except at the sides listed in ``unmirrored``, plus fixed instances.

    The pair shapes come from a fixed design (``default_rng([design, n])``)
    and the seed draws only where each pair sits and how it is turned: plan's
    work depends on the shape alone, so the seed changes the inputs but not
    the amount of work in a round.
    """

    def __init__(self, design, d_range, pairs_per_n, fixed=(), unmirrored=()):
        self.design = design
        self.d_range = d_range
        self.pairs_per_n = pairs_per_n     # {n: pairs}
        self.fixed = fixed                 # (label, n, U, V), seed-independent
        self.unmirrored = unmirrored

    def cases(self, rng, tiny: bool = False) -> list[Case]:
        out: list[Case] = []
        for n, m in self.pairs_per_n.items():
            params = unit_params(n)
            shape_rng = np.random.default_rng([self.design, n])
            for i, (U, V) in enumerate(_pairs(shape_rng, rng, 1 if tiny else m, self.d_range)):
                out.append(self._case(f"n{n}-{i}", params, U, V))
                if n not in self.unmirrored:
                    out.append(self._case(f"n{n}-{i}-mirror", params, mirror(U),
                                          mirror(V), mirror_of=len(out) - 1))
        for label, n, U, V in self.fixed[:1] if tiny else self.fixed:
            out.append(self._case(label, unit_params(n), U, V))
        return out

    def _case(self, label, params, U, V, mirror_of=None) -> Case:
        disc = path_length(discretized_curve(U, V, params.n_sides))
        return Case(label, params, (U, V), dubins_length(U, V, params),
                    mirror_of=mirror_of, extra={"discretized": disc})

    def warmup_case(self, workdir: str) -> Case:
        # far enough for ABA's refinement, so the first call pays its lazy import
        return self._case("warmup", unit_params(16), cfg(0.0, 0.0, 0.0),
                          cfg(7.0, 2.0, 40.0))

    def call(self, case: Case):
        return planner.plan(*case.args, case.params)

    def length(self, case: Case, result) -> float:
        return result.length

    def check(self, case: Case, result, lengths: dict) -> list[str]:
        U, V = case.args
        p = case.params
        best = result.best
        bad = []
        if validate(best, p):
            bad.append("best does not validate")
        if best.start != U or best.end != V:
            bad.append("endpoints differ from U and V")
        if not is_true_type(result.type_word):
            bad.append(f"type word {result.type_word!r} is not a true type")
        elif type_string(best, p) != result.type_word:
            bad.append("type_word differs from type_string(best)")
        if not _close(result.length, path_length(best), 1e-12):
            bad.append("length differs from path_length(best)")
        d = math.dist(U.point, V.point)
        if not (d - 1e-9 <= result.length <= case.extra["discretized"] * (1 + 1e-9) + 1e-12):
            bad.append(f"length {result.length} outside [|UV|, discretized Dubins]")
        if case.mirror_of is not None:
            other = lengths.get(case.mirror_of)
            if other is not None and not _close(result.length, other, 1e-9):
                bad.append(f"mirror length {result.length} != {other}")
        return bad


_ZERO_ROWS = (("u_turn", cfg(0.0, 0.0, 0.0), cfg(0.0, 0.0, 180.0)),
              ("loop", cfg(0.0, 0.0, 0.0), cfg(0.0, 0.0, 90.0)),
              ("antiparallel", cfg(0.0, 0.0, 0.0), cfg(0.0, 1.0, 180.0)))

# Shapes drawn afresh per seed made the far round's median call time move by
# 17 % (quartile spread over seeds), and the nearby round's, which holds only
# about 30 calls of 0.1-4.5 s, by 44 %; hence fixed shape designs.
PLAN_FAR = PlanWorkload(1, (8.0, 20.0), {8: 17, 16: 17, 64: 17, 360: 17})
# Nearby pairs get a mirror only at n = 8, where a plan is cheap: a mirror
# costs a full plan but adds no new instance, and at n = 64 the guided
# enumeration gives mirror lengths that differ by up to 2e-4 relative on
# some pairs (see CHANGES.md).
PLAN_NEAR = PlanWorkload(
    0, (0.0, 3.0), {8: 10, 16: 2, 64: 4},
    fixed=tuple((f"{label}-n{n}", n, U, V) for n in (8, 16) for label, U, V in _ZERO_ROWS),
    unmirrored=(16, 64))


# ---------------------------------------------------------------------------
# shorten

MAX_EDGES = 11  # longest random path, as in the criterion-3 corpus


def random_feasible_path(params: Params, rng) -> DiscretePath:
    """Edge-by-edge construction that keeps every constraint by design.

    Edges are normal, short or long; no two short edges touch; turns snap to
    +-theta a third of the time; the net winding stays below a full turn; the
    boundary turns are zero.
    """
    th, ell = params.theta, params.ell
    while True:
        n_edges = int(rng.integers(1, MAX_EDGES + 1))
        classes = []
        for _ in range(n_edges):
            pool = "NNNL" if classes and classes[-1] == "S" else "NNNNSL"
            classes.append(pool[int(rng.integers(len(pool)))])
        lengths = [ell if c == "N" else
                   ell * float(rng.uniform(0.35, 0.92)) if c == "S" else
                   ell * float(rng.uniform(1.1, 2.8)) for c in classes]
        turns = [0.0] * (n_edges + 1)
        winding = 0.0
        cap = 2.0 * math.pi - 2.0 * th
        for i in range(1, n_edges):
            if rng.uniform() < 0.35:
                t = th * (1.0 if rng.uniform() < 0.5 else -1.0)
            else:
                t = float(rng.uniform(-th, th))
            if abs(winding + t) > cap:
                t = -t
            if classes[i - 1] == "S":
                prev = turns[i - 1]
                if prev * t >= 0.0 and abs(prev + t) > th:
                    t = math.copysign(th, prev) - prev
            winding += t
            turns[i] = t
        heading = float(rng.uniform(0.0, 2.0 * math.pi))
        verts = [(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0)))]
        ang = heading
        for i in range(n_edges):
            verts.append(add(verts[-1], scale(from_angle(ang), lengths[i])))
            if i + 1 < n_edges:
                ang += turns[i + 1]
        path = DiscretePath(Configuration(verts[0], from_angle(heading)),
                            Configuration(verts[-1], from_angle(ang)), tuple(verts))
        if not validate(path, params):
            return path


# Named inputs, all theta-discretized smooth Dubins curves (label, n, U, V).
SHORTEN_NAMED = (
    # fixed point ABAB: find_applicable finds nothing, BAB stays
    ("F1", 16, cfg(-1.1024, 0.7410, -108.23), cfg(9.4036, -3.8864, 176.87)),
    # stops after 3 moves on a path type_string cannot type
    ("F2", 16, cfg(1.4182, 1.9902, 67.83), cfg(9.0431, 4.1089, 143.17)),
    # about 2 756 moves, most gaining about 1e-8, before ABA at 7.4666
    ("creeper", 8, cfg(1.6848, 0.8468, -151.10), cfg(3.9275, -4.0851, 94.75)),
)

# Inputs that fail on every run because of a fault in the rewriter: F1, F2,
# and the one random path of the fixed corpus whose fixed point carries a
# forbidden factor (ABABA).
KNOWN_FAULTS = frozenset({"F1", "F2", "random-n6-16"})


def quarter_turn(path: DiscretePath, k: int) -> DiscretePath:
    """The path turned by k quarter turns about the origin.  A quarter turn
    maps (x, y) to (-y, x), which is exact in floating point, so shorten
    makes the same moves and reaches the same fixed point on every turn."""
    def turn(p):
        x, y = p
        for _ in range(k % 4):
            x, y = -y, x
        return (x, y)
    return DiscretePath(Configuration(turn(path.start.point), turn(path.start.heading)),
                        Configuration(turn(path.end.point), turn(path.end.heading)),
                        tuple(turn(v) for v in path.vertices))


class ShortenWorkload:
    """``shorten`` at its default budget on random feasible paths (ell = 1)
    and on the named discretized Dubins curves.

    The random paths are a fixed corpus (``default_rng([0, n])``); the seed
    turns each by a whole number of quarter turns.  Drawn afresh per seed,
    about one in two hundred ends on a forbidden factor (a different one on
    each seed, see CHANGES.md) and a few take seconds, which made the round's
    throughput move by 35 % between seeds.  Fixed, the failing ones fail on
    every run and are listed in KNOWN_FAULTS.
    """

    paths_per_n = {6: 110, 8: 110, 12: 110}

    def cases(self, rng, tiny: bool = False) -> list[Case]:
        out = []
        for n, m in self.paths_per_n.items():
            params = Params.from_sides(n, 1.0)
            corpus_rng = np.random.default_rng([0, n])
            for i in range(m):
                path = random_feasible_path(params, corpus_rng)
                label = f"random-n{n}-{i}"
                if tiny and i >= 2 and label not in KNOWN_FAULTS:
                    continue
                out.append(self._case(label, params,
                                      quarter_turn(path, int(rng.integers(4)))))
        named = [self._case(label, unit_params(n), discretized_curve(U, V, n))
                 for label, n, U, V in SHORTEN_NAMED if not (tiny and label == "creeper")]
        # the named curves (the creeper alone is half a round) go in the
        # middle, so the random paths' call times span the whole round
        half = len(out) // 2
        return out[:half] + named + out[half:]

    def _case(self, label, params, path) -> Case:
        return Case(label, params, (path,), dubins_length(path.start, path.end, params),
                    known_fault=label in KNOWN_FAULTS)

    def warmup_case(self, workdir: str) -> Case:
        return self._case("warmup", unit_params(8),
                          discretized_curve(cfg(0.0, 0.0, 0.0), cfg(4.0, 1.0, 0.0), 8))

    def call(self, case: Case):
        return rewrite.shorten(case.args[0], case.params)

    def length(self, case: Case, result) -> float:
        return path_length(result[0])

    def check(self, case: Case, result, lengths: dict) -> list[str]:
        (path,), p = case.args, case.params
        out, trace = result
        bad = []
        if validate(out, p):
            bad.append("output does not validate")
        if out.start != path.start or out.end != path.end:
            bad.append("start or end configuration changed")
        if path_length(out) > path_length(path) + p.tol_len:
            bad.append("output longer than input")
        # moves that only shorten the type word keep the length up to rounding
        if any(e.length_after > e.length_before + p.tol_len for e in trace.entries):
            bad.append("a move lengthened the path")
        if trace.budget_exhausted:
            bad.append("budget exhausted")
        word = type_or_none(out, p)
        if word is None:
            bad.append("output has no type word")
        elif (factor := find_forbidden_subtype(word)) is not None:
            bad.append(f"fixed point {word} has forbidden factor {factor[0]}")
        return bad


# ---------------------------------------------------------------------------
# classify_long

class ClassifyWorkload:
    """In-process ``ddgeo classify DOC --out OUT --svg SVG`` on documents of
    long true-type paths built by ``forward_construct``.

    The specs come from a fixed design (``default_rng([0, n, word])``) and the
    seed draws only where each path starts and where it heads.  Drawn afresh
    per seed, specs with arcs of up to n - 1 edges made loops of up to 26
    times the Dubins length, so the mean of ``len_vs_dubins`` moved by 8 %
    between seeds.  Fixed, the round holds the same shapes on every seed.
    """

    words = ("ABA", "AAA", "AB", "AA")
    docs_per_cell = 90            # per (n, word)
    sides = (64, 360)

    def __init__(self):
        self.workdir = None

    def cases(self, rng, tiny: bool = False) -> list[Case]:
        out = []
        for n in self.sides:
            for w, word in enumerate(self.words):
                shape_rng = np.random.default_rng([0, n, w])
                for i in range(1 if tiny else self.docs_per_cell):
                    out.append(self._case(f"n{n}-{word}-{i}", n, word, shape_rng, rng))
        return out

    def _case(self, label, n, word, shape_rng, pose_rng) -> Case:
        params = unit_params(n)
        th = params.theta
        n_arcs = word.count("A")
        total = int(shape_rng.integers(70, 341))
        # split the edge budget over the arcs; every arc keeps 4 to n - 1 edges
        cuts = np.sort(shape_rng.uniform(size=n_arcs - 1))
        shares = np.diff(np.concatenate(([0.0], cuts, [1.0])))
        ks = tuple(int(min(n - 1, max(4, round(total * s)))) for s in shares)
        orientations = tuple(int(shape_rng.choice((1, -1))) for _ in range(n_arcs))
        # joint turns strictly inside +-theta and away from zero
        phis = tuple(float(shape_rng.choice((1.0, -1.0)) * shape_rng.uniform(0.2, 0.8) * th)
                     for _ in range(len(word) + 1))
        s = float(shape_rng.uniform(0.5, 4.0)) if "B" in word else None
        U = Configuration((float(pose_rng.uniform(-2.0, 2.0)),
                           float(pose_rng.uniform(-2.0, 2.0))),
                          from_angle(float(pose_rng.uniform(0.0, 2.0 * math.pi))))
        spec = CandidateSpec(word, orientations, ks, phis, s)
        path, _ = forward_construct(spec, U, U, params)
        doc_file = os.path.join(self.workdir, f"{label}.json")
        document.save(document.path_to_json(path, params), doc_file)
        return Case(label, params, (doc_file,), dubins_length(path.start, path.end, params),
                    extra={"word": word, "vertices": [list(p) for p in path.vertices]})

    def warmup_case(self, workdir: str) -> Case:
        self.workdir = workdir
        return self._case("warmup", 64, "ABA", np.random.default_rng(0),
                          np.random.default_rng(0))

    def call(self, case: Case):
        out = os.path.join(self.workdir, "out.json")
        svg = os.path.join(self.workdir, "out.svg")
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            rc = ddgeo.cli.run(["classify", case.args[0], "--out", out, "--svg", svg])
        return rc, printed.getvalue(), out, svg

    def length(self, case: Case, result) -> float | None:
        """Length of the path in the written document; None if none was written."""
        rc, _, out, _ = result
        if rc != 0:
            return None
        with open(out, encoding="utf-8") as fh:
            vertices = json.load(fh)["vertices"]
        return sum(math.dist(a, b) for a, b in zip(vertices, vertices[1:]))

    def check(self, case: Case, result, lengths: dict) -> list[str]:
        rc, printed, out, svg = result
        want = case.extra["word"]
        if rc != 0:
            return [f"exit code {rc}"]
        bad = []
        if printed.strip() != want:
            bad.append(f"printed {printed.strip()!r}, built {want!r}")
        with open(out, encoding="utf-8") as fh:
            written = json.load(fh)
        if written.get("structure", {}).get("type") != want:
            bad.append("written type word differs from the built word")
        if written.get("vertices") != case.extra["vertices"]:
            bad.append("written vertices differ from the input")
        if not os.path.getsize(svg):
            bad.append("empty svg")
        return bad


WORKLOADS = {
    "plan_far": PLAN_FAR,
    "plan_near": PLAN_NEAR,
    "shorten": ShortenWorkload(),
    "classify_long": ClassifyWorkload(),
}
