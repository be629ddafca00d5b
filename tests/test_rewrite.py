import math

import numpy as np
import pytest

from ddgeo import model, rewrite, structure
from ddgeo.geometry import add, from_angle, scale
from ddgeo.model import (
    Configuration,
    DiscretePath,
    Params,
    edge_lengths,
    path_length,
    validate,
    vertex_turns,
)
from ddgeo.rewrite import (
    RewriteRule,
    RuleKind,
    RuleNotApplicableError,
    apply as apply_rule,
    find_applicable,
    shorten,
)
from ddgeo.smooth import ArcSeg, LineSeg, SmoothPath, discretize, dubins_solve
from ddgeo.structure import (
    InternalInconsistencyError,
    find_forbidden_subtype,
    structure_of,
    type_or_none,
    type_string,
)

from gen import build_path, random_feasible_path

P8 = Params.from_sides(8, 1.0)
TH = P8.theta
# five single-edge arcs at sub-theta corners
AAAA = build_path([0.0, 0.6 * TH, 0.3 * TH, 0.9 * TH, 0.5 * TH, 0.0], [1.0] * 5)


def _word(path, params=P8):
    try:
        return type_string(path, params)
    except InternalInconsistencyError:
        return None


def test_long_long_pair_fires_first():
    path = build_path([0.0, 0.6 * TH, 0.0], [2.0, 2.0])
    got = find_applicable(path, P8)
    assert got is not None
    rule, loc = got
    assert rule.kind is RuleKind.LONG_LONG_SHORTCUT
    out = apply_rule(path, rule, loc, P8)
    assert validate(out, P8) == []
    assert path_length(out) < path_length(path)


def test_long_short_slide():
    path = build_path([0.0, 0.5 * TH, -0.3 * TH, 0.0], [2.0, 0.6, 1.0])
    assert validate(path, P8) == []
    got = find_applicable(path, P8)
    assert got is not None
    out = apply_rule(path, got[0], got[1], P8)
    assert path_length(out) < path_length(path)


def test_inflection_rotate_on_long_neighbor():
    # inflection edge followed by a long edge shortens by the endpoint slide
    turns = [0.0, 0.5 * TH, -0.5 * TH, 0.2 * TH, 0.0]
    lengths = [1.0, 1.0, 1.8, 1.0]
    path = build_path(turns, lengths)
    assert validate(path, P8) == []
    res, trace = shorten(path, P8, budget=200)
    assert path_length(res) < path_length(path)
    assert not trace.budget_exhausted


def test_true_type_local_optimum_is_fixed():
    from ddgeo.planner import plan
    from ddgeo.model import Configuration
    U = Configuration((0.0, 0.0), (1.0, 0.0))
    V = Configuration((9.0, 0.5), (1.0, 0.0))
    best = plan(U, V, P8).best
    assert find_applicable(best, P8) is None


def test_bridge_and_inflection_admits_rule():
    # a long straight stretch (bridge) plus an inflection edge elsewhere
    turns = [0.0, 0.3 * TH, 0.6 * TH, -0.6 * TH, 0.4 * TH, 0.0]
    lengths = [3.0, 1.0, 1.0, 1.0, 1.0]
    path = build_path(turns, lengths)
    assert validate(path, P8) == []
    got = find_applicable(path, P8)
    assert got is not None
    out = apply_rule(path, got[0], got[1], P8)
    assert path_length(out) < path_length(path)


def test_witness_bab():
    # bridge, arc, bridge: the two bridges have different directions
    turns = [0.0, TH, TH, 0.0]
    lengths = [2.5, 1.0, 2.5]
    path = build_path(turns, lengths)
    assert validate(path, P8) == []
    assert _word(path) == "BAB"
    got = find_applicable(path, P8)
    assert got is not None
    out = apply_rule(path, got[0], got[1], P8)
    assert validate(out, P8) == []
    assert path_length(out) < path_length(path)


def test_witness_aab_and_baa():
    # two arcs joined at a vertex, bridge after (AAB) / before (BAA)
    turns_aab = [0.0, TH, 0.4 * TH, TH, 0.0]
    lengths_aab = [1.0, 1.0, 1.0, 2.7]
    aab = build_path(turns_aab, lengths_aab)
    assert validate(aab, P8) == []
    assert _word(aab) == "AAB"
    got = find_applicable(aab, P8)
    assert got is not None
    out = apply_rule(aab, got[0], got[1], P8)
    assert path_length(out) < path_length(aab)

    turns_baa = [0.0, TH, 0.4 * TH, TH, 0.0]
    lengths_baa = [2.7, 1.0, 1.0, 1.0]
    baa = build_path(turns_baa, lengths_baa)
    assert validate(baa, P8) == []
    assert _word(baa) == "BAA"
    got = find_applicable(baa, P8)
    assert got is not None
    out = apply_rule(baa, got[0], got[1], P8)
    assert path_length(out) < path_length(baa)


def test_witness_aaaa():
    assert validate(AAAA, P8) == []
    word = _word(AAAA)
    assert word is not None and "AAAA" in word
    res, trace = shorten(AAAA, P8, budget=1000)
    final = _word(res)
    assert final is not None
    assert find_forbidden_subtype(final) is None


def test_bb_is_unobservable():
    # adjacent uncovered stretches merge, so no extracted word contains BB
    rng = np.random.default_rng(31)
    seen = 0
    for _ in range(120):
        p = random_feasible_path(P8, rng)
        w = _word(p)
        if w is None:
            continue
        seen += 1
        assert "BB" not in w
    assert seen > 40


def test_three_arc_rotation_family():
    # right-turning three-arc path, no inflection, not flush: the rotation
    # family yields an equal-length path with fewer arcs, a flush start, or
    # a strictly shorter chained result
    turns = [0.0, -0.6 * TH, -0.35 * TH, -0.9 * TH, 0.0]
    lengths = [1.0] * 4
    path = build_path(turns, lengths)
    assert validate(path, P8) == []
    word = _word(path)
    assert word == "AAAA"  # four single-edge arcs
    out = apply_rule(path, RewriteRule(RuleKind.AAAA_TO_AAA, 0.0), (0,), P8)
    assert validate(out, P8) == []
    new_word = _word(out)
    shorter = path_length(out) < path_length(path) - 1e-12
    merged = new_word is not None and len(new_word) < len(word)
    assert shorter or merged


def test_feasibility_preserved_over_thousand_applications():
    rng = np.random.default_rng(32)
    applications = 0
    while applications < 1000:
        path = random_feasible_path(P8, rng)
        for _ in range(300):
            got = find_applicable(path, P8)
            if got is None:
                break
            path = apply_rule(path, got[0], got[1], P8)
            assert validate(path, P8) == []
            applications += 1
    assert applications >= 1000


def test_lexicographic_progress():
    rng = np.random.default_rng(33)
    for _ in range(25):
        p = random_feasible_path(P8, rng)
        res, trace = shorten(p, P8, budget=2000)
        for e in trace.entries:
            slack = 1e-12 * max(1.0, e.length_before)
            assert e.length_after <= e.length_before + slack
            if e.length_after >= e.length_before - 1e-10 * P8.ell:
                # length tie: the type must not grow
                if e.type_before is not None and e.type_after is not None:
                    assert len(e.type_after) <= len(e.type_before)


# a path with an inflection edge between two long edges
_INFL = build_path([0.0, 0.6 * TH, -0.6 * TH, 0.0], [2.0, 1.0, 2.0])


@pytest.mark.parametrize("path, kind, loc", [
    pytest.param(build_path([0.0, 0.0], [5.0]), RuleKind.LONG_LONG_SHORTCUT, (0,),
                 id="long_long_on_straight"),
    pytest.param(_INFL, RuleKind.LONG_SHORT_SLIDE, (0,), id="long_short_short_loc"),
    pytest.param(_INFL, RuleKind.AAB_ELIM, (0,), id="aab_short_loc"),
    pytest.param(_INFL, RuleKind.TWO_INFLECTION_SLIDE, (1,), id="two_inflection_short_loc"),
    pytest.param(_INFL, RuleKind.BRIDGE_TRANSLATE, (99, 0, "direct"), id="bridge_edge_range"),
    pytest.param(_INFL, RuleKind.LONG_BREAK_SLIDE, (9, 0, "break_anchor"),
                 id="long_break_edge_range"),
    pytest.param(_INFL, RuleKind.INFLECTION_ROTATE, (1, 5), id="inflection_rotate_mode"),
    pytest.param(_INFL, RuleKind.AAB_ELIM, (0, 1, 1.0, 9), id="aab_extra_item"),
])
def test_apply_inapplicable_raises(path, kind, loc):
    assert validate(path, P8) == []
    with pytest.raises(RuleNotApplicableError):
        apply_rule(path, RewriteRule(kind, 0.0), loc, P8)


def _cfg(x, y, deg):
    return Configuration((x, y), from_angle(math.radians(deg)))


def _replay_inputs():
    """Random criterion-3 paths, the AAAA witness, and the theta-discretized
    Dubins curves F1 and F2 (n = 16, circumradius 1), whose fixed points are
    faulty (ROADMAP item 1)."""
    for n in (6, 8, 12):
        params = Params.from_sides(n, 1.0)
        rng = np.random.default_rng(7000 + n)
        for _ in range(30):
            yield params, random_feasible_path(params, rng)
    yield P8, AAAA
    p16 = Params.from_sides(16, 2.0 * math.sin(math.pi / 16))
    for U, V in ((_cfg(-1.1024, 0.7410, -108.23), _cfg(9.4036, -3.8864, 176.87)),
                 (_cfg(1.4182, 1.9902, 67.83), _cfg(9.0431, 4.1089, 143.17))):
        yield p16, discretize(dubins_solve(U, V), p16.theta)


def test_apply_replays_shorten_trace():
    # every traced move is what find_applicable reports on its frame, and
    # apply at that rule and location rebuilds the next frame exactly
    kinds = set()
    for params, path in _replay_inputs():
        frames = []
        _, trace = shorten(path, params, observer=lambda _i, p: frames.append(p))
        assert len(frames) == len(trace.entries) + 1
        for i, e in enumerate(trace.entries):
            assert find_applicable(frames[i], params) == (e.rule, e.location)
            assert apply_rule(frames[i], e.rule, e.location, params) == frames[i + 1]
            kinds.add(e.rule.kind)
    assert kinds == set(RuleKind)


def test_shorten_requires_feasible():
    bad = build_path([0.0, TH + 0.5, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        shorten(bad, P8)


def test_budget_exhaustion_flag():
    # set only when a move still applies after the budget's moves
    straight = build_path([0.0, 0.0], [5.0])
    assert find_applicable(straight, P8) is None
    res, trace = shorten(straight, P8, budget=0)
    assert res == straight and not trace.budget_exhausted
    res, trace = shorten(AAAA, P8, budget=1)
    assert len(trace.entries) == 1 and trace.budget_exhausted
    assert find_applicable(res, P8) is not None


def test_negative_budget_raises():
    with pytest.raises(ValueError, match="budget"):
        shorten(AAAA, P8, budget=-1)


def test_attempt_beats_dense_step_search(monkeypatch):
    # no feasible step on a 401-point grid of (0, d_max] is shorter than the
    # harness's choice: translation families never lengthen the path as the
    # step grows, and a rotation family's one interior minimum is an event
    harness = rewrite._attempt
    calls = {}  # (builder name, line) -> [(base path, params, builder, d_max, result)]

    def recording(base, builder, d_max, events=()):
        got = harness(base, builder, d_max, events)
        key = (builder.__qualname__, builder.__code__.co_firstlineno)
        calls.setdefault(key, []).append((base.path, base.params, builder, d_max, got))
        return got

    monkeypatch.setattr(rewrite, "_attempt", recording)
    inputs = [(P8, AAAA)]
    for n in (6, 8, 12):
        params = Params.from_sides(n, 1.0)
        rng = np.random.default_rng(4000 + n)
        inputs += [(params, random_feasible_path(params, rng)) for _ in range(20)]
    for params, path in inputs:
        shorten(path, params)
    aab = [key for key in calls if key[0].startswith("_aab_attempt")]
    assert aab and len(calls[aab[0]]) >= 20
    for key, recorded in calls.items():
        for base, params, builder, d_max, got in recorded[:20]:
            if d_max <= 0.0:
                continue
            if got is None:
                best = path_length(base) - rewrite.IMPROVE_FRACTION * params.ell
            else:
                best = rewrite._eval_step(base, params, builder, got[1])[1]
            for d in np.linspace(0.0, d_max, 402)[1:]:
                trial = rewrite._eval_step(base, params, builder, float(d))
                assert trial is None or trial[1] >= best - 1e-9 * params.ell, \
                    (key, float(d), trial[1], best)


def _harness_inputs():
    inputs = [(P8, AAAA)]
    for n in (6, 8, 12):
        params = Params.from_sides(n, 1.0)
        rng = np.random.default_rng(4000 + n)
        inputs += [(params, random_feasible_path(params, rng)) for _ in range(20)]
    return inputs


def _motion_attempts(monkeypatch, inputs):
    """(base frame, builder, d_max) of every block-slide and AAB-rotation
    attempt that ``shorten`` makes on the inputs."""
    harness = rewrite._attempt
    recorded = []

    def recording(base, builder, d_max, events=()):
        if getattr(builder, "motion", None) is not None:
            recorded.append((base, builder, d_max))
        return harness(base, builder, d_max, events)

    monkeypatch.setattr(rewrite, "_attempt", recording)
    for params, path in inputs:
        shorten(path, params)
    monkeypatch.undo()
    return recorded


def test_turn_cap_step_matches_bisection(monkeypatch):
    # the closed-form boundary step of every block slide and AAB rotation
    # passes its cap probe, and bisection finds no feasible step above it
    # beyond the float noise of the probed vertices
    recorded = _motion_attempts(monkeypatch, _harness_inputs())

    def last_accepted(probe, lo, hi):
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (mid, hi) if probe(mid) is not None else (lo, mid)
        return lo

    kinds, searches = set(), 0
    for frame, builder, d_max in recorded:
        base, params = frame.path, frame.params

        def probe(d, cap=None):
            return rewrite._eval_step(base, params, builder, d, cap)

        d_feas = d_max
        while probe(d_feas) is None and 0.5 * d_feas >= rewrite.STEP_MIN_FRACTION * params.ell:
            d_feas *= 0.5
        if d_feas == d_max or probe(d_feas) is None:
            continue
        cap = rewrite._turn_cap(frame)
        step = rewrite._cap_step(builder.motion, base, builder(0.0),
                                 min(cap, params.theta + rewrite.TOL_ANG), d_feas, 2.0 * d_feas)
        assert step is not None
        searches += 1
        kinds.add(builder.__qualname__.split(".")[0])
        if step > d_feas:
            assert probe(step, cap) is not None, (builder.__qualname__, d_feas, step)
        # 1e-12 relative, plus 1e-13 ell for the rounding of the probed
        # vertices, which moves the accepted boundary by about 1e-16 ell
        # whatever the step's size
        top = last_accepted(lambda d: probe(d, cap), step, 2.0 * d_feas)
        assert top <= step * (1.0 + 1e-12) + 1e-13 * params.ell, (top, step)
    assert searches >= 50 and kinds == {"_block_slide_attempt", "_aab_attempt"}


def test_one_walk_of_the_canonical_path(monkeypatch):
    # the structured moves read the canonical path's lengths, turns and
    # structure off the measure pass that checks its feasibility, and a
    # path whose cuts are all vertices already is not walked again
    walked, edge_walks = [], []
    walk = model._lengths_and_turns

    def counting(path, tol):
        walked.append(path)
        return walk(path, tol)

    monkeypatch.setattr(model, "_lengths_and_turns", counting)
    monkeypatch.setattr(rewrite, "edge_lengths", lambda path: edge_walks.append(path))
    path = build_path([0.0, TH, TH, TH, TH, 0.0], [1.0, 1.0, 3.0, 1.0, 1.0])
    frame = structure._measured(path, P8)
    sc = rewrite._make_struct(frame)
    assert len(sc.verts) == len(path.vertices) + 2
    again = rewrite._make_struct(sc.frame, sc.st)
    assert [id(p) for p in walked] == [id(path), id(sc.path)] and not edge_walks
    assert again.st is sc.st and again.lens is sc.lens and again.verts == sc.verts
    monkeypatch.undo()
    assert sc.lens == edge_lengths(sc.path) and sc.turns == vertex_turns(sc.path)
    assert sc.st == structure_of(sc.path, P8) and sc.st.type_word == "ABA"


def test_one_walk_per_applied_path(monkeypatch):
    # every walk of a path during shorten is a measure pass: one for the
    # input, one per probe, and one per canonical path that got a cut; so
    # each applied path is walked once, by the probe that accepted it, and
    # the trace's lengths and types are read off that walk
    walked, edge_walks, probes = [], [], []
    walk, measure = model._lengths_and_turns, model.measure

    def counting(path, tol):
        walked.append(path)
        return walk(path, tol)

    def probing(path, params):
        probes.append(path)
        return measure(path, params)

    params = Params.from_sides(16, 2.0 * math.sin(math.pi / 16))
    gamma = SmoothPath(Configuration((0.0, 0.0), (1.0, 0.0)),
                       (ArcSeg(1, 1.5), LineSeg(2.0), ArcSeg(-1, 0.7)))
    path = discretize(gamma, params.theta)
    monkeypatch.setattr(model, "_lengths_and_turns", counting)
    monkeypatch.setattr(rewrite, "measure", probing)
    monkeypatch.setattr(rewrite, "edge_lengths",
                        lambda p: edge_walks.append(p) or edge_lengths(p))
    frames = []
    out, trace = shorten(path, params, observer=lambda _i, p: frames.append(p))
    monkeypatch.undo()
    cut = [p for p in walked if p.canonical]
    assert len(trace.entries) >= 5 and not edge_walks
    assert len(walked) == len(probes) + len(cut)
    assert len({id(p) for p in walked}) == len(walked)
    assert all(any(p is w for w in walked) for p in frames)
    assert not {p.vertices for p in cut} & {p.vertices for p in frames}
    for before, after, e in zip(frames, frames[1:], trace.entries):
        assert (e.length_before, e.length_after) == (path_length(before), path_length(after))
        assert e.type_after == type_or_none(after, params)
    assert out is frames[-1]


def test_halving_skips_only_rejected_steps(monkeypatch):
    # a block slide or AAB rotation that fails at d_max probes only the
    # halving steps that no corner's closed-form turn rules out; every step
    # so ruled out is one the probe rejects, so the halving lands on the
    # same step and result.  The rule is checked at d_max and past the
    # motion's end too, where the built list no longer follows the motion.
    kinds, ruled_out, past_until = set(), 0, 0
    for frame, builder, d_max in _motion_attempts(monkeypatch, _harness_inputs()):
        base, params, motion = frame.path, frame.params, builder.motion
        asked = []

        def probe(d):
            asked.append(d)
            return rewrite._eval_step(base, params, builder, d)

        rejects = rewrite._turn_rejects(motion, base, builder(0.0),
                                        params.theta + rewrite.TOL_ANG)
        steps = [d_max]
        if probe(d_max) is None:
            d_min = rewrite.STEP_MIN_FRACTION * params.ell
            plain = rewrite._halve(probe, d_max, d_min)
            steps = list(asked)
            skipping = rewrite._halve(probe, d_max, d_min, rejects)
            assert plain[0].hex() == skipping[0].hex() and plain[1] == skipping[1]
            kinds.add(builder.__qualname__.split(".")[0])
        if motion.until < math.inf:
            steps += [motion.until * k for k in (1.0, 1.1, 1.5)]
        for d in steps:
            past_until += d >= motion.until
            if rejects(d):
                ruled_out += 1
                assert rewrite._eval_step(base, params, builder, d) is None, (d, motion)
    assert kinds == {"_block_slide_attempt", "_aab_attempt"}
    assert ruled_out >= 200 and past_until >= 100, (ruled_out, past_until)


def test_turn_rejects_at_the_tolerance():
    # a corner held at the tolerance, far from the origin, where the
    # rounding of the probed vertices decides whether its turn passes: the
    # closed-form test rules out only steps whose probe is rejected, and it
    # rules out every step of a corner turned clearly past the tolerance
    bound = P8.theta + rewrite.TOL_ANG
    ruled_out = accepted = 0
    for excess in [k * 2.0 ** -52 for k in range(-40, 41)] + [1e-11, 1e-9]:
        u, w = from_angle(bound + excess), from_angle(bound + excess + 0.1)
        v0, v1 = (999.3, -700.2), (1000.3, -700.2)
        v3 = add(add(v1, u), scale(w, 5.0))
        path = DiscretePath(Configuration(v0, (1.0, 0.0)), Configuration(v3, w),
                            (v0, v1, add(v1, u), v3))
        verts = list(path.vertices)

        def builder(d):  # the turn at v1 holds as v2 slides along u
            return rewrite._shift_block(verts, 2, 3, scale(u, d))

        rejects = rewrite._turn_rejects(rewrite._Motion(2, 3, u), path, verts, bound)
        for d in (0.01, 0.1, 0.3, 0.5, 0.7, 1.0, 1.7, 3.0):
            got, ruled = rewrite._eval_step(path, P8, builder, d), rejects(d)
            assert got is None or not ruled, (excess, d)
            assert ruled or excess < 1e-11, (excess, d)
            accepted += got is not None
            ruled_out += ruled
    assert accepted >= 100 and ruled_out == 16
