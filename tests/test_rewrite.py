import collections
import math
import sys

import numpy as np
import pytest

from ddgeo import model, rewrite, structure
from ddgeo.geometry import add, cross, dot, from_angle, rotate_about, scale, sub, unit
from ddgeo.model import (
    Configuration,
    DiscretePath,
    EdgeClass,
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


def _unit(n):
    """The grid whose discrete circle has circumradius 1."""
    return Params.from_sides(n, 2.0 * math.sin(math.pi / n))


P16 = _unit(16)
# the theta-discretized Dubins curves of _replay_inputs
F1 = discretize(dubins_solve(_cfg(-1.1024, 0.7410, -108.23), _cfg(9.4036, -3.8864, 176.87)),
                P16.theta)
F2 = discretize(dubins_solve(_cfg(1.4182, 1.9902, 67.83), _cfg(9.0431, 4.1089, 143.17)),
                P16.theta)
CREEPER_U, CREEPER_V = _cfg(1.6848, 0.8468, -151.10), _cfg(3.9275, -4.0851, 94.75)
CREEPER = discretize(dubins_solve(CREEPER_U, CREEPER_V), _unit(8).theta)


def _replay_inputs():
    """Random criterion-3 paths, the AAAA witness, the theta-discretized
    Dubins curves F1 and F2 (n = 16, circumradius 1), whose fixed points are
    faulty (ROADMAP item 1), and the creeper (n = 8), whose long-break
    slides reconnect directly."""
    for n in (6, 8, 12):
        params = Params.from_sides(n, 1.0)
        rng = np.random.default_rng(7000 + n)
        for _ in range(30):
            yield params, random_feasible_path(params, rng)
    yield P8, AAAA
    yield P16, F1
    yield P16, F2
    yield _unit(8), CREEPER


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


@pytest.mark.parametrize("n, U, V, crept", [
    pytest.param(8, CREEPER_U, CREEPER_V, 7.466582003638406, id="creeper"),
    pytest.param(16, Configuration((0.0, 0.0), (0.5900864353655404, 0.8073400762984517)),
                 Configuration((-4.483075148706566, 1.789678081219712),
                               (0.7464287902420166, -0.6654652966893462)),
                 7.6147260633338165, id="c16-16"),
    pytest.param(32, _cfg(-1.9653, -0.1632, 218.80), _cfg(-1.6189, 3.1023, 325.74),
                 5.947457334800173, id="n32"),
])
def test_long_break_slide_reconnects_directly(n, U, V, crept):
    # breaking the long edge and merging the short piece back gains a
    # little less each cycle, so these curves take thousands of moves that
    # way to reach the length ``crept``; a direct reconnection takes the
    # cycle's limit in one move
    params = _unit(n)
    out, trace = shorten(discretize(dubins_solve(U, V), params.theta), params)
    assert _word(out, params) == "ABA"
    assert len(trace.entries) < 100
    assert path_length(out) <= crept + 1e-9 * params.ell


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


def _calling_rule(frame):
    """(function, line) of the rule that made an attempt from ``frame``, the
    attempt's caller: past the block slide and the block turn, which build
    the moves of several rules, to the call that asked for the move."""
    while frame.f_code.co_name in ("_block_slide_attempt", "_block_turn_attempt"):
        frame = frame.f_back
    return frame.f_code.co_name, frame.f_lineno


def test_attempt_beats_dense_step_search(monkeypatch):
    # no feasible step on a 401-point grid of (0, d_max] is shorter than the
    # harness's choice: translation families never lengthen the path as the
    # step grows, and a rotation family's one interior minimum is an event
    harness = rewrite._attempt
    # (calling rule, line) -> [(base path, params, builder, d_max, result)]
    calls = {}

    def recording(base, builder, d_max, events=()):
        got = harness(base, builder, d_max, events)
        key = _calling_rule(sys._getframe(1))
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
    aab = [key for key in calls if key[0] == "_aab_attempt"]
    assert aab and len(calls[aab[0]]) >= 20
    for key, recorded in calls.items():
        for base, params, builder, d_max, got in recorded[:20]:
            if d_max <= 0.0:
                continue
            if got is None:
                best = path_length(base) - rewrite.IMPROVE_FRACTION * params.ell
            else:
                best = rewrite._eval_step(base, params, builder, got[1]).total
            for d in np.linspace(0.0, d_max, 402)[1:]:
                trial = rewrite._eval_step(base, params, builder, float(d))
                assert trial is None or trial.total >= best - 1e-9 * params.ell, \
                    (key, float(d), trial.total, best)


def _harness_inputs():
    inputs = [(P8, AAAA)]
    for n in (6, 8, 12):
        params = Params.from_sides(n, 1.0)
        rng = np.random.default_rng(4000 + n)
        inputs += [(params, random_feasible_path(params, rng)) for _ in range(20)]
    return inputs


def _hand_built_slide(ctx, rule, loc):
    """(builder, d_max, events, merge step) of a local slide as the
    long/short and inflection-endpoint rules built it by hand: one vertex
    moved along a line and, once a short neighbour edge is consumed, merged
    into that edge's far end (merge step None when it cannot be)."""
    j, side = loc
    verts, lens, ell = ctx.verts, ctx.lens, ctx.params.ell
    merge_at = absorb = None
    if rule == "_long_short_attempt":
        moving = j + 1
        if side == 0:  # long then short: back along the long edge
            nb, move, far = j, scale(ctx.dirs[j], -1.0), verts[j + 2]
        else:          # short then long: into the long edge
            nb, move, far = j + 1, ctx.dirs[j + 1], verts[j]
        d_max = lens[nb] - ell
    else:
        if side == +1:
            nb, moving, far, absorb = j + 1, j + 1, verts[j], j + 2
            move = ctx.dirs[nb]
        else:
            nb, moving, far, absorb = j - 1, j, verts[j + 1], j - 1
            move = scale(ctx.dirs[nb], -1.0)
        if ctx.classes[nb] is EdgeClass.SHORT:
            d_max, merge_at = lens[nb], lens[nb] - 20.0 * ctx.params.tol_dedup
        else:
            d_max = lens[nb] - ell

    def builder(d):
        out = list(verts)
        if merge_at is not None and d >= merge_at:
            out[moving] = verts[absorb]
            del out[absorb]
        else:
            out[moving] = add(verts[moving], scale(move, d))
        return out

    events = [d_max] + rewrite._ell_cross_events(verts[moving], move, far, ell)
    return builder, d_max, events, merge_at


def test_local_slides_are_block_slides(monkeypatch):
    # the long/short and inflection-endpoint slides run as one-vertex block
    # slides: their builders carry a motion and build the hand-built
    # slide's vertex lists, with its d_max, at its in-range ell crossings too
    harness = rewrite._attempt
    recorded = []

    def recording(base, builder, d_max, events=()):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_block_slide_attempt":
            caller = caller.f_back
        rule = caller.f_code.co_name
        if rule in ("_long_short_attempt", "_inflection_rotate_attempt"):
            recorded.append((rule, caller.f_locals["ctx"], caller.f_locals["loc"],
                             builder, d_max, list(events)))
        return harness(base, builder, d_max, events)

    monkeypatch.setattr(rewrite, "_attempt", recording)
    for params, path in _harness_inputs():
        shorten(path, params)
    monkeypatch.undo()
    seen, merges = set(), 0
    for rule, ctx, loc, builder, d_max, events in recorded:
        assert isinstance(getattr(builder, "motion", None), rewrite._Motion), (rule, loc)
        ref, ref_max, ref_events, merge_at = _hand_built_slide(ctx, rule, loc)
        assert d_max == ref_max, (rule, loc)
        steps = {0.0, 0.5 * d_max, d_max} | {
            d for d in ref_events if 0.0 < d <= d_max * (1.0 + 1e-12)}
        if merge_at is not None:
            steps.add(merge_at)
            merges += 1
        for d in steps:
            assert builder(d) == ref(d), (rule, loc, d)
        seen.add((rule, loc[1]))
    assert merges and seen == {
        ("_long_short_attempt", 0), ("_long_short_attempt", 1),
        ("_inflection_rotate_attempt", +1), ("_inflection_rotate_attempt", -1)}


# three paths of the fixed shorten corpus (ell = 1, n = 6, 12, 12) whose
# four-arc runs reach the trio slide's boundary search
TRIO_INPUTS = [(Params.from_sides(n, 1.0), DiscretePath(Configuration(*u), Configuration(*v),
                                                        verts))
               for n, u, v, verts in (
    (6, ((-1.4679329239316048, -1.3117089800782162), (-0.9997055834430804, 0.02426409760799585)),
     ((-4.512519408468904, -2.6566246065348413), (0.8591065801164892, -0.5117967213655733)),
     ((-1.4679329239316048, -1.3117089800782162), (-2.4676385073746854, -1.2874448824702205),
      (-2.946477974167796, -0.4095424020993711), (-3.732689318489416, 0.20841530038518508),
      (-4.729103144188685, 0.12380154290245551), (-5.600500120271233, -0.366777003381614),
      (-5.925761245837965, -1.3124012417527882), (-5.371625988585394, -2.144827885169268),
      (-4.512519408468904, -2.6566246065348413))),
    (12, ((1.722146329287861, 0.3513959525221839), (-0.9997086054968207, -0.02413926460359062)),
     ((-4.303556759060173, -0.840080657002326), (-0.9080673917930507, 0.4188240823569796)),
     ((1.722146329287861, 0.3513959525221839), (0.9988928576826805, 0.3339320567123979),
      (0.1451894412423136, -0.18682746241139625), (-0.5800097946045697, -0.8753665450545651),
      (-1.4653533664967826, -1.3403039168683806), (-2.44132678882101, -1.5581935194581678),
      (-3.395489367267123, -1.2589047393593056), (-4.303556759060173, -0.840080657002326))),
    (12, ((0.6908046543271453, 0.21391458241293781), (-0.9129833528556007, 0.4079968105372217)),
     ((-5.604880420430251, -2.2051697681561726), (-0.6204944740439364, -0.7842108183906537)),
     ((0.6908046543271453, 0.21391458241293781), (-0.2221786985284554, 0.6219113929501595),
      (-1.2204002716524576, 0.6815242351055426), (-2.1146919336612005, 0.23403968424189536),
      (-2.84772800135489, -0.4461500859400537), (-3.6676149058771914, -1.018675599601095),
      (-4.054916559761075, -1.0520596961385966), (-4.984385946386315, -1.420958949765519),
      (-5.604880420430251, -2.2051697681561726))),
)]


def _motion_attempts(monkeypatch, inputs):
    """(calling rule, base frame, builder, d_max) of every attempt with a
    ``_Motion`` (block slides and block turns) that ``shorten`` makes on
    the inputs."""
    harness = rewrite._attempt
    recorded = []

    def recording(base, builder, d_max, events=()):
        if getattr(builder, "motion", None) is not None:
            recorded.append((_calling_rule(sys._getframe(1))[0], base, builder, d_max))
        return harness(base, builder, d_max, events)

    monkeypatch.setattr(rewrite, "_attempt", recording)
    for params, path in inputs:
        shorten(path, params)
    monkeypatch.undo()
    return recorded


def test_turn_cap_step_matches_bisection(monkeypatch):
    # when a move with a motion fails at d_max, its closed-form boundary
    # step passes its cap probe, and bisection finds no feasible step above
    # it beyond the float noise of the probed vertices
    recorded = _motion_attempts(monkeypatch, _harness_inputs() + TRIO_INPUTS)

    def last_accepted(probe, lo, hi):
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (mid, hi) if probe(mid) is not None else (lo, mid)
        return lo

    kinds, searches = set(), 0
    for rule, frame, builder, d_max in recorded:
        base, params = frame.path, frame.params

        def probe(d, cap=None):
            return rewrite._eval_step(base, params, builder, d, cap)

        if probe(d_max) is not None:
            continue
        cap = rewrite._turn_cap(frame)
        step = rewrite._cap_step(builder.motion, base, builder(0.0),
                                 min(cap, params.theta + rewrite.TOL_ANG), d_max)
        if step is None or probe(step, cap) is None:
            continue
        hi = min(2.0 * step, d_max)
        if probe(hi, cap) is not None:
            continue
        searches += 1
        kinds.add(rule)
        # 1e-12 relative, plus 1e-13 ell for the rounding of the probed
        # vertices, which moves the accepted boundary by about 1e-16 ell
        # whatever the step's size
        top = last_accepted(lambda d: probe(d, cap), step, hi)
        assert top <= step * (1.0 + 1e-12) + 1e-13 * params.ell, (top, step)
    # the move table runs the structured block slides itself (_first_move)
    assert searches >= 50 and kinds == {"_first_move", "_aab_attempt", "_trio_slide"}


def test_one_probe_per_attempt(monkeypatch):
    # an attempt probes its family's best step once, and once more, at the
    # closed-form boundary, only when that step fails; only a bisection
    # fallback probes more.  A probe is an _eval_step call with the
    # attempt's own builder, so the drops of _tidy are not counted
    harness, evaluate, bisection = rewrite._attempt, rewrite._eval_step, rewrite._bisect
    done, stack = [], []

    def recording(base, builder, d_max, events=()):
        stack.append((builder, [], []))
        try:
            return harness(base, builder, d_max, events)
        finally:
            done.append(stack.pop()[1:])

    def probing(base_path, params, builder, d, cap=None):
        got = evaluate(base_path, params, builder, d, cap)
        if stack and builder is stack[-1][0]:
            stack[-1][1].append(got is not None)
        return got

    def bisecting(*args):
        if stack:
            stack[-1][2].append(args)
        return bisection(*args)

    monkeypatch.setattr(rewrite, "_attempt", recording)
    monkeypatch.setattr(rewrite, "_eval_step", probing)
    monkeypatch.setattr(rewrite, "_bisect", bisecting)
    for params, path in _harness_inputs() + TRIO_INPUTS:
        shorten(path, params)
    monkeypatch.undo()
    kinds = collections.Counter()
    for passed, bisected in done:
        if bisected:
            assert passed[0] is False, passed
            kinds["bisection"] += 1
        else:
            assert passed in ([True], [False, True]), passed
            kinds[len(passed)] += 1
    assert kinds[1] >= 500 and kinds[2] >= 50, kinds


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
    probed = {id(p) for p in probes}
    cut = [p for p in walked if id(p) not in probed]
    assert len(trace.entries) >= 5 and not edge_walks
    assert len(walked) == len(probes) + len(cut)
    assert len({id(p) for p in walked}) == len(walked)
    assert all(any(p is w for w in walked) for p in frames)
    assert not {p.vertices for p in cut} & {p.vertices for p in frames}
    for before, after, e in zip(frames, frames[1:], trace.entries):
        assert (e.length_before, e.length_after) == (path_length(before), path_length(after))
        assert e.type_after == type_or_none(after, params)
    assert out is frames[-1]


def test_boundary_search_stops_at_the_floor():
    # a move with no feasible step d > 0 costs the d_max probe and one
    # search from 0 that gives up below STEP_MIN_FRACTION * ell; with a
    # motion, the closed-form cap step and the base list at d = 0 come first
    path = build_path([0.0, 0.0, 0.0], [1.0, 1.0])
    verts = list(path.vertices)
    frame = structure._measured(path, P8)
    d_max, floor = 1.0, rewrite.STEP_MIN_FRACTION * P8.ell
    limit = 3 + math.ceil(math.log2(d_max / floor))
    for motion in (None, rewrite._Motion(1, 2, (0.0, 1.0))):
        calls = []

        def builder(d):  # lifts the middle vertex, but builds nothing for d > 0
            calls.append(d)
            return verts if d == 0.0 else None

        builder.motion = motion
        assert rewrite._attempt(frame, builder, d_max) is None
        assert len(calls) <= limit, (motion, len(calls))
        assert (0.0 in calls) == (motion is not None)
        assert 0.5 * floor <= min(d for d in calls if d > 0.0) < floor


def _scaled(path, f):
    return DiscretePath(Configuration(scale(path.start.point, f), path.start.heading),
                        Configuration(scale(path.end.point, f), path.end.heading),
                        tuple(scale(v, f) for v in path.vertices))


def _shortened(path, params):
    out, trace = shorten(path, params)
    moves = [(e.rule.kind, e.location) for e in trace.entries]
    return moves, type_or_none(out, params), path_length(out)


@pytest.mark.parametrize("name, k", [
    ("sample", 10), ("sample", -10), ("F1", 10), ("F1", -10), ("F2", 10), ("F2", -10),
])
def test_shorten_commutes_with_exact_scaling(name, k):
    # scaling the path and ell by a power of two is exact in floating point,
    # so shorten makes the same moves at the same locations and reaches the
    # same word, 2^k times as long
    inputs = {"sample": _harness_inputs(), "F1": [(P16, F1)], "F2": [(P16, F2)]}[name]
    f = 2.0 ** k
    for params, path in inputs:
        moves, word, length = _shortened(path, params)
        big = Params.from_sides(params.n_sides, params.ell * f)
        moves_f, word_f, length_f = _shortened(_scaled(path, f), big)
        assert (moves_f, word_f) == (moves, word), (path, k)
        assert length_f == pytest.approx(length * f, rel=1e-12), (path, k)


def test_trio_slide_double_rotation(monkeypatch):
    # the one input of a wide sample on which a trio slide reaches its
    # double-rotation branch (an obtuse angle at the junction and the target
    # edge outside the wedge); without that branch the path ends on AAAAA
    harness = rewrite._attempt
    done = []

    def recording(base, builder, d_max, events=()):
        got = harness(base, builder, d_max, events)
        if builder.__name__ == "double_rotation" and got is not None:
            done.append(got)
        return got

    monkeypatch.setattr(rewrite, "_attempt", recording)
    U = Configuration((0.0722150898706353, -0.26250893490600236),
                      (-0.04444487118543391, 0.9990118384810613))
    V = Configuration((0.781254417706783, -2.7388197411856754),
                      (-0.8708615265819643, 0.49152843409036956))
    params = Params.from_sides(8, 2.0 * math.sin(math.pi / 8))
    out, trace = shorten(discretize(dubins_solve(U, V), 2.0 * math.pi / 8), params)
    assert not trace.budget_exhausted
    assert type_string(out, params) == "ABA"
    assert path_length(out) == pytest.approx(5.940930826927475, rel=1e-9)
    assert done


def _obtuse_rotation(frame, b_idx, c_idx):
    """Whether the trio slide at (b_idx, c_idx) takes its obtuse-angle
    rotation of b about a, and the smallest length change of that rotation
    over 400 steps in (0, 0.4 theta]."""
    verts = list(frame.path.vertices)
    a, b, c, d = verts[b_idx - 1], verts[b_idx], verts[c_idx], verts[c_idx + 1]
    ey = unit(sub(b, c))
    qd = (cross(sub(d, c), ey), dot(sub(d, c), ey))
    taken = (qd[0] < 0.0 <= qd[1] and rewrite._angle_between(a, b, c) > 0.5 * math.pi + 1e-12
             and rewrite._in_wedge(unit(sub(d, c)), ey, unit(sub(b, a))))
    gain = min(path_length(frame.path.with_vertices(rewrite._shift_block(
        verts, b_idx, c_idx + 1, sub(rotate_about(b, a, phi), b)))) - frame.total
        for phi in np.linspace(0.0, 0.4 * frame.params.theta, 401)[1:])
    return taken, gain


def test_trio_slide_obtuse_rotation():
    # the trio slide's rotation of b about a, at an obtuse angle at b with
    # the target edge in the wedge, can only shorten the path when the
    # target edge runs back along a-b; a recorded input of the wide sample
    # gains nothing, and a path that turns back onto a long edge gains
    P6 = Params.from_sides(6, 1.0)
    th = P6.theta
    recorded = DiscretePath(
        Configuration((-4.962705015236142, -4.434029991985619),
                      (0.688718379344319, 0.7250289607686956)),
        Configuration((-1.4927410065706614, -1.2253957388254277),
                      (0.025454328604495032, -0.9996759860851386)),
        ((-4.962705015236142, -4.434029991985619), (-4.273986635891823, -3.709001031216923),
         (-3.249684933952544, -0.2698079442761924), (-2.3966672991953972, 0.2520741446992035),
         (-1.5181953351751565, -0.2257197527402891), (-1.4927410065706614, -1.2253957388254277)))
    back = build_path([0.0, 0.0, th, th, th, 0.5 * th, -5.0 * th / 12.0, 0.0],
                      [1.0, 20.0, 1.0, 1.0, 1.0, 1.0, 20.0], start=(-1.0, 0.0))
    for path, c_idx, moves in ((recorded, 3, False), (back, 6, True)):
        frame = structure._measured(path, P6)
        taken, gain = _obtuse_rotation(frame, 1, c_idx)
        got = rewrite._trio_slide(frame, 1, c_idx)
        assert taken and (got is not None) == moves, (c_idx, got)
        if moves:
            assert gain < -1e-2 and not validate(got[0].path, P6)
            assert got[0].total < frame.total - 1e-2
        else:
            assert gain > 5e-4


# the three AAB paths of tier-1 (taken from the shorten trajectories of the
# u_turn n = 8 plans at ell = 1 and 2 sin(pi/8) and of the antiparallel
# n = 12 plan) on which the AAB rule's arcs overlap: the bridge-side arc
# begins ell before its first turn, across a short edge
OVERLAP_INPUTS = [(Params.from_sides(n, ell), DiscretePath(Configuration(*u), Configuration(*v),
                                                           verts))
                  for n, ell, u, v, verts in (
    (8, 1.0, ((0.0, 0.0), (1.0, 0.0)), ((0.0, 0.0), (-1.0, -0.0)),
     ((0.0, 0.0), (0.7071067804928864, 0.7071067818802087),
      (1.2985395761365457, 1.2985395792981556), (2.298539576136546, 1.2985395797981492),
      (3.0056463573230934, 0.591432798611602), (3.0056463573230934, -0.4085672013883987),
      (2.298539576136547, -1.115673982574946), (1.2985395761365452, -1.115673982574946),
      (0.0, 0.0))),
    (8, 0.7653668647301796, ((0.0, 0.0), (1.0, 0.0)), ((0.0, 0.0), (-1.0, -0.0)),
     ((0.0, 0.0), (0.5411960996152916, 0.5411961006771024),
      (0.9938591641156838, 0.9938591665354756), (1.7592260288458632, 0.9938591669181541),
      (2.30042212899206, 0.45266306677195745), (2.30042212899206, -0.3127037979582227),
      (1.7592260288458637, -0.8538998981044194), (0.9938591641156835, -0.8538998981044194),
      (0.0, 0.0))),
    (12, 0.5176380902050415, ((0.0, 0.0), (1.0, 0.0)), ((0.0, 1.0), (-1.0, 0.0)),
     ((0.0, 0.0), (0.4482877358883463, -0.2588190454414491),
      (0.8394855458764593, -0.4846772070257048), (1.3571236360815004, -0.48467720728451963),
      (1.8054113721655272, -0.22585816218199886), (2.0642304172680483, 0.2224295739020276),
      (2.0642304172680483, 0.7400676641070694), (1.8054113721655272, 1.1883554001910963),
      (1.357123636081501, 1.447174445293617), (0.8394855458764593, 1.447174445293617),
      (0.0, 1.0))),
)]


@pytest.mark.parametrize("k", range(len(OVERLAP_INPUTS)))
def test_aab_overlap_slide_both_directions(monkeypatch, k):
    # the overlap slide runs on the AAB path (direction +1) and on its
    # reversal, a BAA path (direction -1), and both end on the same word and
    # length
    params, path = OVERLAP_INPUTS[k]
    slide = rewrite._aab_overlap_slide
    moved = []

    def recording(sc, a1, a2, direction):
        got = slide(sc, a1, a2, direction)
        if got is not None:
            moved.append(direction)
        return got

    monkeypatch.setattr(rewrite, "_aab_overlap_slide", recording)
    fixed, _ = shorten(path, params)
    assert moved == [+1]
    back, _ = shorten(model.reverse(path), params)
    assert moved == [+1, -1]
    assert type_string(back, params) == type_string(fixed, params) == "AAA"
    assert path_length(back) == pytest.approx(path_length(fixed), rel=1e-12)


def test_vertex_at_s_matches_linear_scan():
    # the bisection returns the first vertex within the tolerance of s, as
    # a scan of the positions does
    for params, path in OVERLAP_INPUTS + TRIO_INPUTS:
        lengths, turns, _ = model.measure(path, params)
        sc = rewrite._make_struct(structure._Frame(path, params, lengths, turns))
        tol = 1e-6 * max(1.0, params.ell)
        for v in sc.vertex_s:
            for s in (v - 2.0 * tol, v - tol, v - 0.5 * tol, v, v + 0.5 * tol, v + tol,
                      v + 2.0 * tol, v + 0.5 * params.ell):
                want = next((i for i, vs in enumerate(sc.vertex_s) if abs(vs - s) <= tol), None)
                assert sc.vertex_at_s(s) == want, (s, want)


def test_trio_slide_along_the_target_edge(monkeypatch):
    # a right-turning run (n = 5) whose junction angle is acute with the
    # target edge inside the wedge to the foot: the trio slide translates
    # the block b..c along the target edge as a block slide, and the move
    # is feasible and strictly shorter
    params = Params.from_sides(5, 1.0)
    path = DiscretePath(
        Configuration((1.7106300705266753, -1.1917705477228298),
                      (-0.9861004768620476, -0.1661500813494908)),
        Configuration((-0.8479134144915146, -0.48687314213996924),
                      (-0.8852798535696056, -0.46505868539763623)),
        ((1.7106300705266753, -1.1917705477228298), (0.7245295936646277, -1.3579206290723205),
         (0.5778259066925989, -2.3471011122142054), (0.7592052697181655, -2.5114710003898444),
         (0.5739302306833984, -3.4941577052508928), (-0.41791349927399885, -3.621617563026577),
         (-0.8456315950400042, -2.717705382251087), (0.038321231289890616, -1.8406168916969379),
         (0.08698011195354072, -0.8418014366039761), (-0.8479134144915146, -0.48687314213996924)))
    lengths, turns, violations = model.measure(path, params)
    assert not violations
    slide = rewrite._block_slide_attempt
    slides = []

    def recording(ctx, loc):
        slides.append((sys._getframe(1).f_code.co_name, loc))
        return slide(ctx, loc)

    monkeypatch.setattr(rewrite, "_block_slide_attempt", recording)
    got = rewrite._trio_slide(structure._Frame(path, params, lengths, turns), 3, 6)
    assert slides == [("_trio_slide", (6, 2, "direct"))]
    assert got is not None
    out = got[0].path
    assert validate(out, params) == []
    assert path_length(out) < path_length(path) - 1e-3
