import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ddgeo.geometry import (
    DegenerateGeometryError,
    add,
    dist,
    from_angle,
    line_intersection,
    scale,
    sub,
    turn_angle,
    unit,
)
from ddgeo.model import (
    Configuration,
    DiscretePath,
    EdgeClass,
    Params,
    Violation,
    ViolationKind,
    augmented,
    classify_edge,
    is_inflection,
    measure,
    path_length,
    reverse,
    validate,
    vertex_turns,
)
from ddgeo.rewrite import RewriteRule, RuleKind, apply as apply_rule
from ddgeo.structure import canonicalize

from gen import build_path, random_feasible_path

P8 = Params.from_sides(8, 1.0)
TH = P8.theta


def ngon_path(n, ell=1.0, sides=None):
    params = Params.from_sides(n, ell)
    sides = sides if sides is not None else n
    turns = [0.0] + [params.theta] * (sides - 1) + [0.0]
    return build_path(turns, [ell] * sides), params


def test_params_validation():
    with pytest.raises(ValueError):
        Params(theta=1.0, ell=1.0)  # does not divide 2 pi
    with pytest.raises(ValueError):
        Params.from_sides(3, 1.0)   # theta > pi/2
    with pytest.raises(ValueError, match="at least 4"):
        Params.from_sides(0, 1.0)   # no division by zero
    with pytest.raises(ValueError):
        Params.from_sides(8, -1.0)
    p = Params.from_sides(8, 2.0)
    assert p.n_sides == 8
    assert p.circumradius == pytest.approx(1.0 / math.sin(p.theta / 2.0))


@pytest.mark.parametrize("point", [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 1.0)])
def test_configuration_rejects_non_finite_point(point):
    with pytest.raises(ValueError, match="finite"):
        Configuration(point, (1.0, 0.0))


def test_classify_edge_examples():
    assert classify_edge(1.0, P8) is EdgeClass.NORMAL
    assert classify_edge(0.5, P8) is EdgeClass.SHORT
    assert classify_edge(3.0, P8) is EdgeClass.LONG
    with pytest.raises(DegenerateGeometryError):
        classify_edge(0.0, P8)


def test_classify_edge_partitions():
    for ln in np.linspace(1e-6, 5.0, 997):
        hits = [classify_edge(float(ln), P8)]
        assert len(hits) == 1  # total function, one class per length


def test_is_inflection_zigzag():
    path = build_path([0.0, 0.3, -0.5, 0.0],
                      [1.0, math.hypot(1.0, 0.3), 1.0])
    assert is_inflection(path, 1)


def test_is_inflection_convex_and_straight():
    convex = build_path([0.0, 0.4, 0.4, 0.0], [1.0, 1.0, 1.0])
    assert not any(is_inflection(convex, j) for j in range(3))
    straight = build_path([0.0, 0.0, 0.0], [1.0, 1.0])
    assert not is_inflection(straight, 0)
    with pytest.raises(IndexError):
        is_inflection(straight, 5)


def test_augmented_examples():
    u = Configuration((0.0, 0.0), (1.0, 0.0))
    single = DiscretePath(u, u, ((0.0, 0.0),))
    assert augmented(single, P8) == [(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)]

    two = DiscretePath(u, Configuration((5.0, 0.0), (1.0, 0.0)),
                       ((0.0, 0.0), (5.0, 0.0)))
    assert augmented(two, P8) == [(-1.0, 0.0), (0.0, 0.0), (5.0, 0.0), (6.0, 0.0)]

    p2 = Params.from_sides(8, 2.0)
    up = Configuration((0.0, 0.0), (0.0, 1.0))
    vert = DiscretePath(up, Configuration((0.0, 3.0), (0.0, 1.0)),
                        ((0.0, 0.0), (0.0, 3.0)))
    assert augmented(vert, p2)[0] == (0.0, -2.0)


def test_validate_straight():
    path = build_path([0.0, 0.0], [5.0])
    assert validate(path, P8) == []


def test_validate_regular_ngon():
    for n in (8, 12, 360):
        path, params = ngon_path(n)
        assert validate(path, params) == []


def test_validate_turn_violation_magnitude():
    turns = [0.0, TH, TH + 0.1, TH, 0.0]
    path = build_path(turns, [1.0] * 4)
    vs = validate(path, P8)
    assert len(vs) == 1
    v = vs[0]
    assert v.kind is ViolationKind.TURN
    assert v.location == 2
    assert v.magnitude == pytest.approx(0.1, abs=1e-9)


def test_validate_adjacent_shorts():
    path = build_path([0.0, 0.1, 0.1, 0.0], [1.0, 0.5, 0.5])
    vs = validate(path, P8)
    assert any(v.kind is ViolationKind.LENGTH for v in vs)


def test_validate_turn_over_length():
    # short non-inflection edge whose neighbor turns sum past theta
    turns = [0.0, 0.8 * TH, 0.8 * TH, 0.0]
    path = build_path(turns, [1.0, 0.5, 1.0])
    vs = validate(path, P8)
    kinds = {v.kind for v in vs}
    assert ViolationKind.TURN_OVER_LENGTH in kinds
    [v] = [v for v in vs if v.kind is ViolationKind.TURN_OVER_LENGTH]
    assert v.magnitude == pytest.approx(0.6 * TH, abs=1e-9)


def test_validate_short_inflection_exempt():
    turns = [0.0, 0.8 * TH, -0.8 * TH, 0.0]
    path = build_path(turns, [1.0, 0.5, 1.0])
    assert validate(path, P8) == []


def test_validate_terminal_short_edge_against_pre_edge():
    # short first edge: the pre-edge acts as its non-short neighbor
    bad = build_path([0.7 * TH, 0.7 * TH, 0.0], [0.5, 1.0])
    vs = validate(bad, P8)
    assert any(v.kind is ViolationKind.TURN_OVER_LENGTH for v in vs)
    ok = build_path([0.7 * TH, -0.7 * TH, 0.0], [0.5, 1.0])
    assert validate(ok, P8) == []


def test_validate_pre_post_kinds():
    path = build_path([TH + 0.2, 0.0], [2.0])
    vs = validate(path, P8)
    assert vs[0].kind is ViolationKind.PRE_EDGE
    path2 = build_path([0.0, TH + 0.2], [2.0])
    vs2 = validate(path2, P8)
    assert vs2[0].kind is ViolationKind.POST_EDGE


def test_validate_degenerate_vertices():
    u = Configuration((0.0, 0.0), (1.0, 0.0))
    path = DiscretePath(u, Configuration((1.0, 0.0), (1.0, 0.0)),
                        ((0.0, 0.0), (0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(DegenerateGeometryError):
        validate(path, P8)


def test_validate_opposite_heading_point_path():
    u = Configuration((0.0, 0.0), (1.0, 0.0))
    v = Configuration((0.0, 0.0), (-1.0, 0.0))
    path = DiscretePath(u, v, ((0.0, 0.0),))
    vs = validate(path, P8)  # accepted as input, infeasible for theta <= pi/2
    assert len(vs) == 1 and vs[0].magnitude == pytest.approx(math.pi - TH)


def test_validate_deterministic():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = random_feasible_path(P8, rng)
        assert validate(p, P8) == validate(p, P8) == []


def test_path_length_examples():
    assert path_length(build_path([0.0, 0.0], [5.0])) == pytest.approx(5.0)
    u = Configuration((0.0, 0.0), (1.0, 0.0))
    assert path_length(DiscretePath(u, u, ((0.0, 0.0),))) == 0.0
    square3 = build_path([0.0, math.pi / 2, math.pi / 2, 0.0], [1.0, 1.0, 1.0])
    assert path_length(square3) == pytest.approx(3.0)


def test_reverse_preserves_feasibility_and_length():
    rng = np.random.default_rng(4)
    for _ in range(25):
        p = random_feasible_path(P8, rng)
        r = reverse(p)
        assert validate(r, P8) == []
        assert path_length(r) == pytest.approx(path_length(p))
        assert reverse(r).vertices == p.vertices


def test_subpath_slicing_of_canonical_paths():
    # any subpath between vertices whose outer edges are normal-or-long,
    # with boundary headings taken from those edges, stays feasible
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 60:
        p = random_feasible_path(P8, rng)
        cp = canonicalize(p, P8)
        v = cp.vertices
        if len(v) < 4:
            continue
        for i in range(1, len(v) - 2):
            for j in range(i + 1, len(v) - 1):
                lead = sub(v[i], v[i - 1])
                tail = sub(v[j + 1], v[j])
                if math.hypot(*lead) < P8.ell - P8.tol_len:
                    continue
                if math.hypot(*tail) < P8.ell - P8.tol_len:
                    continue
                sliced = DiscretePath(
                    Configuration(v[i], unit(lead)),
                    Configuration(v[j], unit(tail)),
                    v[i:j + 1])
                assert validate(sliced, P8) == []
                checked += 1


def test_long_long_shortcut_soundness():
    # a feasible path with two adjacent long edges admits the corner shortcut
    rng = np.random.default_rng(6)
    for _ in range(20):
        t = rng.uniform(0.2, 1.0) * TH
        lengths = [float(rng.uniform(1.3, 3.0)), float(rng.uniform(1.3, 3.0))]
        path = build_path([0.0, t, 0.0], lengths)
        assert validate(path, P8) == []
        out = apply_rule(path, RewriteRule(RuleKind.LONG_LONG_SHORTCUT, 0.0),
                         (0,), P8)
        assert validate(out, P8) == []
        assert path_length(out) < path_length(path)


def test_turn_over_length_matches_supporting_line_angle():
    # the signed-turn sum equals the supplementary angle at the intersection
    # of the neighbor supporting lines, for short non-inflection edges
    rng = np.random.default_rng(7)
    for _ in range(50):
        t_a = float(rng.uniform(0.05, 0.45)) * TH
        t_b = float(rng.uniform(0.05, 0.45)) * TH
        base = float(rng.uniform(0, 2 * math.pi))
        path = build_path([0.0, t_a, t_b, 0.0], [1.2, 0.6, 1.2],
                          base_angle=base)
        v = path.vertices
        a, b = v[1], v[2]
        c = line_intersection(a, sub(a, v[0]), b, sub(v[3], b))
        assert c is not None
        ang_acb = abs(turn_angle(sub(a, c), sub(b, c)))
        supplement = math.pi - ang_acb
        assert supplement == pytest.approx(t_a + t_b, abs=1e-9)


# -- the one-pass kernel against the helper-based validator it replaced ------

def _old_edge_lengths(path):
    v = path.vertices
    return [dist(v[i], v[i + 1]) for i in range(len(v) - 1)]


def _old_vertex_turns(path):
    v = path.vertices
    if len(v) == 1:
        return [turn_angle(path.start.heading, path.end.heading)]
    dirs = [path.start.heading]
    for i in range(len(v) - 1):
        d = sub(v[i + 1], v[i])
        if d == (0.0, 0.0):
            raise DegenerateGeometryError(f"repeated vertex at index {i}")
        dirs.append(d)
    dirs.append(path.end.heading)
    return [turn_angle(dirs[i], dirs[i + 1]) for i in range(len(v))]


def _old_validate(path, params):
    v = path.vertices
    lengths = _old_edge_lengths(path)
    for i, ln in enumerate(lengths):
        if ln <= params.tol_dedup:
            raise DegenerateGeometryError(f"repeated vertex at index {i}")
    turns = _old_vertex_turns(path)
    violations = []
    for i, t in enumerate(turns):
        if abs(t) > params.theta + 1e-9:
            if i == 0:
                kind = ViolationKind.PRE_EDGE
            elif i == len(v) - 1:
                kind = ViolationKind.POST_EDGE
            else:
                kind = ViolationKind.TURN
            violations.append(Violation(kind, i, abs(t) - params.theta))
    classes = [classify_edge(ln, params) for ln in lengths]
    for j in range(len(classes) - 1):
        if classes[j] is EdgeClass.SHORT and classes[j + 1] is EdgeClass.SHORT:
            violations.append(Violation(ViolationKind.LENGTH, j,
                                        params.ell - max(lengths[j], lengths[j + 1])))
    for j, cls in enumerate(classes):
        if cls is not EdgeClass.SHORT:
            continue
        a, b = turns[j], turns[j + 1]
        if (a > 1e-9 and b < -1e-9) or (a < -1e-9 and b > 1e-9):
            continue
        total = abs(a + b)
        if total > params.theta + 1e-9:
            violations.append(Violation(ViolationKind.TURN_OVER_LENGTH, j,
                                        total - params.theta))
    return violations


def _outcome(fn):
    try:
        return fn()
    except DegenerateGeometryError as exc:
        return ("DegenerateGeometryError", str(exc))


def _same(a, b) -> bool:
    """Exact equality; NaN turns (non-finite coordinates) compare by repr,
    which round-trips every float exactly."""
    return a == b or repr(a) == repr(b)


def _kernel_path(n_sides, ell, heading, edges, end_turn, corrupt=()):
    """Path from the start heading through (turn before, length) edges and a
    final turn onto the end heading.  Each (mode, index) of ``corrupt`` then
    repeats that vertex ("repeat"), inserts a copy a hair away from it
    ("near"), or sets its x to NaN or inf (interior vertices only)."""
    params = Params.from_sides(n_sides, ell)
    ang, verts = heading, [(0.3, -0.7)]
    for t, ln in edges:
        ang += t
        verts.append(add(verts[-1], scale(from_angle(ang), ln)))
    for mode, at in corrupt:
        at = min(at, len(verts) - 1)
        if mode == "repeat":
            verts.insert(at, verts[at])
        elif mode == "near":
            verts.insert(at, (verts[at][0] + 1e-13 * ell, verts[at][1]))
        elif 0 < at < len(verts) - 1:
            verts[at] = (float(mode), verts[at][1])
    path = DiscretePath.from_vertices(verts, from_angle(heading),
                                      from_angle(ang + end_turn))
    return path, params


@st.composite
def _kernel_cases(draw):
    n_sides = draw(st.sampled_from([4, 6, 8, 16]))
    ell = draw(st.sampled_from([1.0, 0.37]))
    th = 2.0 * math.pi / n_sides
    turn = st.one_of(
        st.sampled_from([0.0, th, -th, th + 2e-9, -th - 5e-10, 1e-10]),
        st.floats(-1.6 * th, 1.6 * th))
    short_below = ell - 1e-9 * ell  # the SHORT bound, and one ulp under it
    length = st.one_of(
        st.sampled_from([ell, short_below, math.nextafter(short_below, 0.0),
                         ell + 5e-10 * ell]),
        st.floats(0.2, 0.99).map(lambda f: f * ell),
        st.floats(1.01, 3.0).map(lambda f: f * ell))
    edges = draw(st.lists(st.tuples(turn, length), max_size=7))
    heading = draw(st.floats(-math.pi, math.pi))
    corrupt = draw(st.lists(st.tuples(
        st.sampled_from(["repeat", "near", "nan", "inf"]), st.integers(0, 7)), max_size=2))
    return _kernel_path(n_sides, ell, heading, edges, draw(turn), corrupt)


K = ViolationKind
# name -> (_kernel_path arguments, the violation kinds or the error expected)
_KERNEL_EXAMPLES = {
    "single_vertex": ((8, 1.0, 0.4, [], 0.5), set()),
    "single_vertex_pre_edge": ((8, 1.0, 0.4, [], 2.0), {K.PRE_EDGE}),
    "short_short": ((8, 1.0, 0.0, [(0.0, 1.0), (0.1, 0.5), (0.2, 0.6), (0.0, 1.0)], 0.0),
                    {K.LENGTH}),
    "turn_over_length": ((8, 1.0, 1.0, [(0.0, 1.0), (0.6, 0.5), (0.6, 1.0)], 0.0),
                         {K.TURN_OVER_LENGTH}),
    "short_inflection": ((8, 1.0, 1.0, [(0.0, 1.0), (0.7, 0.5), (-0.7, 1.0)], 0.0), set()),
    "pre_and_post_edge": ((6, 0.37, -2.0, [(1.2, 0.5), (0.3, 0.8)], -1.3),
                          {K.PRE_EDGE, K.POST_EDGE}),
    "repeated_vertex": ((8, 1.0, 0.0, [(0.0, 1.0), (0.1, 1.0)], 0.0, [("repeat", 1)]),
                        "repeated vertex at index 1"),
    "near_repeat": ((8, 1.0, 0.0, [(0.0, 1.0), (0.1, 1.0)], 0.0, [("near", 1)]),
                    "repeated vertex at index 1"),
    "nan_coordinate": ((8, 1.0, 0.0, [(0.0, 1.0), (0.1, 1.0)], 0.0, [("nan", 1)]),
                       "edge length must be positive, got nan"),
    "inf_coordinate": ((16, 1.0, 0.0, [(0.0, 0.5), (0.1, 1.0), (0.0, 0.6)], 0.0,
                        [("inf", 2)]), "edge length must be positive, got inf"),
    # a repeat is reported before an earlier non-finite edge
    "nan_then_repeat": ((8, 1.0, 0.0, [(0.0, 1.0), (0.1, 1.0), (0.1, 1.0)], 0.0,
                         [("nan", 1), ("repeat", 2)]), "repeated vertex at index 2"),
}


def _check_kernel(path, params):
    old = _outcome(lambda: (_old_validate(path, params),
                            _old_edge_lengths(path), _old_vertex_turns(path)))
    if len(old) == 3:
        violations, lengths, turns = old
        old = (lengths, turns, violations)
    assert _same(_outcome(lambda: measure(path, params)), old)
    assert _same(_outcome(lambda: validate(path, params)),
                 _outcome(lambda: _old_validate(path, params)))
    assert _same(_outcome(lambda: vertex_turns(path)),
                 _outcome(lambda: _old_vertex_turns(path)))


@pytest.mark.parametrize("name", sorted(_KERNEL_EXAMPLES))
def test_measure_matches_helper_validator_on_named_paths(name):
    args, expect = _KERNEL_EXAMPLES[name]
    path, params = _kernel_path(*args)
    _check_kernel(path, params)
    if isinstance(expect, str):
        with pytest.raises(DegenerateGeometryError) as err:
            validate(path, params)
        assert str(err.value) == expect
    else:
        assert {v.kind for v in validate(path, params)} == expect


@settings(max_examples=400, deadline=None)
@given(_kernel_cases())
def test_measure_matches_helper_validator(case):
    _check_kernel(*case)
