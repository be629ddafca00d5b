import itertools
import math

import numpy as np
import pytest

from ddgeo import model
from ddgeo.model import Configuration, DiscretePath, Params, path_length, validate
from ddgeo.structure import (
    FORBIDDEN_FACTORS,
    TRUE_TYPES,
    InfeasiblePathError,
    Orientation,
    canonicalize,
    extract_arcs,
    extract_bridges,
    find_forbidden_subtype,
    is_true_type,
    structure_of,
    type_string,
)

from gen import build_path, random_feasible_path

P8 = Params.from_sides(8, 1.0)
TH = P8.theta


def test_full_ngon_is_one_arc():
    turns = [0.0] + [TH] * 7 + [0.0]
    path = build_path(turns, [1.0] * 8)
    arcs = extract_arcs(path, P8)
    assert len(arcs) == 1
    arc = arcs[0]
    assert arc.start_s == pytest.approx(0.0)
    assert arc.end_s == pytest.approx(8.0)
    assert arc.orientation is Orientation.LEFT
    assert arc.edge_count == 8
    assert extract_bridges(path, arcs, P8) == []
    assert type_string(path, P8) == "A"


def test_straight_path_no_arcs_one_bridge():
    path = build_path([0.0, 0.0], [5.0])
    arcs = extract_arcs(path, P8)
    assert arcs == []
    bridges = extract_bridges(path, arcs, P8)
    assert len(bridges) == 1
    assert bridges[0].start_s == 0.0 and bridges[0].end_s == pytest.approx(5.0)
    assert type_string(path, P8) == "B"


def test_flush_short_first_edge_is_arc():
    # two-point arc at the start: the turn from the pre-edge is exactly theta
    path = build_path([TH, -0.4 * TH, 0.0], [0.5, 2.0])
    arcs = extract_arcs(path, P8)
    assert any(a.start_s == pytest.approx(0.0)
               and a.end_s == pytest.approx(0.5) for a in arcs)


def test_sub_theta_corner_spawns_no_arc():
    # two normal edges with an interior 0.5 theta corner: each edge is its
    # own arc, and no arc contains the corner in its interior
    path = build_path([0.0, 0.5 * TH, 0.0], [1.0, 1.0])
    arcs = extract_arcs(path, P8)
    assert len(arcs) == 2
    corner_s = 1.0
    for a in arcs:
        assert not (a.start_s < corner_s - 1e-9 < a.end_s - 1e-9
                    and a.start_s + 1e-9 < corner_s < a.end_s - 1e-9) or \
            pytest.fail(f"arc {a} contains the corner")
    assert type_string(path, P8) == "AA"


def test_normal_edge_arc_infeasible_input_raises():
    bad = build_path([0.0, TH + 0.3, 0.0], [1.0, 1.0])
    with pytest.raises(InfeasiblePathError):
        extract_arcs(bad, P8)


def test_bridge_inside_long_flush_edge():
    # arc, then a 3 ell edge flush with the arc's last edge, then arc:
    # both arcs extend length ell into the straight stretch, leaving a
    # bridge strictly inside it
    turns = [0.0, TH, TH, TH, TH, 0.0]
    lengths = [1.0, 1.0, 3.0, 1.0, 1.0]
    path = build_path(turns, lengths)
    assert validate(path, P8) == []
    st = structure_of(path, P8)
    assert st.type_word == "ABA"
    [bridge] = st.bridges
    assert bridge.start_s == pytest.approx(3.0)
    assert bridge.end_s == pytest.approx(4.0)
    assert bridge.host_edge == 2


def test_example_figure_word():
    # classifier self-consistency fixture: a path built to carry the word
    # ABAABAB (flush short start, long edges hosting bridges, an
    # overlapping short inflection edge between same-length arc runs)
    turns = [TH, -0.3 * TH, -TH, -TH, -TH, TH, 0.5 * TH, TH, 0.3 * TH, 0.0]
    lengths = [0.4, 2.5, 1.0, 1.0, 0.5, 1.0, 2.2, 1.0, 1.5]
    path = build_path(turns, lengths)
    assert validate(path, P8) == []
    st = structure_of(path, P8)
    assert st.type_word == "ABAABAB"
    # the short inflection edge is shared by two arcs
    a2, a3 = st.arcs[1], st.arcs[2]
    assert a2.end_s > a3.start_s  # overlap
    assert a2.end_s - a3.start_s == pytest.approx(0.5)


def test_overlapping_arcs_share_one_edge():
    # short inflection edge making exactly theta with both neighbors
    turns = [0.0, TH, -TH, 0.0]
    lengths = [1.0, 0.5, 1.0]
    path = build_path(turns, lengths)
    assert validate(path, P8) == []
    arcs = extract_arcs(path, P8)
    assert len(arcs) == 2
    assert arcs[0].end_s == pytest.approx(1.5)
    assert arcs[1].start_s == pytest.approx(1.0)
    assert type_string(path, P8) == "AA"


def test_canonicalize_straight_unchanged():
    path = build_path([0.0, 0.0], [5.0])
    cp = canonicalize(path, P8)
    assert cp.vertices == path.vertices


def test_canonicalize_inserts_bridge_endpoints():
    turns = [0.0, TH, TH, TH, TH, 0.0]
    lengths = [1.0, 1.0, 3.0, 1.0, 1.0]
    path = build_path(turns, lengths)
    cp = canonicalize(path, P8)
    assert len(cp.vertices) == len(path.vertices) + 2
    assert validate(cp, P8) == []
    assert path_length(cp) == pytest.approx(path_length(path), rel=1e-12)
    # inserted vertices sit at distance ell from both ends of the long edge
    st = structure_of(path, P8)
    [bridge] = st.bridges
    assert any(abs(v[0] - bridge.start_pt[0]) < 1e-9
               and abs(v[1] - bridge.start_pt[1]) < 1e-9 for v in cp.vertices)
    # canonicalizing again is a fixed point
    cp2 = canonicalize(cp, P8)
    assert cp2.vertices == cp.vertices


def test_one_length_turn_walk_per_call(monkeypatch):
    # structure_of and canonicalize take the input's lengths, turns and
    # feasibility verdict from one measure pass and share it between the arc
    # and the bridge extraction; canonicalize walks its result once more to
    # check that the inserted cuts kept it feasible
    walked = []
    walk = model._lengths_and_turns

    def counting(path, tol):
        walked.append(path)
        return walk(path, tol)

    monkeypatch.setattr(model, "_lengths_and_turns", counting)
    path = build_path([0.0, TH, TH, TH, TH, 0.0], [1.0, 1.0, 3.0, 1.0, 1.0])
    assert structure_of(path, P8).type_word == "ABA"
    assert [id(p) for p in walked] == [id(path)]
    walked.clear()
    cp = canonicalize(path, P8)
    assert len(cp.vertices) == len(path.vertices) + 2
    assert [id(p) for p in walked] == [id(path), id(cp)]
    # the shared pass still rejects an infeasible input
    bad = build_path([0.0, TH + 0.3, 0.0], [1.0, 1.0])
    for fn in (extract_arcs, structure_of, canonicalize):
        with pytest.raises(InfeasiblePathError):
            fn(bad, P8)


def test_canonicalize_preserves_type_and_feasibility_random():
    from ddgeo.structure import InternalInconsistencyError
    rng = np.random.default_rng(21)
    typed = 0
    for _ in range(40):
        p = random_feasible_path(P8, rng)
        cp = canonicalize(p, P8)
        assert validate(cp, P8) == []
        assert path_length(cp) == pytest.approx(path_length(p), rel=1e-12)
        try:
            word = type_string(p, P8)
        except InternalInconsistencyError:
            continue  # raw feasible paths may have bends between arcs
        typed += 1
        assert type_string(cp, P8) == word
    assert typed >= 10


def test_find_forbidden_examples():
    assert find_forbidden_subtype("ABA") is None
    assert find_forbidden_subtype("AABA") == ("AAB", 0)
    assert find_forbidden_subtype("AAAA") == ("AAAA", 0)
    assert find_forbidden_subtype("") is None
    assert find_forbidden_subtype("BAAB") == ("BAA", 0)


def test_true_types_vs_forbidden_exhaustive():
    # every word of length <= 6 is a true type iff it has no forbidden factor
    for k in range(1, 7):
        for letters in itertools.product("AB", repeat=k):
            word = "".join(letters)
            factor_free = find_forbidden_subtype(word) is None
            assert factor_free == is_true_type(word), word
    assert set(TRUE_TYPES) == {"B", "A", "AB", "BA", "AA", "ABA", "AAA"}
    assert set(FORBIDDEN_FACTORS) == {"BB", "BAB", "AAB", "BAA", "AAAA"}


def test_structure_invariants_random():
    from ddgeo.structure import InternalInconsistencyError
    rng = np.random.default_rng(22)
    done = 0
    attempts = 0
    while done < 50 and attempts < 400:
        attempts += 1
        p = random_feasible_path(P8, rng)
        try:
            st = structure_of(p, P8)
        except InternalInconsistencyError:
            continue  # raw feasible paths may bend between arcs
        done += 1
        assert len(st.type_word) == len(st.arcs) + len(st.bridges)
        total = path_length(p)
        # coverage: arcs and bridges cover the whole path
        spans = sorted([(a.start_s, a.end_s) for a in st.arcs]
                       + [(b.start_s, b.end_s) for b in st.bridges])
        cursor = 0.0
        for s0, s1 in spans:
            assert s0 <= cursor + 1e-8
            cursor = max(cursor, s1)
        assert cursor == pytest.approx(total, abs=1e-8)
        # bridges pairwise disjoint and disjoint from arcs
        for b in st.bridges:
            for a in st.arcs:
                assert b.end_s <= a.start_s + 1e-8 or b.start_s >= a.end_s - 1e-8
            for b2 in st.bridges:
                if b2 is not b:
                    assert b.end_s <= b2.start_s + 1e-8 or b.start_s >= b2.end_s - 1e-8
        # every theta-turn vertex lies in some arc
        from ddgeo.model import vertex_turns
        from ddgeo.geometry import dist
        turns = vertex_turns(p)
        s = 0.0
        for i, v in enumerate(p.vertices):
            if i > 0:
                s += dist(p.vertices[i - 1], v)
            if abs(turns[i]) >= TH - 1e-9:
                assert any(a.start_s - 1e-8 <= s <= a.end_s + 1e-8
                           for a in st.arcs), f"theta vertex {i} uncovered"


def test_arc_vertices_match_linear_scan():
    # each arc's first and last vertex are the first and last whose position
    # lies within tol_dedup of its span, on raw and canonical paths (whose
    # inserted vertices sit within rounding of the arc ends)
    rng = np.random.default_rng(24)
    tol = P8.tol_dedup
    seen = 0
    for _ in range(60):
        p = random_feasible_path(P8, rng)
        for path in (p, canonicalize(p, P8)):
            vs = list(itertools.accumulate(model.edge_lengths(path), initial=0.0))
            for a in extract_arcs(path, P8):
                inside = [i for i, s in enumerate(vs) if a.start_s - tol <= s <= a.end_s + tol]
                assert (a.first_vertex, a.last_vertex) == (inside[0], inside[-1])
                seen += 1
    assert seen >= 200


def _outcome(fn, *args):
    """repr of the result (with any vertex positions), or of the exception:
    repr keeps -0.0 apart from 0.0, and the message of an untypeable path."""
    try:
        got = fn(*args)
    except Exception as exc:  # noqa: BLE001 -- the exception is the outcome
        return repr(exc)
    return repr(got) + repr(getattr(got, "vertex_s", None))


def _reference_corpus():
    """(params, path): random feasible paths, theta-discretized Dubins
    curves, the paths ``shorten`` passes through from a fixed sample, and
    the canonical form of each."""
    from ddgeo.geometry import from_angle
    from ddgeo.rewrite import shorten
    from ddgeo.smooth import discretize, dubins_solve

    rng = np.random.default_rng(25)
    corpus = []
    for _ in range(240):
        params = Params.from_sides(int(rng.choice([6, 8, 12, 16])), 1.0)
        corpus.append((params, random_feasible_path(params, rng)))
    for n in (8, 16, 32):
        params = Params.from_sides(n, 2.0 * math.sin(math.pi / n))
        for _ in range(20):
            h_u, h_v, bearing = rng.uniform(0.0, 2.0 * math.pi, 3)
            d = rng.uniform(0.0, 10.0)
            U = Configuration((0.0, 0.0), from_angle(h_u))
            V = Configuration((d * math.cos(bearing), d * math.sin(bearing)), from_angle(h_v))
            gamma = dubins_solve(U, V)
            if gamma.length > params.theta:
                corpus.append((params, discretize(gamma, params.theta)))
    for params, path in corpus[:40] + corpus[240:250]:
        shorten(path, params, budget=300,
                observer=lambda _i, p, params=params: corpus.append((params, p)))
    return corpus + [(params, canonicalize(path, params)) for params, path in corpus]


def test_structure_matches_reference():
    # the one pass against the per-endpoint walks it replaced: every Arc
    # and Bridge field, the word, the positions, or the exception
    from ddgeo.structure import _Frame, _structure

    import structure_reference as ref

    words = set()
    raised = 0
    for params, path in _reference_corpus():
        lengths, turns, violations = model.measure(path, params)
        assert not violations
        want = _outcome(ref.structure, ref.Frame(path, params, lengths, turns))
        assert _outcome(_structure, _Frame(path, params, lengths, turns)) == want
        if want.startswith("PathStructure"):
            words.add(structure_of(path, params).type_word)
        else:
            assert want.startswith("InternalInconsistencyError('uncovered stretch")
            raised += 1
    # the corpus holds untypeable paths, every true type and many other words
    assert raised >= 300
    assert set(TRUE_TYPES) <= words and len(words) >= 100


def test_extract_bridges_matches_reference():
    import structure_reference as ref

    checked = 0
    for params, path in _reference_corpus()[::4]:
        arcs = extract_arcs(path, params)
        for p in (None, params):
            want = _outcome(ref.extract_bridges, path, arcs, p)
            assert _outcome(extract_bridges, path, arcs[::-1], p) == want
        checked += 1
    assert checked >= 100


def test_frame_classes_match_classify_edge():
    from ddgeo.geometry import DegenerateGeometryError
    from ddgeo.model import classify_edge
    from ddgeo.structure import _Frame, _measured

    rng = np.random.default_rng(26)
    for _ in range(40):
        path = canonicalize(random_feasible_path(P8, rng), P8)
        frame = _measured(path, P8)
        assert frame.classes == [classify_edge(ln, P8) for ln in frame.lengths]
        es = frame.eff_s
        assert frame.eff_class == [classify_edge(b - a, P8) for a, b in zip(es, es[1:])]
    # an edge classify_edge rejects fails the frame with its message
    path = build_path([0.0, 0.0, 0.0], [1.0, 1.0])
    turns = model.vertex_turns(path)
    for bad in (math.inf, math.nan):
        with pytest.raises(DegenerateGeometryError) as got:
            _Frame(path, P8, [1.0, bad], turns)
        with pytest.raises(DegenerateGeometryError) as want:
            classify_edge(bad, P8)
        assert str(got.value) == str(want.value)


def test_deterministic_extraction():
    from ddgeo.structure import InternalInconsistencyError
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = random_feasible_path(P8, rng)
        try:
            word = type_string(p, P8)
        except InternalInconsistencyError:
            continue
        assert type_string(p, P8) == word


def test_single_point_path_has_empty_type():
    u = Configuration((0.0, 0.0), (1.0, 0.0))
    path = DiscretePath(u, u, ((0.0, 0.0),))
    assert type_string(path, P8) == ""
