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


def test_vertices_in_matches_linear_scan():
    # the bisection finds the same first and last vertex as a scan of the
    # positions, and raises when the span holds none
    from ddgeo.structure import InternalInconsistencyError, _measured

    def scan(vertex_s, s0, s1, tol):
        inside = [i for i, s in enumerate(vertex_s) if s0 - tol <= s <= s1 + tol]
        return (inside[0], inside[-1]) if inside else None

    rng = np.random.default_rng(24)
    tol = P8.tol_dedup
    for _ in range(30):
        frame = _measured(random_feasible_path(P8, rng), P8)
        vs = frame.vertex_s
        ends = [v + e for v in vs for e in (-2.0 * tol, -tol, 0.0, tol, 2.0 * tol)]
        ends += list(rng.uniform(-0.5, vs[-1] + 0.5, 20))
        for s0, s1 in itertools.product(ends, repeat=2):
            want = scan(vs, s0, s1, tol)
            if want is None:
                with pytest.raises(InternalInconsistencyError):
                    frame.vertices_in(s0, s1, tol)
            else:
                assert frame.vertices_in(s0, s1, tol) == want


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
