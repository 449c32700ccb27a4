"""Score sequences, the descent order, and the two switching moves."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dtargets.config import detect, detect_all, doors, is_big, is_tough, recheck
from dtargets.corpus import load_fixture
from dtargets.discharge import charge_report
from dtargets.errors import (
    DTargetError,
    MismatchedD,
    NoCommonRegion,
    NotAFourCycle,
    WouldGoNegative,
)
from dtargets.planar import DTarget, parse_dtarget, serialize_dtarget, validate
from dtargets.switching import (
    add_zero_edge,
    is_smaller,
    score_sequence,
    score_smaller,
    switch_path,
    switch_square,
)

from gadgets import prism, walk_targets


def test_score_sequences_frozen():
    assert score_sequence(load_fixture("k4")) == (0, 0, 4, 0, 2, 0, 0, 0, 0)
    assert score_sequence(prism(2, 4)) == (0, 0, 6, 0, 3, 0, 0, 0, 0)
    assert score_sequence(load_fixture("octahedron")) == (
        0, 0, 12, 0, 0, 0, 0, 0, 0,
    )


def test_score_sequence_refuses_an_edge_above_d():
    # Dropping the edge would give both non-targets the sequence of the
    # other five edges, and neither would precede the other.
    k4 = load_fixture("k4")
    nine, twelve = (
        DTarget.of(k4.graph, k4.d, {**dict(k4.mult_items), (0, 1): m}) for m in (9, 12)
    )
    for t in (nine, twelve):
        with pytest.raises(DTargetError, match=r"edge \(0, 1\) has multiplicity"):
            score_sequence(t)
    with pytest.raises(DTargetError):
        is_smaller(nine, twelve)
    with pytest.raises(DTargetError):
        is_smaller(twelve, nine)
    assert score_sequence(DTarget.of(k4.graph, k4.d, {**dict(k4.mult_items), (0, 1): 8}))[8] == 1


def test_switch_square_octahedron_equator():
    t = load_fixture("octahedron")
    out = switch_square(t, 0, 1, 4, 5)
    assert out.m(0, 1) == 1
    assert out.m(1, 4) == 3
    assert out.m(4, 5) == 1
    assert out.m(0, 5) == 3
    assert out.degree_sums == (8,) * 6
    assert score_sequence(out) == (0, 2, 8, 2, 0, 0, 0, 0, 0)
    assert is_smaller(out, t)


def test_switch_square_k4_cycle_not_smaller():
    t = load_fixture("k4")
    out = switch_square(t, 0, 1, 2, 3)
    assert (out.m(0, 1), out.m(1, 2), out.m(2, 3), out.m(0, 3)) == (3, 3, 3, 3)
    assert out.m(0, 2) == 2 and out.m(1, 3) == 2
    assert not is_smaller(out, t)


def test_switch_square_would_go_negative():
    t = DTarget.of(
        load_fixture("k4").graph,
        8,
        {(0, 1): 0, (2, 3): 0, (0, 2): 4, (0, 3): 4, (1, 2): 4, (1, 3): 4},
    )
    with pytest.raises(WouldGoNegative):
        switch_square(t, 0, 1, 2, 3)


def test_switch_square_requires_four_cycle():
    t = prism(2, 4)
    with pytest.raises(NotAFourCycle):
        switch_square(t, 0, 1, 2, 4)
    with pytest.raises(NotAFourCycle):
        switch_square(t, 0, 1, 1, 4)


def test_switch_square_inverse_is_bit_exact():
    t = prism(2, 4)
    forward = switch_square(t, 0, 1, 4, 3)
    back = switch_square(forward, 0, 3, 4, 1)
    assert back == t
    assert serialize_dtarget(back) == serialize_dtarget(t)


def test_add_zero_edge_identity_when_adjacent():
    t = prism(2, 4)
    assert add_zero_edge(t, 0, 1) == t


def test_add_zero_edge_splits_square():
    t = prism(2, 4)
    out = add_zero_edge(t, 0, 4)
    assert len(out.graph.edges) == 10
    assert out.m(0, 4) == 0
    assert validate(out).euler_ok
    lengths = sorted(r.length for r in out.graph.faces)
    assert lengths == [3, 3, 3, 3, 4, 4]


def test_add_zero_edge_no_common_region():
    t = load_fixture("octahedron")
    with pytest.raises(NoCommonRegion):
        add_zero_edge(t, 0, 4)


def test_add_zero_edge_joins_first_corners_of_repeated_boundary_vertex():
    # The tree's one region passes vertices 0 and 1 more than once; the new
    # edge 1-3 joins the first corner of each end and splits that region.
    t = parse_dtarget((Path(__file__).parent / "data" / "tree.dtarget").read_text())
    out = add_zero_edge(t, 1, 3)
    assert out.m(1, 3) == 0
    assert len(out.graph.edges) == len(t.graph.edges) + 1
    assert len(out.graph.faces) == len(t.graph.faces) + 1
    assert out.vertex_count - len(out.graph.edges) + len(out.graph.faces) == 2
    assert out.degree_sums == t.degree_sums
    # Vertex 1's first corner in trace order lies between 5 and 0.
    assert out.graph.rotations[1] == (0, 5, 3)


def test_switch_path_on_prism_verticals():
    t = prism(2, 4)
    out = switch_path(t, 3, 0, 1, 4)
    assert out.m(0, 3) == 3
    assert out.m(0, 1) == 3
    assert out.m(1, 4) == 3
    assert out.m(3, 4) == 3
    assert out.degree_sums == (8,) * 6


def test_switch_path_creates_the_closing_edge():
    t = load_fixture("pentagonal_prism")
    out = switch_path(t, 0, 1, 2, 3)
    assert out.m(0, 3) == 1
    assert len(out.graph.edges) == 16
    assert out.m(0, 1) == 1
    assert out.m(1, 2) == 3
    assert out.m(2, 3) == 1
    assert out.degree_sums == (8,) * 10


def test_switch_path_would_go_negative():
    t = DTarget.of(
        prism(2, 4).graph,
        8,
        {
            (0, 1): 2, (0, 2): 2, (1, 2): 2,
            (3, 4): 2, (3, 5): 2, (4, 5): 2,
            (0, 3): 0, (1, 4): 4, (2, 5): 4,
        },
    )
    with pytest.raises(WouldGoNegative):
        switch_path(t, 3, 0, 1, 4)


def test_is_smaller_prefers_fewer_vertices():
    assert is_smaller(load_fixture("k4"), load_fixture("octahedron"))
    assert not is_smaller(load_fixture("octahedron"), load_fixture("k4"))


def test_is_smaller_irreflexive():
    t = load_fixture("prism")
    assert not is_smaller(t, t)


def test_is_smaller_requires_same_d():
    t = load_fixture("k4")
    six = DTarget.of(t.graph, 6, {e: 2 for e, _ in t.mult_items})
    with pytest.raises(MismatchedD):
        is_smaller(six, t)


def test_score_smaller_clause_precedence():
    # Clause 1: vertex count dominates everything.
    assert score_smaller(4, (9, 0, 0, 0, 0, 0, 0, 0, 0), 6, (0, 0, 12, 0, 0, 0, 0, 0, 0))
    # Clause 2 at i = 4: more multiplicity-4 edges, equal above.
    a = (0, 0, 0, 0, 3, 1, 1, 1, 1)
    b = (5, 5, 5, 5, 2, 1, 1, 1, 1)
    assert score_smaller(6, a, 6, b)
    assert not score_smaller(6, b, 6, a)
    # Clause 3: everything above multiplicity zero equal, fewer zeros win.
    c = (2, 1, 1, 1, 1, 1, 1, 1, 1)
    d = (3, 1, 1, 1, 1, 1, 1, 1, 1)
    assert score_smaller(6, c, 6, d)
    assert not score_smaller(6, d, 6, c)


def test_score_smaller_length_mismatch():
    with pytest.raises(MismatchedD):
        score_smaller(4, (0, 0, 0), 4, (0, 0, 0, 0))


SEQS = st.tuples(*[st.integers(min_value=0, max_value=6)] * 9)


@settings(max_examples=300, deadline=None)
@given(na=st.integers(4, 12), sa=SEQS, nb=st.integers(4, 12), sb=SEQS)
def test_score_smaller_matches_oracle(na, sa, nb, sb):
    assert score_smaller(na, sa, nb, sb) == oracles.smaller(na, sa, nb, sb)
    # Asymmetry: both directions never hold at once.
    assert not (
        score_smaller(na, sa, nb, sb) and score_smaller(nb, sb, na, sa)
    )


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
)
def test_random_square_switches_preserve_degrees_and_invert(data):
    t = prism(2, 4)
    cycles = [
        (0, 1, 4, 3),
        (1, 2, 5, 4),
        (0, 2, 5, 3),
    ]
    u, v, w, x = data.draw(st.sampled_from(cycles))
    if t.m(u, v) < 1 or t.m(w, x) < 1:
        return
    out = switch_square(t, u, v, w, x)
    assert out.degree_sums == t.degree_sums
    assert switch_square(out, u, x, w, v) == t


def test_walked_targets_agree_with_the_oracles():
    # The benchmark's mutation path: 300 targets, each a square switch of the
    # last, on three graphs whose pattern placements stay cached throughout.
    walked = walk_targets()
    assert len(walked) == 300
    for t in walked:
        report = charge_report(t)
        assert (report.alpha_total, report.beta_total, report.gamma_total) == (16, 0, 0)
        by_index = {k: detect(t, k) for k in range(1, 20)}
        for k, matches in by_index.items():
            assert bool(matches) == oracles.conf_matches(t, k), (serialize_dtarget(t), k)
        matches = detect_all(t)
        assert matches == [m for k in by_index for m in by_index[k]]
        assert all(recheck(t, m) for m in matches)
        for r in t.graph.faces:
            assert sorted(doors(t, r)) == oracles.doors(t, r)
            assert is_big(t, r) == oracles.big(t, r)
            assert is_tough(t, r) == oracles.tough(t, r)
