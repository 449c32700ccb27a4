"""Parsing, embedding, face tracing, validation, and serialization."""

from __future__ import annotations

import random
import time
from functools import cached_property
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from dtargets import cli
from dtargets.config import doors, is_prime
from dtargets.corpus import load_fixture
from dtargets.cuts import min_odd_cut
from dtargets.errors import (
    AsymmetricRotation,
    DTargetError,
    DuplicateNeighbour,
    EulerViolation,
    MissingMultiplicity,
    NegativeMultiplicity,
    ParseError,
)
from dtargets.planar import (
    DTarget,
    RotationGraph,
    automorphisms,
    connectivity_level,
    fact,
    norm_edge,
    parse_dtarget,
    region_pair,
    serialize_dtarget,
    validate,
)
from dtargets.switching import add_zero_edge, switch_path

import oracles
from conftest import FIXTURES
from gadgets import _bench_gen, relabelled

EXPECTED_FACE_PROFILE = {
    # name: (vertex count, edge count, sorted face lengths)
    "k4": (4, 6, [3, 3, 3, 3]),
    "prism": (6, 9, [3, 3, 4, 4, 4]),
    "cube": (8, 12, [4, 4, 4, 4, 4, 4]),
    "octahedron": (6, 12, [3, 3, 3, 3, 3, 3, 3, 3]),
    "pentagonal_prism": (10, 15, [4, 4, 4, 4, 4, 5, 5]),
}


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_shape(name):
    t = load_fixture(name)
    vertices, edges, face_lengths = EXPECTED_FACE_PROFILE[name]
    assert t.vertex_count == vertices
    assert len(t.graph.edges) == edges
    assert sorted(r.length for r in t.graph.faces) == face_lengths
    assert vertices - edges + len(t.graph.faces) == 2


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_validates(name):
    report = validate(load_fixture(name))
    assert report.degree_ok
    assert report.euler_ok
    assert report.connectivity_level == 3
    assert report.violations == ()


@pytest.mark.parametrize("name", FIXTURES)
def test_round_trip(name):
    t = load_fixture(name)
    again = parse_dtarget(serialize_dtarget(t))
    assert again.graph.rotations == t.graph.rotations
    assert again.mult_items == t.mult_items
    assert again.d == t.d


def test_face_traces_partition_darts(fixture_target):
    t = fixture_target
    darts = set()
    for r in t.graph.faces:
        for dart in r.directed:
            assert dart not in darts
            darts.add(dart)
    expected = {(u, v) for u, v in t.graph.edges} | {
        (v, u) for u, v in t.graph.edges
    }
    assert darts == expected


def test_region_pair(fixture_target):
    t = fixture_target
    for e in t.graph.edges:
        r1, r2 = region_pair(t, e)
        assert r1.id != r2.id
        assert e in r1.edge_set and e in r2.edge_set


def test_known_prism_faces():
    t = load_fixture("prism")
    face_vertex_sets = {frozenset(r.vertices) for r in t.graph.faces}
    assert frozenset({0, 1, 2}) in face_vertex_sets
    assert frozenset({3, 4, 5}) in face_vertex_sets
    assert frozenset({0, 1, 4, 3}) in face_vertex_sets
    assert frozenset({1, 2, 5, 4}) in face_vertex_sets
    assert frozenset({0, 2, 5, 3}) in face_vertex_sets
    assert [repr(r) for r in t.graph.faces] == [
        "Region(0: 0-1-2)", "Region(1: 0-2-5-3)", "Region(2: 0-3-4-1)",
        "Region(3: 1-4-5-2)", "Region(4: 3-5-4)",
    ]


def test_parse_rejects_asymmetric_rotation():
    text = (
        "dtarget d=8\n"
        "vertex 0: 1\n"
        "vertex 1: 0\n"
        "vertex 2: 0\n"  # 2 lists 0, but 0 does not list 2
        "mult 0 1 8\n"
        "mult 0 2 0\n"
    )
    with pytest.raises(AsymmetricRotation):
        parse_dtarget(text)


def test_parse_rejects_duplicate_neighbour():
    text = (
        "dtarget d=8\n"
        "vertex 0: 1 1\n"
        "vertex 1: 0 0\n"
        "mult 0 1 8\n"
    )
    with pytest.raises(DuplicateNeighbour):
        parse_dtarget(text)


def test_parse_rejects_missing_multiplicity():
    t = load_fixture("k4")
    text = serialize_dtarget(t)
    lines = [
        line for line in text.splitlines() if not line.startswith("mult 0 1")
    ]
    with pytest.raises(MissingMultiplicity):
        parse_dtarget("\n".join(lines))


def test_parse_rejects_negative_multiplicity():
    t = load_fixture("k4")
    text = serialize_dtarget(t).replace("mult 0 1 4", "mult 0 1 -1")
    with pytest.raises(NegativeMultiplicity):
        parse_dtarget(text)


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_dtarget("this is not a target\n")


def test_parse_drops_comments_at_the_end_of_any_line():
    # A '#' starts a comment wherever it stands, not only at a line's start.
    k4 = load_fixture("k4")
    lines = serialize_dtarget(k4).splitlines()
    commented = [f"{line}  # note {i}" for i, line in enumerate(lines)]
    assert commented[1].startswith("vertex") and commented[-1].startswith("mult")
    assert parse_dtarget("\n".join(commented)) == k4


def test_multiplicity_refusals_name_the_edge():
    prism = load_fixture("prism")
    text = serialize_dtarget(prism)
    mult = dict(prism.mult_items)
    refusals = [
        (lambda: parse_dtarget(text + "mult 5 1 0\n"), ParseError,
         "multiplicity given for non-edge (1, 5)"),
        (lambda: parse_dtarget(text.replace("mult 3 4 2\n", "").replace("mult 1 4 4\n", "")),
         MissingMultiplicity, "no multiplicity for edge (1, 4)"),
        (lambda: DTarget.of(prism.graph, prism.d, {**mult, (0, 2): -1}), NegativeMultiplicity,
         "edge (0, 2) has multiplicity -1"),
        (lambda: DTarget.of(prism.graph, 8, {**mult, (4, 1): 4}), ParseError,
         "multiplicity given twice for edge (1, 4)"),
    ]
    for build, error, message in refusals:
        with pytest.raises(error) as refused:
            build()
        assert str(refused.value) == message


_HEADER = "dtarget d=8\n"
_PAIR = _HEADER + "vertex 0: 1\nvertex 1: 0\n"
_PRISM = load_fixture("prism")

# Each input refusal: the input (a target text, or a call), its exact class
# and its exact message.
INPUT_REFUSALS = {
    "no vertices": (lambda: RotationGraph(()), ParseError, "graph has no vertices"),
    "unknown vertex": (_HEADER + "vertex 0: 5\n", ParseError, "vertex 0 lists unknown vertex 5"),
    "loop": (_HEADER + "vertex 0: 0\n", ParseError, "vertex 0 lists itself (loops not allowed)"),
    "target d = 0": (lambda: DTarget(_PRISM.graph, 0, _PRISM.mult_vector), ParseError,
                     "d must be positive, got 0"),
    "header d = 0": ("dtarget d=0\n", ParseError, "line 1: d must be positive"),
    "header d < 0": ("# d\ndtarget d=-8\n", ParseError, "line 2: d must be positive"),
    "malformed vertex": (_HEADER + "vertex a: 1\n", ParseError, "line 2: malformed vertex line"),
    "vertex twice": (_PAIR + "vertex 0: 1\n", ParseError, "line 4: vertex 0 declared twice"),
    "non-integer neighbour": (_HEADER + "vertex 0: 1 x\n", ParseError,
                              "line 2: non-integer neighbour id"),
    "mult field count": (_PAIR + "mult 0 1\n", ParseError, "line 4: expected 'mult <u> <v> <m>'"),
    "non-integer mult": (_PAIR + "mult 0 1 x\n", ParseError, "line 4: non-integer mult field"),
    "misspelled mult": (_PAIR + "multiplicity 0 1 8\n", ParseError,
                        "line 4: unrecognized directive 'multiplicity'"),
    "mult twice": (_PAIR + "mult 0 1 8\nmult 1 0 8\n", ParseError,
                   "line 5: multiplicity given twice for (0, 1)"),
    "unknown directive": (_HEADER + "edge 0 1\n", ParseError,
                          "line 2: unrecognized directive 'edge'"),
    "missing header": ("# no header\n\n", ParseError, "missing 'dtarget d=<int>' header"),
    "empty vertex set": (_HEADER + "# nothing\n", ParseError, "empty vertex set"),
    "ids not 0..n-1": (_HEADER + "vertex 1: 2\nvertex 2: 1\nmult 1 2 8\n", ParseError,
                       "vertex ids must be exactly 0..n-1"),
    "region pair of a non-edge": (lambda: region_pair(_PRISM, (4, 0)), DTargetError,
                                  "(0, 4) is not an edge of the graph"),
    "join a vertex to itself": (lambda: add_zero_edge(_PRISM, 1, 1), DTargetError,
                                "cannot join vertex 1 to itself"),
    "join out of range": (lambda: add_zero_edge(_PRISM, 0, 6), DTargetError,
                          "vertices (0, 6) out of range"),
    "path repeats a vertex": (lambda: switch_path(_PRISM, 0, 1, 1, 2), DTargetError,
                              "path vertices (0, 1, 1, 2) are not distinct"),
    "path off the edges": (lambda: switch_path(_PRISM, 4, 0, 1, 2), DTargetError,
                           "(0, 4) is not an edge"),
}


@pytest.mark.parametrize("case", sorted(INPUT_REFUSALS))
def test_each_input_refusal_has_its_class_and_message(case, tmp_path, capsys):
    # A text input is also refused by `dtargets check`: exit 2, the message
    # on stderr and nothing on stdout.
    source, error, message = INPUT_REFUSALS[case]
    with pytest.raises(DTargetError) as refused:
        source() if callable(source) else parse_dtarget(source)
    assert type(refused.value) is error and str(refused.value) == message
    if not callable(source):
        path = tmp_path / "case.dtarget"
        path.write_text(source)
        code = cli.main(["check", str(path)])
        out, err = capsys.readouterr()
        assert (code, out, err) == (cli.EXIT_INPUT, "", f"error: {message}\n")


def test_target_vector_must_match_the_edges():
    k4 = load_fixture("k4")
    with pytest.raises(ParseError, match="5 multiplicities given for 6 edges"):
        DTarget(k4.graph, 8, k4.mult_vector[:-1])
    rebuilt = DTarget.of(k4.graph, 8, {(v, u): m for (u, v), m in reversed(k4.mult_items)})
    assert rebuilt == k4 and hash(rebuilt) == hash(k4)
    (u, v), m = k4.mult_items[0]
    with pytest.raises(ParseError, match="given twice"):
        DTarget.of(k4.graph, 8, {**dict(k4.mult_items), (v, u): m})


def test_nonplanar_rotation_system_rejected():
    # K4 with vertex 0's rotation order flipped: the face trace no longer
    # closes into V - E + F = 2.
    t = load_fixture("k4")
    rots = list(t.graph.rotations)
    rots[0] = tuple(reversed(rots[0]))
    bad = DTarget.of(RotationGraph(tuple(rots)), 8, dict(t.mult_items))
    report = validate(bad)
    assert not report.euler_ok
    assert ("euler", None) in report.violations
    with pytest.raises(EulerViolation):
        _ = bad.graph.faces


def test_validate_flags_bad_degrees():
    t = load_fixture("k4")
    bad = DTarget.of(t.graph, t.d, {**dict(t.mult_items), (0, 1): 5})
    report = validate(bad)
    assert not report.degree_ok
    assert report.violations


def test_norm_edge():
    assert norm_edge(3, 1) == (1, 3)
    assert norm_edge(1, 3) == (1, 3)


@given(
    name=st.sampled_from(FIXTURES),
    data=st.data(),
)
def test_round_trip_any_multiplicities(name, data):
    base = load_fixture(name)
    mult = {
        e: data.draw(st.integers(min_value=0, max_value=8), label=str(e))
        for e in base.graph.edges
    }
    t = DTarget.of(base.graph, base.d, mult)
    again = parse_dtarget(serialize_dtarget(t))
    assert again.mult_items == t.mult_items
    assert again.graph.rotations == t.graph.rotations


DATA = Path(__file__).parent / "data"


def test_disconnected_graph_has_no_faces():
    # A planar K4 plus a toroidal K4: Euler summed over both components
    # still reads 2 + 0 = 2, so only the connectivity check rejects it.
    t = parse_dtarget((DATA / "two_k4.dtarget").read_text())
    with pytest.raises(EulerViolation):
        _ = t.graph.faces
    report = validate(t)
    assert not report.euler_ok
    assert report.connectivity_level == 0


@pytest.mark.parametrize("name", FIXTURES)
def test_connectivity_level_is_a_cached_graph_fact(name):
    graph = load_fixture(name).graph
    assert "connectivity" not in vars(graph)
    level = connectivity_level(graph)
    assert vars(graph)["connectivity"] == level == graph.connectivity
    assert validate(load_fixture(name)).connectivity_level == level


def _graph(n, edges):
    """The graph on 0..n-1 with the given edges; connectivity ignores the
    order of the rotations, so they need not come from a planar drawing."""
    rotations = [[] for _ in range(n)]
    for u, v in edges:
        rotations[u].append(v)
        rotations[v].append(u)
    return RotationGraph(tuple(map(tuple, rotations)))


def _cycle_edges(vertices):
    return [(a, b) for a, b in zip(vertices, vertices[1:] + vertices[:1])]


def _wheel_edges(hub, rim):
    return _cycle_edges(rim) + [(hub, r) for r in rim]


def _two_wheels_glued():
    # Two 5-wheels sharing the rim vertices 0 and 2, which are not adjacent
    # on either rim: {0, 2} is a 2-cut.
    return _graph(11, _wheel_edges(5, [0, 1, 2, 3, 4]) + _wheel_edges(10, [0, 6, 2, 7, 8, 9]))


def _connectivity_cases():
    gen = _bench_gen()
    cases = {name: load_fixture(name).graph for name in FIXTURES}
    for path in sorted(DATA.glob("*.dtarget")):
        cases[path.stem] = parse_dtarget(path.read_text()).graph
    for k in range(3, 21):
        cases[f"prism{k}"] = RotationGraph(tuple(map(tuple, gen.prism(k)[0])))
        cases[f"antiprism{k}"] = RotationGraph(tuple(map(tuple, gen.antiprism(k)[0])))
    for n in range(3, 12):
        cases[f"C{n}"] = _graph(n, _cycle_edges(list(range(n))))
    cases["K1"] = RotationGraph(((),))
    cases["K2"] = _graph(2, [(0, 1)])
    cases["P3"] = _graph(3, [(0, 1), (1, 2)])
    two_k4 = parse_dtarget((DATA / "two_k4.dtarget").read_text()).graph
    cases["toroidal_k4"] = RotationGraph(
        tuple(tuple(u - 4 for u in rot) for rot in two_k4.rotations[4:])
    )
    cases["two_wheels_glued"] = _two_wheels_glued()
    cases["C8_with_chord"] = _graph(8, _cycle_edges(list(range(8))) + [(1, 5)])
    cases["K4_minus_edge"] = _graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    cases["K2_3"] = _graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    # Random edge deletions from the 7-antiprism: every level turns up.
    rng = random.Random(5)
    edges = RotationGraph(tuple(map(tuple, gen.antiprism(7)[0]))).edges
    for i in range(40):
        cases[f"antiprism7_minus_{i}"] = _graph(14, rng.sample(edges, rng.randint(12, 27)))
    return cases


CONNECTIVITY_CASES = _connectivity_cases()


@pytest.mark.parametrize("name", sorted(CONNECTIVITY_CASES))
def test_connectivity_level_matches_the_pair_removal_oracle(name):
    graph = CONNECTIVITY_CASES[name]
    assert connectivity_level(graph) == oracles.connectivity_level(graph)


def test_connectivity_cases_cover_every_level():
    levels = {name: oracles.connectivity_level(g) for name, g in CONNECTIVITY_CASES.items()}
    assert {levels[k] for k in ("K1", "K2", "C3")} == {3}
    assert levels["P3"] == 1 and levels["toroidal_k4"] == 3 and levels["two_k4"] == 0
    assert {levels[k] for k in ("two_wheels_glued", "C8_with_chord", "K2_3")} == {2}
    random_levels = {v for k, v in levels.items() if k.startswith("antiprism7_minus")}
    assert random_levels == {0, 1, 2, 3}


def test_connectivity_level_at_160_vertices():
    # The pair removal took about 1 s per graph at this size.
    gen = _bench_gen()
    prism160 = RotationGraph(tuple(map(tuple, gen.prism(80)[0])))
    # Two 80-vertex prisms joined by the edges 39-120 and 79-80: {39, 79}
    # is a 2-cut and no single vertex is a cut vertex.
    half = [(u, v) for u, rot in enumerate(gen.prism(40)[0]) for v in rot if u < v]
    joined = _graph(160, half + [(u + 80, v + 80) for u, v in half] + [(39, 120), (79, 80)])
    start = time.perf_counter()
    assert connectivity_level(prism160) == 3
    assert connectivity_level(joined) == 2
    assert time.perf_counter() - start < 1.0


def test_facts_take_no_part_in_equality():
    filled, fresh = load_fixture("prism"), load_fixture("prism")
    min_odd_cut(filled)
    doors(filled, filled.graph.faces[0])
    assert filled.facts and not fresh.facts
    assert filled == fresh
    assert hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh)


def test_degree_sums_are_computed_once_per_target(monkeypatch):
    # validate and is_prime (through require_target) both check the degree
    # sums; one pass over the multiplicities serves both.
    computed = []
    sums = DTarget.degree_sums.func

    def counted(t):
        computed.append(t)
        return sums(t)

    prop = cached_property(counted)
    prop.__set_name__(DTarget, "degree_sums")
    monkeypatch.setattr(DTarget, "degree_sums", prop)
    t = load_fixture("octahedron")
    assert validate(t).degree_ok
    assert is_prime(t).witness is not None
    assert t.degree_sums == (8,) * t.vertex_count
    assert len(computed) == 1 and computed[0] is t


def test_a_fact_is_computed_once_per_owner_and_key():
    runs = []

    def compute(owner, *args):
        runs.append((owner, args))
        return len(runs)

    first, second = load_fixture("prism"), load_fixture("prism")
    assert fact(first, "count", compute, 1) == fact(first, "count", compute, 2) == 1
    assert fact(first, ("count", 2), compute, 2) == 2
    # An equal owner built afresh keeps its own facts.
    assert second == first and fact(second, "count", compute) == 3
    assert runs == [(first, (1,)), (first, (2,)), (second, ())]
    assert first.graph.facts == {} and second.facts == {"count": 3}


def test_a_fact_whose_compute_raises_is_not_stored():
    graph = load_fixture("cube").graph
    calls = []

    def compute(owner):
        calls.append(owner)
        if len(calls) == 1:
            raise ValueError("first call fails")
        return "done"

    with pytest.raises(ValueError):
        fact(graph, "flaky", compute)
    assert "flaky" not in graph.facts
    assert fact(graph, "flaky", compute) == "done" == graph.facts["flaky"]
    assert len(calls) == 2


GROUP_ORDERS = {"k4": 24, "prism": 12, "cube": 48, "octahedron": 48, "pentagonal_prism": 20}


@pytest.mark.parametrize("name", FIXTURES)
def test_automorphisms_form_a_group_of_the_known_order(name):
    # Each map re-checks against the rotations directly; the list starts
    # with the identity, holds no map twice, and is closed under composition.
    graph = load_fixture(name).graph
    maps = automorphisms(graph)
    assert graph.facts["automorphisms"] is maps
    assert len(maps) == len(set(maps)) == GROUP_ORDERS[name]
    assert maps[0] == tuple(range(graph.vertex_count))
    assert all(oracles.rotation_automorphism(graph.rotations, phi) for phi in maps)
    assert {tuple(a[i] for i in b) for a in maps for b in maps} == set(maps)


@pytest.mark.parametrize("name", ["k4", "prism", "octahedron", "cube"])
def test_automorphisms_are_every_map_the_brute_force_finds(name):
    graph = load_fixture(name).graph
    brute = [
        phi
        for phi in permutations(range(graph.vertex_count))
        if oracles.rotation_automorphism(graph.rotations, phi)
    ]
    assert sorted(automorphisms(graph)) == brute


@pytest.mark.parametrize("name", FIXTURES)
def test_relabelled_and_mirrored_copies_have_groups_of_the_same_order(name):
    graph = load_fixture(name).graph
    rng = random.Random(name)
    for mirror in (False, True):
        copy = relabelled(graph, rng, mirror)(load_fixture(name)).graph
        maps = automorphisms(copy)
        assert len(maps) == GROUP_ORDERS[name]
        assert all(oracles.rotation_automorphism(copy.rotations, phi) for phi in maps)


def test_automorphisms_refuse_a_disconnected_graph_and_fix_a_lone_vertex():
    graph = parse_dtarget((DATA / "two_k4.dtarget").read_text()).graph
    with pytest.raises(EulerViolation):
        automorphisms(graph)
    assert "automorphisms" not in graph.facts
    assert automorphisms(RotationGraph(((),))) == ((0,),)


def test_a_cycle_lists_each_of_its_symmetries_once():
    # Every degree is 2, so each plain map is a mirror map too.
    n = 5
    graph = RotationGraph(tuple(((v - 1) % n, (v + 1) % n) for v in range(n)))
    maps = automorphisms(graph)
    assert len(maps) == len(set(maps)) == 2 * n
    assert sorted(maps) == [
        phi for phi in permutations(range(n)) if oracles.rotation_automorphism(graph.rotations, phi)
    ]
