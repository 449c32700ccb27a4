"""Perfect matching enumeration and exact multiset edge-colouring."""

from __future__ import annotations

import json
import time
from collections import Counter
from hashlib import sha256
from pathlib import Path

import pytest

import oracles
from dtargets import coloring
from dtargets.coloring import (
    EdgeColouring,
    edge_colour,
    perfect_matchings,
    verify_colouring,
)
from dtargets.corpus import build_corpus, enumerate_multiplicities, load_fixture
from dtargets.cuts import is_oddly_connected
from dtargets.errors import DTargetError, OddVertexCount, TooLarge
from dtargets.planar import DTarget, RotationGraph, parse_dtarget

from conftest import FIXTURES
from gadgets import (
    OCTA_GAMMA1_MULT,
    OCTA_GAMMA2_MULT,
    OCTA_GAMMA6_MULT,
    _bench_gen,
    antiprism,
    octa,
    prism,
    walk_targets,
    zero_mult_targets,
)

DATA = Path(__file__).resolve().parent / "data"
PANEL = Path(__file__).resolve().parents[1] / "bench" / "panel.json"

EXPECTED_MATCHING_COUNTS = {
    "k4": 3,
    "prism": 4,
    "cube": 9,
    "octahedron": 8,
    "pentagonal_prism": 11,
}


@pytest.mark.parametrize("name", FIXTURES)
def test_perfect_matchings_match_oracle(name):
    # In order: the search takes the matchings in the table's order.
    t = load_fixture(name)
    ours = perfect_matchings(t)
    theirs = oracles.perfect_matchings(t)
    assert ours == theirs
    assert len(ours) == EXPECTED_MATCHING_COUNTS[name]


def _components(n: int, support) -> list[set]:
    parts = [{v} for v in range(n)]
    for u, v in support:
        a, b = (next(p for p in parts if x in p) for x in (u, v))
        if a is not b:
            a |= b
            parts.remove(b)
    return parts


def test_support_tables_are_in_lexicographic_order():
    # Every distinct support of the fixtures' min_mult=0 targets (665), and
    # each fixture with one vertex cut off, whose table is empty.  Each
    # table lists its matchings in lexicographic order, and each triangle
    # pack holds a 2 per triangle the matching uses no edge of.
    cases = {}
    for name in FIXTURES:
        graph = load_fixture(name).graph
        for t in enumerate_multiplicities(graph, 8, min_mult=0):
            cases[(name, frozenset(e for e, m in t.mult_items if m))] = graph
    assert len(cases) == 665
    for name in FIXTURES:
        graph = load_fixture(name).graph
        for v in range(graph.vertex_count):
            cases[(name, frozenset(e for e in graph.edges if v not in e))] = graph
    shapes = Counter()
    for (name, support), graph in cases.items():
        n, edges = graph.vertex_count, graph.edges
        zero = sum(1 << 8 * i for i, e in enumerate(edges) if e not in support)
        packs, tpacks, *_ = coloring._build_tables(graph, 8, zero)
        expected = oracles.support_matchings(n, support)
        assert [coloring._edges_of(pack, 8, edges) for pack in packs] == expected
        triangles = coloring._triangles(graph)
        assert tpacks == [
            sum(2 << 8 * c for c, (inside, _) in enumerate(triangles)
                if not any(pack >> 8 * i & 1 for i in inside))
            for pack in packs
        ]
        parts = _components(n, support)
        shapes[min(map(len, parts)) == 1, len(parts) > 1, bool(expected)] += 1
    assert shapes[True, True, False] == 34  # one per fixture vertex, cut off
    assert shapes[False, True, True] > 0  # disconnected, with matchings
    assert shapes[False, True, False] > 0  # disconnected, with odd parts


def test_matchings_require_even_vertex_count():
    # A 4-wheel: hub 4 with spokes of multiplicity 2, rim of 3s.
    rots = ((1, 4, 3), (2, 4, 0), (3, 4, 1), (0, 4, 2), (0, 1, 2, 3))
    mult = {
        (0, 1): 3, (1, 2): 3, (2, 3): 3, (0, 3): 3,
        (0, 4): 2, (1, 4): 2, (2, 4): 2, (3, 4): 2,
    }
    t = DTarget.of(RotationGraph(rots), 8, mult)
    with pytest.raises(OddVertexCount):
        perfect_matchings(t)


def test_colour_tables_refuse_past_the_matching_limit(monkeypatch):
    # The cube has 9 perfect matchings; a refused table is not stored.
    monkeypatch.setattr(coloring, "MATCHING_LIMIT", 8)
    t = load_fixture("cube")
    with pytest.raises(TooLarge, match="more than 8 perfect matchings"):
        perfect_matchings(t)
    with pytest.raises(TooLarge, match="more than 8 perfect matchings"):
        edge_colour(t)
    assert [k for k in t.graph.facts if isinstance(k, tuple) and k[0] == "matchings"] == []


def _breadth_first(n: int, support) -> list[int]:
    adjacent = [sorted({u for e in support if v in e for u in e} - {v}) for v in range(n)]
    order: list[int] = []
    for root in range(n):
        if root not in order:
            order.append(root)
            k = len(order) - 1
            while k < len(order):
                order += [u for u in adjacent[order[k]] if u not in order]
                k += 1
    return order


def _matching_tables(graph: RotationGraph) -> list:
    return [v for k, v in graph.facts.items() if isinstance(k, tuple) and k[0] == "matchings"]


def test_the_matching_limit_refuses_whatever_the_walk_order(monkeypatch):
    # A panel support whose breadth-first order is not 0..n-1: the limit
    # refuses exactly when the count passes it, and stores nothing.
    t = parse_dtarget(_bench_gen().antiprism_case(12, 0))
    n, support = t.vertex_count, [e for e, m in t.mult_items if m]
    assert _breadth_first(n, support) != list(range(n))
    count = len(oracles.support_matchings(n, support))
    monkeypatch.setattr(coloring, "MATCHING_LIMIT", count - 1)
    message = rf"^the support has more than {count - 1} perfect matchings$"
    with pytest.raises(TooLarge, match=message):
        edge_colour(t)
    assert _matching_tables(t.graph) == []
    monkeypatch.setattr(coloring, "MATCHING_LIMIT", count)
    colouring = edge_colour(t)
    assert colouring is not None and verify_colouring(t, colouring)
    [(packs, *_)] = _matching_tables(t.graph)
    assert len(packs) == count


def test_off_degree_targets_are_answered_at_the_root(monkeypatch):
    # d perfect matchings cover every vertex d times, so a degree sum other
    # than d answers None before the support's matchings are listed; the
    # odd-|V| and cap refusals still come first.
    assert edge_colour(parse_dtarget((DATA / "tree.dtarget").read_text())) is None
    bowtie = parse_dtarget((DATA / "bowtie.dtarget").read_text())
    with pytest.raises(OddVertexCount):
        edge_colour(DTarget.of(bowtie.graph, bowtie.d, {**dict(bowtie.mult_items), (1, 2): 5}))
    cube = load_fixture("cube")
    off_cube = DTarget.of(cube.graph, cube.d, {**dict(cube.mult_items), (0, 1): 3})
    with pytest.raises(TooLarge, match="exceeds the matching enumeration cap 6"):
        edge_colour(off_cube, cap=6)
    monkeypatch.setattr(coloring, "MATCHING_LIMIT", 8)
    assert edge_colour(off_cube) is None  # its support's 9 matchings are never listed
    assert _matching_tables(off_cube.graph) == []

    class Unread:  # the search's first read of the matchings is len(packs)
        def __len__(self):
            raise AssertionError("the search started")

        __getitem__ = __len__

    support_tables = coloring._support_tables

    def unread_packs(*args):
        packs, *rest = support_tables(*args)
        return (Unread(), *rest)

    monkeypatch.setattr(coloring, "_support_tables", unread_packs)
    k4 = load_fixture("k4")
    assert edge_colour(DTarget.of(k4.graph, k4.d, {**dict(k4.mult_items), (0, 1): 7})) is None
    with pytest.raises(AssertionError, match="the search started"):
        edge_colour(k4)


# sha256 of repr(edge_colour(t, cap=64).matchings) on the ladder prisms
# (rings 2, verticals 4), taken while a 20-vertex default cap refused them.
LADDER_DIGESTS = {
    22: "2c6c5fca6d880124cf43d85f4a7e869e95b559dbbade81956485de1cfbe44ade",
    24: "c3e6c57183b9ff01c691bbd554f27ca11c6ce5529f2513928937c1782fc696e6",
    26: "f7da1aba99324426530b97f881687c65e405c0713057fced5ac9136f8877bd66",
    28: "935c5785b9e7544d0c8b709a51173870a17082341ee169e5850b1aeb7203f9d4",
}


@pytest.mark.parametrize("n", sorted(LADDER_DIGESTS))
def test_ladder_prisms_colour_at_the_default(n):
    t = parse_dtarget(_bench_gen().prism_text(n))
    colouring = edge_colour(t)
    assert colouring is not None and verify_colouring(t, colouring)
    assert sha256(repr(colouring.matchings).encode()).hexdigest() == LADDER_DIGESTS[n]


# sha256 over the 40 cases of the benchmark's antiprism_colour panel, in
# panel order, of repr(edge_colour(t).matchings), one line each.
PANEL_DIGEST = "f2db8f2d56f0a65fc01ee711f9e498e11761e9e1fc02d60525d2d608f82dbdb1"


def test_panel_colourings_keep_their_digest():
    gen = _bench_gen()
    panel = json.loads(PANEL.read_text())
    cases = [(int(n), seed) for n, seeds in panel["cases"].items() for seed in seeds]
    assert len(cases) == 40
    digest = sha256()
    for n, seed in cases:
        t = parse_dtarget(gen.antiprism_case(n, seed))
        digest.update(repr(edge_colour(t).matchings).encode() + b"\n")
    assert digest.hexdigest() == PANEL_DIGEST


def test_the_matching_limit_holds_the_40_vertex_prism():
    t = parse_dtarget(_bench_gen().prism_text(40))
    assert len(perfect_matchings(t)) == 15129 <= coloring.MATCHING_LIMIT
    colouring = edge_colour(t)
    assert colouring is not None and verify_colouring(t, colouring)


def test_k4_colouring_uses_4_2_2():
    t = load_fixture("k4")
    colouring = edge_colour(t)
    assert colouring is not None
    assert verify_colouring(t, colouring)
    assert len(colouring.matchings) == 8
    counts = sorted(Counter(colouring.matchings).values(), reverse=True)
    assert counts == [4, 2, 2]


def test_prism_colouring_uses_2_2_2_2():
    t = prism(2, 4)
    colouring = edge_colour(t)
    assert colouring is not None
    assert verify_colouring(t, colouring)
    counts = sorted(Counter(colouring.matchings).values(), reverse=True)
    assert counts == [2, 2, 2, 2]


def test_octahedron_colouring_exists():
    t = load_fixture("octahedron")
    colouring = edge_colour(t)
    assert colouring is not None
    assert verify_colouring(t, colouring)


def test_uncolourable_prism_returns_none():
    assert edge_colour(prism(3, 2)) is None


@pytest.mark.parametrize("a", [0, 1, 2, 3, 4])
def test_prism_family_against_oracle(a):
    t = prism(a, 8 - 2 * a)
    ours = edge_colour(t)
    assert (ours is not None) == oracles.colouring_exists(t)
    if ours is not None:
        assert verify_colouring(t, ours)


@pytest.mark.parametrize(
    "mult", [OCTA_GAMMA1_MULT, OCTA_GAMMA2_MULT, OCTA_GAMMA6_MULT]
)
def test_octahedron_variants_against_oracle(mult):
    t = octa(mult)
    ours = edge_colour(t)
    assert (ours is not None) == oracles.colouring_exists(t)
    if ours is not None:
        assert verify_colouring(t, ours)


def test_verify_rejects_wrong_length():
    t = load_fixture("k4")
    colouring = edge_colour(t)
    short = EdgeColouring(matchings=colouring.matchings[:7])
    assert not verify_colouring(t, short)


def test_verify_rejects_non_matching():
    t = load_fixture("k4")
    colouring = edge_colour(t)
    broken = EdgeColouring(
        matchings=colouring.matchings[:7] + ((((0, 1), (1, 2))),)
    )
    assert not verify_colouring(t, broken)


def test_verify_rejects_partial_cover():
    t = load_fixture("k4")
    colouring = edge_colour(t)
    # Repeat one matching in place of another: coverage drifts off m.
    skewed = EdgeColouring(
        matchings=(colouring.matchings[0],) * 8
    )
    assert not verify_colouring(t, skewed)


def test_verify_accepts_reversed_edges():
    t = load_fixture("k4")
    colouring = edge_colour(t)
    flipped = tuple(tuple((v, u) for u, v in M) for M in colouring.matchings)
    assert verify_colouring(t, EdgeColouring(matchings=flipped))


def test_verify_rejects_a_vertex_covered_twice():
    # Two edges, n/2 of them, that share vertex 1 and miss vertex 3.
    t = load_fixture("k4")
    colouring = edge_colour(t)
    twice = EdgeColouring(matchings=(((0, 1), (1, 2)),) + colouring.matchings[1:])
    assert not verify_colouring(t, twice)


def test_verify_rejects_a_self_pair():
    t = load_fixture("k4")
    colouring = edge_colour(t)
    looped = EdgeColouring(matchings=(((0, 0), (2, 3)),) + colouring.matchings[1:])
    assert not verify_colouring(t, looped)


def test_verify_rejects_any_colouring_on_an_odd_vertex_count():
    # The bowtie has 5 vertices, so no list of edges is a perfect matching.
    t = parse_dtarget((DATA / "bowtie.dtarget").read_text())
    for M in (((0, 1), (2, 3)), ((0, 1), (1, 2), (3, 4))):
        assert not verify_colouring(t, EdgeColouring(matchings=(M,) * t.d))


def test_verify_rejects_foreign_edges():
    t = load_fixture("k4")
    foreign = EdgeColouring(matchings=(((0, 9), (1, 2)),) * 8)
    assert not verify_colouring(t, foreign)


def test_colouring_success_implies_oddly_connected_on_prisms():
    for a in range(0, 5):
        t = prism(a, 8 - 2 * a)
        if edge_colour(t) is not None:
            assert is_oddly_connected(t)


def test_colourings_equal_the_earlier_solver_on_the_exhaustive_corpus():
    # The search returns the lexicographically first colouring, exactly the
    # one the earlier matching-multiplicity search returned, or None with it.
    items = build_corpus(limit_per_base=1000000, require_oddly_connected=False)
    targets = [item.target for item in items] + [
        parse_dtarget((DATA / f"{name}.dtarget").read_text())
        for name in ("two_k4", "tree")
    ]
    assert len(targets) == 2549 + 2
    differ = []
    for t in targets:
        ours = edge_colour(t, cap=64)
        if (ours.matchings if ours else None) != oracles.lex_first_colouring(t):
            differ.append(t)
    assert differ == []


# sha256, one line per target: repr(edge_colour(t).matchings), "None", or
# the refusal's type name.  Over the zero-multiplicity targets of k4, prism
# and cube, and over the 300 walked targets (n up to 20; 175 colourable).
ZERO_MULT_DIGEST = "3b4dceac6fdd9d07c180801ad54cd36c0e6dd8da45893e7eb5a9f55975371182"
WALK_DIGEST = "19338391ea8faad5ed7463da35954b55bedd63279609ed69a53070b23c4d763a"


@pytest.mark.parametrize(
    "build, count, expected",
    [(zero_mult_targets, 5561, ZERO_MULT_DIGEST), (walk_targets, 300, WALK_DIGEST)],
    ids=["zero_mult", "walk"],
)
def test_colourings_on_zero_multiplicity_targets_keep_their_digest(build, count, expected):
    # Many of these targets have a support that is not the graph's edge set,
    # so they reach tables that a target with every m(e) > 0 never keys.
    digest = sha256()
    targets = build()
    assert len(targets) == count
    for t in targets:
        try:
            colouring = edge_colour(t)
            line = "None" if colouring is None else repr(colouring.matchings)
        except DTargetError as exc:
            line = type(exc).__name__
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == expected


# sha256 of repr(edge_colour(t).matchings) on bench/gen.antiprism_case(28, 1):
# of the antiprism cases measured, the decided one that backtracks most.
BACKTRACKING_DIGEST = "8776f1d10226d9213e4c55c35c77085756491d26f41d9a3787322ad1f86a67cd"


def test_the_backtracking_antiprism_colours_within_the_bound():
    t = parse_dtarget((DATA / "antiprism_28_1.dtarget").read_text())
    start = time.perf_counter()
    colouring = edge_colour(t)
    assert time.perf_counter() - start < 10.0
    assert colouring is not None and verify_colouring(t, colouring)
    assert sha256(repr(colouring.matchings).encode()).hexdigest() == BACKTRACKING_DIGEST


@pytest.mark.parametrize("n, seed", [(20, 4), (22, 6), (24, 1)])
def test_antiprism_cliff_is_gone(n, seed):
    # On these cases the earlier solver, which oracles.lex_first_colouring
    # copies, ran past 12 s each; the bound of acceptance criterion 3 is 10 s.
    t = antiprism(n, seed)
    start = time.perf_counter()
    colouring = edge_colour(t, cap=64)
    assert time.perf_counter() - start < 10.0
    assert colouring is not None and verify_colouring(t, colouring)


def test_search_depth_is_not_bounded_by_recursion():
    # d matchings are placed one level each; d = 1600 is past Python's
    # default recursion limit.
    k4 = load_fixture("k4")
    t = DTarget.of(k4.graph, 1600, {e: 200 * m for e, m in k4.mult_items})
    colouring = edge_colour(t)
    assert colouring is not None and verify_colouring(t, colouring)
    assert sorted(Counter(colouring.matchings).values()) == [400, 400, 800]


def test_lanes_hold_a_multiplicity_above_d():
    # An off-degree target packs its residual before the root answers, so
    # the lanes are sized from its largest multiplicity, not from d.
    k4 = load_fixture("k4")
    assert edge_colour(DTarget.of(k4.graph, k4.d, {**dict(k4.mult_items), (0, 1): 300})) is None


def test_matching_walk_is_not_bounded_by_recursion():
    # A 2400-cycle whose support is one perfect matching: the walk goes
    # 1200 levels deep, past Python's default recursion limit.
    n = 2400
    rots = tuple(((v - 1) % n, (v + 1) % n) for v in range(n))
    mult = {(v, v + 1): 8 * (v % 2 == 0) for v in range(n - 1)} | {(0, n - 1): 0}
    t = DTarget.of(RotationGraph(rots), 8, mult)
    colouring = edge_colour(t)
    assert colouring is not None and verify_colouring(t, colouring)
    assert len(set(colouring.matchings)) == 1


def _table_key(t: DTarget) -> tuple:
    # Byte lanes hold every d = 8 target; the key's int has a 1 in the lane
    # of each edge with m(e) = 0.
    zero = sum(1 << 8 * i for i, m in enumerate(t.mult_vector) if not m)
    return ("matchings", 8, zero)


def test_colouring_facts_live_on_the_graph():
    # One enumeration per graph and support, shared by every target on the
    # graph and kept under the support's zero set (none here); no colouring
    # fact lives on a target.  An equal graph built afresh starts with none.
    items = build_corpus(bases=("octahedron",))
    graph = items[0].target.graph
    assert all(item.target.graph is graph for item in items)
    for item in items:
        before = dict(item.target.facts)
        edge_colour(item.target)
        assert item.target.facts == before
    assert sorted(map(str, graph.facts)) == sorted([str(("matchings", 8, 0)), "triangles"])
    fresh = RotationGraph(graph.rotations)
    assert fresh == graph and hash(fresh) == hash(graph) and fresh.facts == {}


class _CountedWrites(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.writes = Counter()

    def __setitem__(self, key, value):
        self.writes[key] += 1
        super().__setitem__(key, value)


def _assert_one_table_write_per_support(targets: list[DTarget], colourable: bool) -> set:
    # With colourable set, every target must colour; otherwise a target may
    # answer None, but a colouring returned must verify.
    graph = targets[0].graph
    facts = _CountedWrites(graph.facts)
    object.__setattr__(graph, "facts", facts)
    for t in targets:
        assert t.graph is graph
        colouring = edge_colour(t)
        if colourable or colouring is not None:
            assert verify_colouring(t, colouring)
    keys = {_table_key(t) for t in targets}
    assert len(targets) > len(keys)
    assert facts.writes == Counter({"triangles": 1, **{key: 1 for key in keys}})
    return keys


def test_colour_tables_are_built_once_per_support():
    # The matchings of a support and the search's tables for them are built
    # and stored by the first call on the support; every later call reads
    # them.
    items = build_corpus(bases=("octahedron",), limit_per_base=1000000)
    _assert_one_table_write_per_support([item.target for item in items], colourable=True)


def test_colour_tables_are_built_once_per_zero_set():
    # The prism's zero-multiplicity targets meet 21 supports.
    graph = load_fixture("prism").graph
    targets = list(enumerate_multiplicities(graph, 8, min_mult=0))
    assert len(_assert_one_table_write_per_support(targets, colourable=False)) == 21
