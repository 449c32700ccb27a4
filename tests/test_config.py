"""Doors, heaviness, toughness, the 19 patterns, and the primality witness chain."""

from __future__ import annotations

from collections import Counter
from itertools import product
from pathlib import Path

import pytest

import oracles
from dtargets import config
from dtargets.config import (
    ConfigMatch,
    CutViolation,
    PrimalityVerdict,
    TooFewVertices,
    ZeroMultEdge,
    detect,
    detect_all,
    door_table,
    doors,
    is_big,
    is_prime,
    is_tough,
    m_plus,
    recheck,
)
from dtargets.corpus import build_corpus, enumerate_multiplicities, load_fixture
from dtargets.cuts import CutWitness, odd_cuts_of, strengthened_cut_check
from dtargets.discharge import charge_report
from dtargets.errors import AmbiguousContext, DTargetError, NotTwoConnected, UnsupportedD
from dtargets.planar import DTarget, RotationGraph, norm_edge, parse_dtarget, serialize_dtarget
from dtargets.switching import switch_square

from conftest import FIXTURES
from gadgets import (
    DECA_BETA2,
    DECA_BETA3,
    DECA_BETA4,
    DECA_BETA5,
    DEGENERATE_GRAPHS,
    OCTA_GAMMA1_MULT,
    OCTA_GAMMA2_MULT,
    OCTA_GAMMA6_MULT,
    _bench_gen,
    decaprism,
    gear12,
    octa,
    pentaprism,
    prism,
    one_shot_targets,
    rule5_wheel,
    spanning_subgraph_targets,
    two_big_rings,
    walk_targets,
    zero_mult_targets,
)


def gadget_targets():
    return {
        "prism24": prism(2, 4),
        "prism32": prism(3, 2),
        "pentaprism16": pentaprism(1, 6),
        "octa_gamma1": octa(OCTA_GAMMA1_MULT),
        "octa_gamma2": octa(OCTA_GAMMA2_MULT),
        "octa_gamma6": octa(OCTA_GAMMA6_MULT),
        "deca_beta2": decaprism(*DECA_BETA2),
        "deca_beta3": decaprism(*DECA_BETA3),
        "deca_beta4": decaprism(*DECA_BETA4),
        "deca_beta5": decaprism(*DECA_BETA5),
        "two_big_rings": two_big_rings(),
        "gear12": gear12(),
        "rule5_wheel": rule5_wheel(),
    }


ALL_TARGETS = {name: load_fixture(name) for name in FIXTURES}
ALL_TARGETS.update(gadget_targets())


@pytest.mark.parametrize("name", sorted(ALL_TARGETS))
def test_doors_and_bigness_match_oracle(name):
    t = ALL_TARGETS[name]
    for r in t.graph.faces:
        assert sorted(doors(t, r)) == oracles.doors(t, r), f"region {r.id}"
        assert is_big(t, r) == oracles.big(t, r)


@pytest.mark.parametrize("name", sorted(ALL_TARGETS))
def test_m_plus_matches_oracle(name):
    t = ALL_TARGETS[name]
    for r in t.graph.faces:
        for e in r.edges:
            expected = oracles.m_plus(t, e, {r.id})
            assert m_plus(t, e, (r.id,)) == expected


def _rim_records_match_oracle(t) -> int:
    """Check every region's rim records against the oracles: one record per
    boundary position, the region across (None exactly across a bridge) and,
    off a bridge, i-heaviness for i = 2..5.  Returns how many non-bridge
    records lie on a face that visits a vertex twice."""
    pinched = 0
    for r in t.graph.faces:
        records = config._rim_records(t.graph, r, lambda f: True)
        assert [t.graph.edges[f] for f, *_ in records] == list(r.edges)
        for (f, s, _, _), heft in zip(records, config._hefts(t.mult_vector, records)):
            e = t.graph.edges[f]
            if len(oracles.edge_faces(t, e)) == 1:
                assert s is None, (serialize_dtarget(t), r.id, e)
                continue
            assert s == oracles.other_face(t, e, r).id
            for i in (2, 3, 4, 5):
                assert (heft >= i) == oracles.heavy(t, e, r, i), (serialize_dtarget(t), r.id, e)
            pinched += len(set(r.vertices)) < r.length
    return pinched


@pytest.mark.parametrize("name", sorted(ALL_TARGETS))
def test_heaviness_matches_oracle(name):
    _rim_records_match_oracle(ALL_TARGETS[name])


def test_heaviness_matches_oracle_on_spanning_subgraphs():
    # Faces with bridges and cut vertices: a bridge's records (two per rim)
    # have no region across, and the other records on a face that visits a
    # vertex twice still find their far triangles.
    for targets in (spanning_subgraph_targets(), spanning_subgraph_targets(40, 2)):
        assert sum(map(_rim_records_match_oracle, targets)) > 0


@pytest.mark.parametrize("name", sorted(ALL_TARGETS))
def test_toughness_matches_oracle(name):
    t = ALL_TARGETS[name]
    for r in t.graph.faces:
        assert is_tough(t, r) == oracles.tough(t, r), f"region {r.id}"


def test_door_table_and_toughness_match_the_oracles_on_many_targets():
    # The one-shot ladders, every zero-multiplicity assignment of the small
    # fixtures, the 300 walked targets and the spanning subgraphs whose faces
    # are not simple cycles: each region's doors, small flag and toughness
    # against the brute-force oracles.  A spanning subgraph is refused
    # exactly when a multiplicity-1 edge has one face on both sides.  The
    # second seed's set holds door tests that a flank after the first at a
    # twice-visited end decides; the first set holds none.
    targets = [t for ts in one_shot_targets().values() for t in ts]
    targets += zero_mult_targets() + list(walk_targets())
    refused = 0
    for t in spanning_subgraph_targets() + spanning_subgraph_targets(40, 2):
        bridged = any(m == 1 and len(oracles.edge_faces(t, e)) == 1 for e, m in t.mult_items)
        try:
            door_table(t)
        except NotTwoConnected:
            assert bridged, serialize_dtarget(t)
            refused += 1
        else:
            assert not bridged, serialize_dtarget(t)
            targets.append(t)
    assert refused == 56 + 82
    assert len(targets) == 36 + 5561 + 300 + 184 + 398
    for t in targets:
        table, small = door_table(t)
        for r in t.graph.faces:
            assert list(table[r.id]) == oracles.doors(t, r), (serialize_dtarget(t), r.id)
            assert small[r.id] == (not oracles.big(t, r))
            assert is_tough(t, r) == oracles.tough(t, r), (serialize_dtarget(t), r.id)


def test_the_charge_program_grows_linearly_with_the_darts():
    # Each edge's entry holds its flanks and each rim one entry per dart, so
    # on the ladder prisms four times the darts make at most four times the
    # leaves; lists of far edges disjoint from each edge would grow with the
    # square of a face's length.
    def leaves(x) -> int:
        return sum(map(leaves, x)) if isinstance(x, tuple) else 1

    gen = _bench_gen()
    small, large = (
        leaves(config.charge_program(parse_dtarget(gen.prism_text(n)).graph)) for n in (40, 160)
    )
    assert large <= 4 * small, (small, large)
    assert config.ChargeProgram._fields == ("sides", "rims", "bridges")


def test_doors_computed_once_per_region(monkeypatch):
    # One pass fills every region's doors, at the first reader; later
    # readers share it.
    computed = _counting_door_tables(monkeypatch)
    t = load_fixture("pentagonal_prism")
    first = t.graph.faces[0]
    assert doors(t, first) is doors(t, first)
    for r in t.graph.faces:
        is_big(t, r)
    assert computed == [t]
    assert len(door_table(t)[0]) == len(t.graph.faces)


def _counting_door_tables(monkeypatch) -> list:
    computed = []
    fill = config._door_table

    def counted(t):
        computed.append(t)
        return fill(t)

    monkeypatch.setattr(config, "_door_table", counted)
    return computed


def test_a_walk_step_finds_each_region_s_doors_once(monkeypatch):
    # The walk's order: charge_report, then detect_all, on each new target.
    computed = _counting_door_tables(monkeypatch)
    for walked in walk_targets()[::7]:
        t = DTarget(walked.graph, walked.d, walked.mult_vector)  # no facts yet
        charge_report(t)
        detect_all(t)
        assert len(computed) == 1 and computed[0] is t
        assert len(door_table(t)[0]) == len(t.graph.faces)
        computed.clear()


def test_a_walk_step_compiles_no_charge_program(monkeypatch):
    # The charge program belongs to the graph: the first target on a graph
    # compiles it, and each later step of the walk, a new target on the same
    # graph, reuses it.
    compiled = []
    compile_charge = config._compile_charge

    def counted(graph):
        compiled.append(graph)
        return compile_charge(graph)

    monkeypatch.setattr(config, "_compile_charge", counted)
    walked = walk_targets()
    for start in (0, 100, 200):
        graph = RotationGraph(walked[start].graph.rotations)  # no facts yet
        for step in walked[start : start + 100]:
            t = DTarget(graph, step.d, step.mult_vector)
            charge_report(t)
            detect_all(t)
            assert compiled == [graph]
        compiled.clear()


def test_the_exhaustive_scan_finds_no_doors(monkeypatch):
    computed = _counting_door_tables(monkeypatch)
    items = build_corpus(limit_per_base=1_000_000)
    assert len(items) == 2527
    for item in items:
        is_prime(item.target)
    assert computed == []


def test_m_plus_ambiguous_context():
    t = load_fixture("prism")
    triangle = next(r for r in t.graph.faces if r.length == 3)
    other = next(r for r in t.graph.faces if r.id != triangle.id)
    edge = triangle.edges[0]
    with pytest.raises(AmbiguousContext):
        m_plus(t, edge, ())  # no disc: both regions outside
    both = tuple(r.id for r in t.graph.faces)
    with pytest.raises(AmbiguousContext):
        m_plus(t, edge, both)  # every region inside
    assert other is not None


def test_m_plus_refuses_a_non_edge():
    # the refusal beta_trace and gamma_trace give a non-edge
    with pytest.raises(DTargetError, match=r"^\(0, 5\) is not an edge of the graph$"):
        m_plus(load_fixture("prism"), (0, 5), (0,))


def test_tough_triangle_cases():
    octa_t = load_fixture("octahedron")
    for r in octa_t.graph.faces:
        assert is_tough(octa_t, r)  # multiplicity 6 everywhere
    # The (1, 2, 2) case: multiplicity 5 alone is not enough.
    rings = two_big_rings()
    tri = next(
        r
        for r in rings.graph.faces
        if r.length == 3 and r.vertex_set == frozenset({0, 1, 10})
    )
    assert sorted(rings.m(*e) for e in tri.edges) == [1, 2, 2]
    assert not is_tough(rings, tri)


def test_is_tough_non_triangle_false():
    t = load_fixture("cube")
    for r in t.graph.faces:
        assert not is_tough(t, r)


@pytest.mark.parametrize("name", sorted(ALL_TARGETS))
@pytest.mark.parametrize("k", range(1, 20))
def test_detect_agrees_with_brute_force(name, k):
    t = ALL_TARGETS[name]
    assert bool(detect(t, k)) == oracles.conf_matches(t, k), f"{name} Conf({k})"


def test_detect_agrees_with_brute_force_on_faces_that_are_not_simple_cycles():
    # Faces along bridges and through cut vertices: the seeded spanning
    # subgraphs and every vector in 1..4 on the degenerate graphs.  The
    # oracles read no region across a bridge.  detect refuses a target whose
    # multiplicity-1 bridge leaves a door undefined; every other target is
    # compared on all 19 patterns.
    degenerate = [
        DTarget(graph, 8, vector)
        for graph in map(RotationGraph, DEGENERATE_GRAPHS.values())
        for vector in product(range(1, 5), repeat=len(graph.edges))
    ]
    spanning = spanning_subgraph_targets() + spanning_subgraph_targets(40, 2)
    for targets, answered in ((spanning, 593), (degenerate, 2064)):
        compared = 0
        for t in targets:
            try:
                found = [bool(detect(t, k)) for k in range(1, 20)]
            except NotTwoConnected:
                continue
            compared += 1
            for k, match in enumerate(found, 1):
                assert match == oracles.conf_matches(t, k), (serialize_dtarget(t), k)
        assert compared == answered


@pytest.mark.parametrize("name", sorted(ALL_TARGETS))
def test_every_match_rechecks(name):
    t = ALL_TARGETS[name]
    for match in detect_all(t):
        assert recheck(t, match), match


def test_detect_dedups_and_sorts():
    t = load_fixture("octahedron")
    matches = detect(t, 3)
    assert matches
    keys = [(m.names, m.region_ids) for m in matches]
    assert len(keys) == len(set(keys))
    assert [m.vertex_tuple for m in matches] == sorted(
        m.vertex_tuple for m in matches
    )


def test_placements_are_generated_once_per_graph(monkeypatch):
    runs: dict = {}
    wrappers: dict = {}

    def counted(generate):
        def wrapper(graph):
            runs[generate] = runs.get(generate, 0) + 1
            return generate(graph)

        return wrapper

    for k, pattern in config._PATTERNS.items():
        generate = pattern.placements
        if generate not in wrappers:
            wrappers[generate] = counted(generate)
        monkeypatch.setitem(
            config._PATTERNS, k, pattern._replace(placements=wrappers[generate])
        )
    t = load_fixture("pentagonal_prism")
    first = detect_all(t)
    assert detect_all(DTarget.of(t.graph, t.d, dict(t.mult_items))) == first
    assert len(wrappers) == 8
    assert runs == dict.fromkeys(wrappers, 1)
    # Beside the placements: each pattern's compiled judges, and the charge
    # program their door table and rim records (the far triangle of each
    # region's edges) read.
    compiled = {("compiled", k) for k in config._PATTERNS}
    assert set(t.graph.facts) == set(wrappers.values()) | compiled | {"charge"}


def test_ambiguous_second_regions_fail_their_placements(monkeypatch):
    # The tree's one region lies on both sides of each of its edges, so every
    # edge placement of Conf 14, 15, 17 and 19 has no second region: each
    # compiles to nothing.
    raised = []
    seconds = config._seconds

    def counted(graph, disc, *pairs):
        found = seconds(graph, disc, *pairs)
        if found is None:
            raised.append(pairs)
        return found

    monkeypatch.setattr(config, "_seconds", counted)
    tree = parse_dtarget((Path(__file__).parent / "data" / "tree.dtarget").read_text())
    assert detect_all(tree) == []
    assert len(raised) == 4 * 5
    assert {norm_edge(*pairs[0]) for pairs in raised} == set(tree.graph.edges)
    assert all(tree.graph.facts[("compiled", k)] == () for k in (14, 15, 17, 19))
    # recheck reads the compiled judges, so it meets no second region.
    assert not recheck(tree, ConfigMatch(14, (("u", 0), ("v", 1)), (0,), ()))
    assert len(raised) == 4 * 5


def test_conf14_compiles_without_edge_lists(monkeypatch):
    # Conf 14 counts r's doors disjoint from uv when judged, so compiling a
    # placement reads uv's second region alone and lists none of r's edges.
    graph = parse_dtarget(_bench_gen().prism_text(40)).graph
    calls = []
    disjoint = config.edges_disjoint
    monkeypatch.setattr(config, "edges_disjoint", lambda e, f: calls.append(e) or disjoint(e, f))
    compiled = config._compile_placements(graph, config._PATTERNS[14])
    assert len(compiled) == 20 * 4 + 2 * 20
    assert calls == []


@pytest.mark.parametrize("k, outer_matches", [(9, [(("u", 0), ("v", 1))]), (10, [])])
def test_conf14_refuses_past_six_doors_disjoint_from_uv(k, outer_matches):
    # The 2k-prism with m = 5 on (0, 1) and (k, k+1), m = 2 on spokes 0 and
    # 1, m = 6 on the other spokes and m = 1 elsewhere.  The square across
    # uv = (0, 1) is small, so m+(uv) = 6 on the outer ring, and each other
    # ring edge is a door of it: k - 3 of them miss uv, six at k = 9 and
    # seven at k = 10.  The m = 6 spokes match on their squares either way.
    graph = parse_dtarget(_bench_gen().prism_text(2 * k)).graph
    spokes = {(i, i + k): 6 for i in range(2, k)}
    heavy = {(0, 1): 5, (k, k + 1): 5, (0, k): 2, (1, k + 1): 2}
    t = DTarget.of(graph, 8, {**dict.fromkeys(graph.edges, 1), **spokes, **heavy})
    (outer,) = [r for r in graph.faces if r.vertex_set == frozenset(range(k))]
    assert len([d for d in oracles.doors(t, outer) if not set(d) & {0, 1}]) == k - 3
    matches = detect(t, 14)
    on_outer = [m for m in matches if m.region_ids == (outer.id,)]
    assert [m.names for m in on_outer] == outer_matches
    assert all("6 door(s)" in m.satisfied[1] for m in on_outer)
    assert bool(matches) == oracles.conf14(t)


def test_a_bridge_among_the_rim_records_fails_conf18_branch_b():
    # Target 69 of the second spanning seed: region 0 (0-1-2-1-4-5) carries
    # the bridge 1-2 (m = 3) twice among its edges avoiding u = 0.  Conf 18
    # at (r, tri, u, v, w) = (0, 2, 0, 5, 3) passes every other condition of
    # branch b (1-4 is its one edge not 3-heavy), but the bridge has no
    # second region, so its m+ >= 2 test fails and nothing matches.  On the
    # seed's other targets no bridge decides Conf 17 or 18.
    t = spanning_subgraph_targets(40, 2)[69]
    assert detect(t, 17) == detect(t, 18) == []
    ((_, _, judge),) = [
        (names, ids, judge)
        for names, ids, judge in t.graph.facts[("compiled", 18)]
        if names == (("u", 0), ("v", 5), ("w", 3)) and ids == (0, 2)
    ]
    region_doors, small = door_table(t)
    assert judge(t.mult_vector, small, region_doors) is None
    rec_b = config._rim_records(t.graph, t.graph.faces[0], lambda f: 0 not in f)
    assert [(t.graph.edges[f], s) for f, s, _, _ in rec_b] == [
        ((1, 2), None), ((1, 2), None), ((1, 4), 1), ((4, 5), 1),
    ]


DATA_TARGETS = sorted((Path(__file__).parent / "data").glob("*.dtarget"))


def _least_detected(t):
    for k in config._PATTERNS:
        matches = detect(t, k)
        if matches:
            return matches[0]
    return None


def test_is_prime_stops_at_the_least_detected_match():
    items = build_corpus(limit_per_base=1_000_000, require_oddly_connected=False)
    targets = [item.target for item in items]
    targets += [parse_dtarget(path.read_text()) for path in DATA_TARGETS]
    reached = 0
    for t in targets:
        try:
            verdict = is_prime(t)
        except DTargetError:
            verdict = None
        if verdict is not None and (
            verdict.witness is None or isinstance(verdict.witness, ConfigMatch)
        ):
            reached += 1
            assert verdict.witness == _least_detected(t)
        else:
            # is_prime stopped before the patterns: check the early exit alone.
            for k in config._PATTERNS:
                try:
                    least = next(iter(detect(t, k)), None)
                except DTargetError:  # a disconnected drawing has no regions
                    break
                assert next(config._matches(t, k), None) == least
    assert reached == 2366


def test_is_prime_evaluates_fewer_placements_than_detect(monkeypatch):
    calls = []
    pattern = config._PATTERNS[4]

    def counted(graph, *placement):
        judge = pattern.compile(graph, *placement)

        def counted_judge(m, small, doors):
            calls.append(placement)
            return judge(m, small, doors)

        return counted_judge

    monkeypatch.setitem(config._PATTERNS, 4, pattern._replace(compile=counted))
    cube = load_fixture("cube")
    matches = detect(cube, 4)
    detect_calls = len(calls)
    assert len(matches) > 1
    calls.clear()
    assert is_prime(cube).witness == matches[0]
    assert len(calls) < detect_calls


def test_a_walk_step_compiles_nothing(monkeypatch):
    # Placements and their compiled judges belong to the graph: a switch
    # makes a new target on the same graph and reuses both.
    counts = Counter()

    def counted(kind, fn):
        def wrapper(*args):
            counts[kind] += 1
            return fn(*args)

        return wrapper

    generators: dict = {}
    for k, pattern in config._PATTERNS.items():
        generate = generators.setdefault(
            pattern.placements, counted("placements", pattern.placements)
        )
        monkeypatch.setitem(config._PATTERNS, k, pattern._replace(
            placements=generate, compile=counted("compile", pattern.compile)
        ))
    t = load_fixture("pentagonal_prism")
    detect_all(t)
    assert counts["placements"] == 8 and counts["compile"] > 0
    counts.clear()
    square = next(r for r in t.graph.faces if r.length == 4)
    step = switch_square(t, *square.vertices)
    assert step.graph is t.graph and step.mult_vector != t.mult_vector
    detect_all(step)
    assert counts == Counter()


def test_is_prime_compiles_no_pattern_after_its_witness():
    cube = load_fixture("cube")
    witness = is_prime(cube).witness
    assert isinstance(witness, ConfigMatch)
    compiled = [
        key[1] for key in cube.graph.facts if isinstance(key, tuple) and key[0] == "compiled"
    ]
    assert sorted(compiled) == list(range(1, witness.conf_index + 1))


def _oracle_placements(t, k) -> set:
    """The tuples of pattern k's structure, from the oracles' own
    enumerations: labelled cycles of the simple triangles, squares and
    pentagons, adjacent triangle pairs, squares with a triangle on wx, a
    region's edges, and edges of a region whose far triangle has its apex
    off the region."""
    faces = t.graph.faces

    def labelled(length):
        return {(r, *vs) for r in faces if r.length == length for vs in oracles._cycle_labelings(r)}

    if k in (1, 7, 8, 9):
        return labelled(3)
    if k == 2:
        return {
            (tri, u, v, w, x)
            for tri, u, v, w in labelled(3)
            if oracles._degree(t, u) == 3
            for x in t.graph.rotations[u]
            if x not in tri.vertex_set
        }
    if k in (3, 5):
        return set(oracles._adjacent_triangle_pairs(t))
    if k in (4, 6, 13):
        return labelled(5 if k == 13 else 4)
    if k in (10, 11, 12):
        return set(oracles._square_triangle_tuples(t))
    if k in (16, 18):
        return set(oracles._region_triangle_tuples(t, 3))
    return {(r, *e) for r in faces for e in r.edges}


@pytest.mark.parametrize("source", [*FIXTURES, *(path.name for path in DATA_TARGETS)])
def test_cached_placements_have_their_shape_and_order(source):
    if source in FIXTURES:
        t = load_fixture(source)
    else:
        t = parse_dtarget((Path(__file__).parent / "data" / source).read_text())
    try:
        detect_all(t)
    except DTargetError:  # a disconnected drawing has no regions to place on
        assert not t.graph.facts
        return
    # Each generator yields only tuples of its pattern's structure, as the
    # oracles enumerate them independently, each once, in vertex-tuple order.
    for k, pattern in config._PATTERNS.items():
        placements = t.graph.facts[pattern.placements]
        assert set(placements) <= _oracle_placements(t, k), k
        split = -len(pattern.labels)
        assert [p[split:] for p in placements] == sorted(p[split:] for p in placements)
        assert len(set(placements)) == len(placements)


def _judged(t, k, *placement):
    """Pattern k's conditions on the tuple, whether or not it is one of the
    pattern's placements."""
    doors, small = door_table(t)
    return config._PATTERNS[k].compile(t.graph, *placement)(t.mult_vector, small, doors)


def test_recheck_rejects_a_conf4_match_off_its_square():
    cube = load_fixture("cube")
    match = detect(cube, 4)[0]
    other = next(r for r in cube.graph.faces if r.id != match.region_ids[0])
    moved = ConfigMatch(4, match.names, (other.id,), match.satisfied)
    # The multiplicities still pass; the moved match is no placement of Conf 4
    # (its vertices are not the other face's cycle), so recheck rejects it.
    assert _judged(cube, 4, other, *match.vertex_tuple) is not None
    assert not recheck(cube, moved)
    u, v, w, x = match.names
    assert not recheck(cube, ConfigMatch(4, (u, w, v, x), match.region_ids, ()))


def test_recheck_accepts_detected_matches_and_not_their_orbit_images():
    # recheck looks a match up among its pattern's placements, and detect
    # reports one labelling per orbit of the pattern's symmetries: an image
    # under a symmetry satisfies the same conditions but is no placement.
    def image(match, order, regions):
        names = [match.names[i][1] for i in order]
        return ConfigMatch(
            match.conf_index,
            tuple(zip((label for label, _ in match.names), names)),
            tuple(match.region_ids[i] for i in regions),
            match.satisfied,
        )

    prism24, octahedron, pentaprism16 = prism(2, 4), load_fixture("octahedron"), pentaprism(1, 6)
    cases = [
        (prism24, detect(prism24, 1)[0], (1, 0, 2), (0,)),  # (v, u, w)
        (octahedron, detect(octahedron, 5)[0], (2, 3, 0, 1), (1, 0)),  # (w, x, u, v)
        (prism24, detect(prism24, 6)[0], (1, 0, 3, 2), (0,)),  # (v, u, x, w)
        (pentaprism16, detect(pentaprism16, 14)[0], (1, 0), (0,)),  # (v, u)
    ]
    for t, match, order, regions in cases:
        assert recheck(t, match), match
        moved = image(match, order, regions)
        faces = [t.graph.faces[i] for i in moved.region_ids]
        assert _judged(t, match.conf_index, *faces, *moved.vertex_tuple) is not None
        assert not recheck(t, moved), moved


def test_recheck_refuses_region_ids_outside_the_faces():
    cube = load_fixture("cube")
    match = detect(cube, 4)[0]
    assert recheck(cube, match)
    (i,) = match.region_ids
    n = len(cube.graph.faces)
    # i - n names the match's own face under negative indexing.
    for bad in (i - n, n, n + 5):
        assert not recheck(cube, ConfigMatch(4, match.names, (bad,), match.satisfied))


def test_recheck_rejects_a_conf3_match_with_a_non_triangle_region():
    # A square pyramid: four triangles around apex 0 over the square 1-4-3-2.
    graph = RotationGraph(((1, 2, 3, 4), (0, 4, 2), (0, 1, 3), (0, 2, 4), (0, 3, 1)))
    t = DTarget.of(graph, 8, {e: 2 if 0 in e else 3 for e in graph.edges})
    match = detect(t, 3)[0]
    assert recheck(t, match)
    (square,) = [r for r in graph.faces if r.length == 4]
    first = graph.faces[match.region_ids[0]]
    assert _judged(t, 3, first, square, *match.vertex_tuple) is not None
    swapped = ConfigMatch(3, match.names, (first.id, square.id), match.satisfied)
    assert not recheck(t, swapped)


def test_known_prism_conf1():
    t = prism(2, 4)
    matches = detect(t, 1)
    assert {frozenset((dict(m.names)["u"], dict(m.names)["v"])) for m in matches} == {
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
        frozenset({3, 4}),
        frozenset({3, 5}),
        frozenset({4, 5}),
    }


def test_detect_requires_d8():
    t = load_fixture("k4")
    six = DTarget.of(t.graph, 6, {e: m - 1 for e, m in t.mult_items})
    with pytest.raises(UnsupportedD):
        detect(six, 1)


def test_primality_witness_chain():
    # Verdicts follow the fixed check order, each carrying its witness.
    zero = is_prime(gear12())
    assert not zero.is_prime
    assert isinstance(zero.witness, ZeroMultEdge)
    assert zero.witness.edge == (11, 17)
    assert zero.witness_kind == "ZeroMultEdge"

    small = is_prime(load_fixture("k4"))
    assert not small.is_prime
    assert isinstance(small.witness, TooFewVertices)
    assert small.witness.vertex_count == 4

    cut = is_prime(prism(3, 2))
    assert not cut.is_prime
    assert isinstance(cut.witness, CutViolation)
    assert cut.witness.witness.value == 6

    conf = is_prime(prism(2, 4))
    assert not conf.is_prime
    assert isinstance(conf.witness, ConfigMatch)
    assert conf.witness.conf_index == 1
    assert conf.witness_kind == "Conf(1)"


def test_the_strengthened_cut_refuses_every_target_below_three_connected():
    # With n >= 6 even and every m >= 1, a cut vertex or a 2-cut gives an odd
    # X with both sides of size >= 3 and m(delta(X)) <= 8, and so does an
    # edge of multiplicity 7; so no target passing the cut check is below
    # 3-connected or has m(e) > 6.  Checked here on every such target of the
    # spanning subgraphs that are not 3-connected.
    graphs = {}
    for t in spanning_subgraph_targets():
        g = t.graph
        n = g.vertex_count
        if n >= 6 and n % 2 == 0 and len(g.edges) <= 16 and oracles.connectivity_level(g) < 3:
            graphs.setdefault(g.rotations, g)
    count = heavy = 0
    for graph in graphs.values():
        targets = list(enumerate_multiplicities(graph, 8, min_mult=1))
        odd_cuts_of(targets)  # one walk per graph; each target keeps its facts
        for t in targets:
            violation = strengthened_cut_check(t)
            assert violation is not None, t
            verdict = is_prime(t)
            assert verdict.witness == CutViolation(violation), t
            X = violation.X
            assert len(X) % 2 == 1 and 1 < len(X) < t.vertex_count - 1
            assert oracles.cut_value(t, X) == violation.value < 10
            count += 1
            heavy += max(t.mult_vector) > 6
    assert (len(graphs), count, heavy) == (127, 3042, 240)


@pytest.mark.parametrize("name", ["cube", "pentagonal_prism"])
def test_is_prime_refuses_a_non_target(name):
    # Every multiplicity 2 gives degree sums 6: no structural bullet fails and
    # no pattern matches, so only the target check stands between such input
    # and a prime verdict.
    t = load_fixture(name)
    with pytest.raises(DTargetError, match="not a d-target"):
        is_prime(DTarget.of(t.graph, t.d, dict.fromkeys(t.graph.edges, 2)))


EXPECTED_FIRST_CONF = {
    "prism": 1,
    "cube": 4,
    "octahedron": 3,
    "pentagonal_prism": 4,
}


@pytest.mark.parametrize("name", sorted(EXPECTED_FIRST_CONF))
def test_fixture_primality_witnesses(name):
    verdict = is_prime(load_fixture(name))
    assert not verdict.is_prime
    assert isinstance(verdict.witness, ConfigMatch)
    assert verdict.witness.conf_index == EXPECTED_FIRST_CONF[name]
    assert recheck(load_fixture(name), verdict.witness)


def test_witnesses_render_themselves():
    cases = [
        (ZeroMultEdge((1, 2)), "ZeroMultEdge", {"edge": [1, 2]},
         "edge (1, 2) has multiplicity 0"),
        (TooFewVertices(4), "TooFewVertices", {"vertex_count": 4},
         "only 4 vertices (fewer than 6)"),
        (CutViolation(CutWitness((0, 1, 2), 6)), "CutViolation", {"X": [0, 1, 2], "value": 6},
         "odd cut X=[0, 1, 2] has value 6 < 10 with both sides larger than one vertex"),
        (ConfigMatch(18, (("u", 0), ("v", 1), ("w", 5)), (2, 4), lambda: ("f1", "f2"), "ab"),
         "Conf(18)",
         {"conf": 18, "names": {"u": 0, "v": 1, "w": 5}, "region_ids": [2, 4],
          "satisfied": ["f1", "f2"], "branch": "ab"},
         "Conf(18) at u=0, v=1, w=5 [branch ab]: f1; f2"),
    ]
    for witness, kind, fields, text in cases:
        assert witness.kind == kind
        assert witness.payload() == {"kind": kind, **fields}
        assert witness.text() == text
        assert PrimalityVerdict(False, witness).witness_kind == kind
    assert PrimalityVerdict(True, None).witness_kind is None


def test_recheck_rejects_relabelled_match():
    t = prism(2, 4)
    match = detect(t, 1)[0]
    assert recheck(t, match)
    swapped = ConfigMatch(1, tuple(reversed(match.names)), match.region_ids, ())
    assert not recheck(t, swapped)
    with pytest.raises(DTargetError):
        recheck(t, ConfigMatch(20, match.names, match.region_ids, ()))


def test_recheck_refuses_a_target_whose_d_is_not_8():
    t = load_fixture("prism")
    match = detect(t, 1)[0]
    assert recheck(t, match)
    with pytest.raises(UnsupportedD):
        recheck(DTarget(t.graph, 6, t.mult_vector), match)


def test_a_match_renders_its_facts_only_when_read(monkeypatch):
    # Conf 1's renderer raises: every verdict is still reached, and only
    # reading the facts raises.
    def boom():
        raise RuntimeError("rendered")

    compile_conf1 = config._PATTERNS[1].compile

    def compile_raising(graph, *placement):
        judge = compile_conf1(graph, *placement)
        if judge is None:
            return None
        def raising(m, small, doors):
            hit = judge(m, small, doors)
            return None if hit is None else (boom, hit[1])
        return raising

    monkeypatch.setitem(config._PATTERNS, 1, config._PATTERNS[1]._replace(compile=compile_raising))
    t = load_fixture("prism")
    witness = is_prime(t).witness
    matches = detect(t, 1)
    assert witness.names == matches[0].names and witness.region_ids == matches[0].region_ids
    assert [m.kind for m in detect_all(t)].count("Conf(1)") == len(matches) > 0
    assert all(recheck(t, m) for m in matches)
    assert (witness.kind, witness.vertex_tuple, witness.branch) == ("Conf(1)", (0, 1, 2), None)
    for read in (lambda: witness.satisfied, witness.payload, witness.text):
        with pytest.raises(RuntimeError, match="rendered"):
            read()


def test_a_match_reprs_its_rendered_facts():
    match = ConfigMatch(18, (("u", 0), ("v", 1), ("w", 5)), (2, 4), lambda: ("f1", "f2"), "ab")
    assert repr(match) == (
        "ConfigMatch(conf_index=18, names=(('u', 0), ('v', 1), ('w', 5)), region_ids=(2, 4), "
        "satisfied=('f1', 'f2'), branch='ab')"
    )


def test_a_match_is_immutable():
    match = detect(load_fixture("prism"), 1)[0]
    for name in ("conf_index", "names", "region_ids", "render", "branch", "satisfied"):
        with pytest.raises(AttributeError):
            setattr(match, name, None)


def test_matches_on_equal_targets_are_equal_with_equal_hashes():
    text = serialize_dtarget(load_fixture("octahedron"))
    first, second = detect_all(parse_dtarget(text)), detect_all(parse_dtarget(text))
    assert len(first) == 144
    assert first == second and not any(a != b for a, b in zip(first, second))
    assert [hash(m) for m in first] == [hash(m) for m in second]
    assert all(a.render is not b.render for a, b in zip(first, second))


def test_matches_whose_facts_differ_compare_unequal():
    # The same placement matched on two walk targets with different
    # multiplicities: the rendered facts differ, so the matches do.
    first = {}
    for t in walk_targets()[:100]:
        for match in detect_all(t):
            seen = first.setdefault(
                (match.conf_index, match.names, match.region_ids, match.branch), match
            )
            if seen.satisfied != match.satisfied:
                assert seen != match and not seen == match
                assert len({seen, match}) == 2
                return
    pytest.fail("no placement matched with two different facts")
