"""Odd cuts: cut values, the minimum odd cut, the odd-connectivity test and
the strengthened check, each against the brute-force oracle."""

from __future__ import annotations

import random
import time
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dtargets import cli, corpus, cuts
from dtargets.config import is_prime, recheck
from dtargets.corpus import build_corpus, enumerate_multiplicities, load_fixture
from dtargets.cuts import (
    is_oddly_connected,
    m_delta,
    min_odd_cut,
    strengthened_cut_check,
)
from dtargets.errors import DTargetError, OddVertexCount, TooLarge
from dtargets.planar import DTarget, RotationGraph, parse_dtarget

from conftest import FIXTURES
from gadgets import (
    _bench_gen,
    below_three_connected_graphs,
    prism,
    unfiltered_corpus,
    walk_targets,
)

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("name", FIXTURES)
def test_m_delta_matches_oracle_everywhere(name):
    t = load_fixture(name)
    for X in oracles.odd_subsets(t.vertex_count):
        assert m_delta(t, X) == oracles.cut_value(t, X)


def test_m_delta_symmetric_under_complement():
    t = load_fixture("prism")
    everything = set(range(t.vertex_count))
    for X in oracles.odd_subsets(t.vertex_count):
        assert m_delta(t, X) == m_delta(t, everything - set(X))


@pytest.mark.parametrize("X", [(0, 1, 99), (0, 0, 1), (-1, 0, 1)])
def test_m_delta_refuses_what_is_not_a_vertex_set(X):
    # Read as the set {0, 1}, each would pass for an odd set of cut value 12.
    cube = load_fixture("cube")
    with pytest.raises(DTargetError, match=r"is not a set of distinct vertices 0\.\.7$"):
        m_delta(cube, X)
    assert m_delta(cube, (0, 1)) == 12


@pytest.mark.parametrize("name", FIXTURES)
def test_canonical_fixtures_oddly_connected(name):
    t = load_fixture(name)
    assert is_oddly_connected(t)
    witness = min_odd_cut(t)
    assert witness.value >= t.d
    assert witness.value == oracles.min_odd_cut_value(t)
    assert len(witness.X) % 2 == 1
    assert m_delta(t, witness.X) == witness.value


def test_prism_a3_c2_fails_the_filter():
    t = prism(3, 2)
    assert not is_oddly_connected(t)
    witness = min_odd_cut(t)
    assert witness.value == 6
    assert frozenset(witness.X) in (frozenset({0, 1, 2}), frozenset({3, 4, 5}))
    assert oracles.min_odd_cut_value(t) == 6


def test_strengthened_check_needs_ten():
    # The canonical prism passes (every interior odd cut is at least 12);
    # ring multiplicity 3 leaves the triangle cut at 6 and fails.
    assert strengthened_cut_check(prism(2, 4)) is None
    violation = strengthened_cut_check(prism(3, 2))
    assert violation is not None
    assert violation.value == 6
    assert 1 < len(violation.X) < 5


def _assert_witnesses_match_oracle(t):
    witness = min_odd_cut(t)
    assert (witness.value, witness.X) == oracles.min_odd_cut_witness(t)
    violation = strengthened_cut_check(t)
    found = None if violation is None else (violation.value, violation.X)
    assert found == oracles.strengthened_violation(t)
    assert is_oddly_connected(t) == oracles.oddly_connected(t)


def test_witnesses_match_oracle_on_corpus(corpus):
    for item in corpus:
        _assert_witnesses_match_oracle(item.target)


@pytest.mark.parametrize("name", ("k4", "prism", "octahedron"))
def test_witnesses_match_oracle_with_zero_edges(name):
    # Zero multiplicities give tied minima and cuts below d.
    graph = load_fixture(name).graph
    for t in enumerate_multiplicities(graph, 8, min_mult=0):
        _assert_witnesses_match_oracle(t)


def test_witnesses_contain_vertex_0_on_the_exhaustive_corpus():
    # The pass fixes vertex 0 outside every set it scans, so the least of a
    # set and its complement is the complement; that is why comparing the
    # complements alone gives the same witnesses.
    items = unfiltered_corpus()
    assert len(items) == 2549
    for item in items:
        witnesses = [min_odd_cut(item.target), strengthened_cut_check(item.target)]
        assert all(0 in w.X for w in witnesses if w is not None), item.name


def test_one_odd_cut_pass_per_target(monkeypatch):
    scanned = []
    scan = cuts._scan_odd_cuts

    def counted(t):
        scanned.append(t)
        return scan(t)

    monkeypatch.setattr(cuts, "_scan_odd_cuts", counted)
    t = load_fixture("prism")
    assert is_oddly_connected(t)
    witness = min_odd_cut(t)
    assert strengthened_cut_check(t) is None
    assert is_prime(t).witness is not None
    assert len(scanned) == 1
    # An equal target made anew has its own facts and runs its own pass.
    copy = DTarget.of(t.graph, t.d, dict(t.mult_items))
    assert copy == t
    assert min_odd_cut(copy) == witness
    assert len(scanned) == 2 and scanned[1] is copy


def test_the_exhaustive_corpus_runs_one_walk_per_candidate_orbit(monkeypatch):
    # The checks hold for a whole automorphism orbit, so build_corpus
    # validates and walks the first of each orbit's 2,549 candidates alone.
    walked, validated = [], []
    scan, check = cuts._scan_odd_cuts, corpus.validate

    def counted_walk(t):
        walked.append(t)
        return scan(t)

    def counted_validate(t):
        validated.append(t)
        return check(t)

    monkeypatch.setattr(cuts, "_scan_odd_cuts", counted_walk)
    monkeypatch.setattr(corpus, "validate", counted_validate)
    items = build_corpus(limit_per_base=1000000)
    assert (len(walked), len(validated), len(items)) == (254, 254, 2527)
    firsts = [item.target for item in items if item.first is None]
    assert len(firsts) == 248 and all(any(t is w for w in walked) for t in firsts)


def _fresh(t):
    return DTarget(t.graph, t.d, t.mult_vector)


@cache
def _mixed_batch(name):
    """Seeded targets on one fixture graph: enumerated d = 8 targets with
    zero multiplicities, then random ones with other d and uneven degree
    sums, and one with total multiplicity 200; with each target's oracle
    (minimum witness, strengthened violation)."""
    graph = load_fixture(name).graph
    rng = random.Random(name)
    zeros = list(enumerate_multiplicities(graph, 8, min_mult=0))
    batch = rng.sample(zeros, min(len(zeros), 30))
    for _ in range(30):
        d = rng.choice((1, 2, 3, 5, 8, 13))
        values = [rng.choice((0, 0, 1, 2, 3, d)) for _ in graph.edges]
        batch.append(DTarget(graph, d, tuple(values)))
    # Cut values past one byte.
    values = [rng.randint(0, 12) for _ in graph.edges]
    values[0] = 200 - sum(values[1:])
    batch.append(DTarget(graph, 8, tuple(values)))
    expected = [
        (oracles.min_odd_cut_witness(t), oracles.strengthened_violation(t)) for t in batch
    ]
    return batch, expected


def _pair(witness):
    return None if witness is None else (witness.value, witness.X)


@pytest.mark.parametrize("name", FIXTURES)
def test_a_mixed_batch_matches_the_oracles_and_each_target_alone(name):
    batch, expected = _mixed_batch(name)
    batch = [_fresh(t) for t in batch]
    assert any(m == 0 for t in batch for _, m in t.mult_items)
    assert len({t.d for t in batch}) > 3
    assert any(len(set(t.degree_sums)) > 1 for t in batch)
    assert max(sum(t.mult_vector) for t in batch) == 200
    for t, want in zip(batch, expected, strict=True):
        assert (_pair(min_odd_cut(t)), _pair(strengthened_cut_check(t))) == want
        assert is_oddly_connected(t) == oracles.oddly_connected(t)


def test_odd_vertex_count_refused():
    # The triangle meets every other condition of the dual search (degree
    # sums d, Euler, every m >= 1); a stored answer is never read.
    triangle = RotationGraph(((1, 2), (2, 0), (0, 1)))
    t = DTarget.of(triangle, 2, {(0, 1): 1, (1, 2): 1, (0, 2): 1})
    with pytest.raises(OddVertexCount):
        min_odd_cut(t)
    with pytest.raises(OddVertexCount, match=r"\|V\| = 3 is odd"):
        strengthened_cut_check(t)
    assert t.facts == {}
    t.facts["strengthened"] = None
    with pytest.raises(OddVertexCount):
        strengthened_cut_check(t)


def test_cap_enforced(monkeypatch):
    t = load_fixture("prism")
    monkeypatch.setattr(cuts, "CUT_CAP", 4)
    with pytest.raises(TooLarge, match="exceeds the cut enumeration cap 4"):
        min_odd_cut(t)
    assert t.facts == {}


def test_the_ladder_is_refused_past_24_vertices():
    big = parse_dtarget(_bench_gen().prism_text(26))
    with pytest.raises(TooLarge, match=r"\|V\| = 26 exceeds the cut enumeration cap 24"):
        min_odd_cut(big)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(FIXTURES),
    data=st.data(),
)
def test_m_delta_oracle_on_random_subsets(name, data):
    t = load_fixture(name)
    size = data.draw(st.integers(min_value=1, max_value=t.vertex_count - 1))
    X = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=t.vertex_count - 1),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    assert m_delta(t, X) == oracles.cut_value(t, X)


# ---------------------------------------------------------------------------
# The strengthened check by the dual search: on a target with n even, faces
# passing the Euler check, every degree sum d and every m >= 1, and no walk
# stored, the bonds of the planar dual answer it, with no cap.
# ---------------------------------------------------------------------------


def _assert_the_dual_search_agrees(targets, monkeypatch, oracle_up_to=10):
    """strengthened_cut_check on a fresh copy of each target, with the walk
    disabled, equals the oracle up to oracle_up_to vertices and the walk
    elsewhere."""
    assert all(min(t.mult_vector) >= 1 for t in targets)
    expected = [
        oracles.strengthened_violation(t)
        if t.vertex_count <= oracle_up_to
        else _pair(cuts._scan_odd_cuts(t)[1])
        for t in targets
    ]
    monkeypatch.setattr(cuts, "_scan_odd_cuts", None)  # only the dual search can answer
    fresh = [_fresh(t) for t in targets]
    assert [_pair(strengthened_cut_check(t)) for t in fresh] == expected
    assert all("odd_cuts" not in t.facts for t in fresh)
    return expected


def test_the_dual_search_agrees_on_the_exhaustive_corpus(monkeypatch):
    items = unfiltered_corpus()
    expected = _assert_the_dual_search_agrees([i.target for i in items], monkeypatch)
    assert len(expected) == 2549
    assert sum(e is not None for e in expected) == 162


def test_the_dual_search_agrees_below_three_connected(monkeypatch):
    # Bridges make dual loops and two faces sharing two edges make parallel
    # dual edges; every one of these targets is a violation.  The oracle
    # checks the 1,081 targets with n <= 8; the walk, which the tests above
    # hold to the oracle, the 1,961 with n = 10 and 12, to keep the cost low.
    graphs = below_three_connected_graphs()
    assert sum(any(r is s for r, s in g.region_pairs) for g in graphs) == 80
    assert any(
        len(pairs) > len(set(pairs))
        for g in graphs
        for pairs in [[(r.id, s.id) for r, s in g.region_pairs if r is not s]]
    )
    targets = [t for g in graphs for t in enumerate_multiplicities(g, 8, min_mult=1)]
    expected = _assert_the_dual_search_agrees(targets, monkeypatch, oracle_up_to=8)
    assert len(expected) == 3042 and None not in expected


def test_the_dual_search_agrees_on_the_walk(monkeypatch):
    targets = [t for t in walk_targets() if min(t.mult_vector) >= 1]
    assert {t.vertex_count for t in targets} == {6, 16, 20}
    _assert_the_dual_search_agrees(targets, monkeypatch)


def test_is_prime_on_a_fresh_target_runs_no_walk(monkeypatch):
    monkeypatch.setattr(cuts, "_scan_odd_cuts", None)
    fixtures = [_fresh(load_fixture(name)) for name in FIXTURES if name != "k4"]
    for t in fixtures + [parse_dtarget(_bench_gen().prism_text(20))]:
        assert is_prime(t).witness is not None
        assert "strengthened" in t.facts and "odd_cuts" not in t.facts


def test_the_scan_runs_no_dual_search(monkeypatch):
    # The scan judges the first item of each orbit, whose answer the corpus
    # walk stored for is_prime to read.
    searched = []
    search = cuts._dual_violation

    def counted(t):
        searched.append(t)
        return search(t)

    monkeypatch.setattr(cuts, "_dual_violation", counted)
    judged = list(cli._judged(build_corpus(limit_per_base=1_000_000)))
    assert len(judged) == 2527 and not any(prime for _, prime, _ in judged)
    assert searched == []


def test_targets_outside_the_dual_search_keep_the_walk(monkeypatch):
    # Zero multiplicities, uneven degree sums and a disconnected graph whose
    # Euler sum is 2 get the walk's answer, which is the oracle's.
    monkeypatch.setattr(cuts, "_dual_violation", None)
    batch, expected = _mixed_batch("cube")
    cases = [
        (t, want)
        for t, (_, want) in zip(batch, expected)
        if 0 in t.mult_vector or set(t.degree_sums) != {t.d}
    ]
    assert any(set(t.degree_sums) == {t.d} for t, _ in cases)
    cube = load_fixture("cube")
    heavy = DTarget(cube.graph, 8, (cube.mult_vector[0] + 1,) + cube.mult_vector[1:])
    two_k4 = parse_dtarget((DATA / "two_k4.dtarget").read_text())
    for t in (heavy, two_k4):
        cases.append((t, oracles.strengthened_violation(t)))
    for t, want in cases:
        t = _fresh(t)
        assert _pair(strengthened_cut_check(t)) == want
        assert "odd_cuts" in t.facts


def test_an_ineligible_ladder_past_the_cap_is_refused():
    ladder = parse_dtarget(_bench_gen().prism_text(26))
    zero = list(ladder.mult_vector)
    zero[0] = 0
    uneven = list(ladder.mult_vector)
    uneven[0] += 1
    for vector in (zero, uneven):
        t = DTarget(ladder.graph, 8, tuple(vector))
        with pytest.raises(TooLarge, match=r"^\|V\| = 26 exceeds the cut enumeration cap 24$"):
            strengthened_cut_check(t)
        assert t.facts == {}


@pytest.mark.parametrize("n", [26, 28])
def test_is_prime_decides_the_ladder_past_the_cut_cap(n):
    t = parse_dtarget(_bench_gen().prism_text(n))
    verdict = is_prime(t)
    assert verdict.witness_kind == "Conf(4)"
    assert recheck(t, verdict.witness)
    with pytest.raises(TooLarge, match=rf"\|V\| = {n} exceeds the cut enumeration cap 24"):
        min_odd_cut(t)


@pytest.mark.parametrize("kind", ["prism", "antiprism"])
def test_is_prime_decides_160_vertices_within_a_second(kind):
    gen = _bench_gen()
    text = gen.prism_text(160) if kind == "prism" else gen.uniform_text(*gen.antiprism(80), 2)
    t = parse_dtarget(text)
    start = time.perf_counter()
    verdict = is_prime(t)
    assert time.perf_counter() - start < 1.0
    assert strengthened_cut_check(t) is None
    assert verdict.witness_kind == ("Conf(4)" if kind == "prism" else "Conf(3)")
    assert recheck(t, verdict.witness)
