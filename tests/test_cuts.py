"""Odd cuts: cut values, the minimum odd cut, the odd-connectivity test and
the strengthened check, each against the brute-force oracle."""

from __future__ import annotations

import random
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dtargets import cuts
from dtargets.config import is_prime
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
from gadgets import _bench_gen, prism


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
    items = build_corpus(limit_per_base=1000000, require_oddly_connected=False)
    assert len(items) == 2549
    for item in items:
        witnesses = [min_odd_cut(item.target), strengthened_cut_check(item.target)]
        assert all(0 in w.X for w in witnesses if w is not None), item.name


def test_one_odd_cut_pass_per_target(monkeypatch):
    scanned = []
    scan = cuts._scan_odd_cuts

    def counted(targets):
        scanned.extend(targets)
        return scan(targets)

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


def test_the_exhaustive_corpus_runs_one_pass_per_base(monkeypatch):
    batches = []
    scan = cuts._scan_odd_cuts

    def counted(targets):
        batches.append(targets)
        return scan(targets)

    monkeypatch.setattr(cuts, "_scan_odd_cuts", counted)
    items = build_corpus(limit_per_base=1000000)
    assert len(batches) == len(FIXTURES)
    assert [b[0].graph for b in batches] == [load_fixture(n).graph for n in FIXTURES]
    assert sum(map(len, batches)) == 2549 and len(items) == 2527
    scanned = {id(t) for b in batches for t in b}
    assert all(id(item.target) in scanned for item in items)


def _fresh(t):
    return DTarget(t.graph, t.d, t.mult_vector)


@cache
def _mixed_batch(name):
    """A seeded batch on one fixture graph: enumerated d = 8 targets with
    zero multiplicities, then random ones with other d and uneven degree
    sums, and one whose values need two-byte lanes; with each target's
    oracle (minimum witness, strengthened violation)."""
    graph = load_fixture(name).graph
    rng = random.Random(name)
    zeros = list(enumerate_multiplicities(graph, 8, min_mult=0))
    batch = rng.sample(zeros, min(len(zeros), 30))
    for _ in range(30):
        d = rng.choice((1, 2, 3, 5, 8, 13))
        values = [rng.choice((0, 0, 1, 2, 3, d)) for _ in graph.edges]
        batch.append(DTarget(graph, d, tuple(values)))
    # A total multiplicity of 200 needs a lane of 16 bits: 8 hold no guard bit.
    values = [rng.randint(0, 12) for _ in graph.edges]
    values[0] = 200 - sum(values[1:])
    batch.append(DTarget(graph, 8, tuple(values)))
    expected = [
        (oracles.min_odd_cut_witness(t), oracles.strengthened_violation(t)) for t in batch
    ]
    return batch, expected


def _as_oracle(facts):
    least, small = facts
    return (least.value, least.X), None if small is None else (small.value, small.X)


@pytest.mark.parametrize("name", FIXTURES)
def test_a_mixed_batch_matches_the_oracles_and_each_target_alone(name):
    batch, expected = _mixed_batch(name)
    batch = [_fresh(t) for t in batch]
    assert any(m == 0 for t in batch for _, m in t.mult_items)
    assert len({t.d for t in batch}) > 3
    assert any(len(set(t.degree_sums)) > 1 for t in batch)
    for t, facts, want in zip(batch, cuts.odd_cuts_of(batch), expected, strict=True):
        assert _as_oracle(facts) == want
        alone = _fresh(t)
        assert (min_odd_cut(alone), strengthened_cut_check(alone)) == facts
        assert is_oddly_connected(alone) == is_oddly_connected(t) == oracles.oddly_connected(t)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(FIXTURES), data=st.data())
def test_sub_batches_in_any_order_give_the_same_witnesses(name, data):
    batch, expected = _mixed_batch(name)
    picks = data.draw(st.lists(st.integers(0, len(batch) - 1), max_size=12))
    results = cuts.odd_cuts_of([_fresh(batch[i]) for i in picks])
    assert [_as_oracle(r) for r in results] == [expected[i] for i in picks]


def test_a_batch_must_share_one_graph():
    prism_target, k4 = load_fixture("prism"), load_fixture("k4")
    with pytest.raises(DTargetError, match="one graph"):
        cuts.odd_cuts_of([prism_target, k4])
    assert "odd_cuts" not in prism_target.facts
    # Equal graphs built apart have the same edges, so they may share a walk.
    other = load_fixture("prism")
    assert other.graph is not prism_target.graph
    assert cuts.odd_cuts_of([prism_target, other]) == [cuts.odd_cuts_of([other])[0]] * 2


def test_an_empty_batch_has_no_facts(monkeypatch):
    monkeypatch.setattr(cuts, "_scan_odd_cuts", None)
    assert cuts.odd_cuts_of([]) == []


def test_odd_vertex_count_refused():
    triangle = RotationGraph(((1, 2), (2, 0), (0, 1)))
    t = DTarget.of(triangle, 2, {(0, 1): 1, (1, 2): 1, (0, 2): 1})
    with pytest.raises(OddVertexCount):
        cuts.odd_cuts_of([t])
    with pytest.raises(OddVertexCount):
        min_odd_cut(t)
    assert t.facts == {}


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
