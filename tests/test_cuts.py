"""Odd cuts, bonds, cocycles, and the four-property cocycle search."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dtargets import cuts
from dtargets.config import is_prime
from dtargets.corpus import enumerate_multiplicities, load_fixture
from dtargets.cuts import (
    bond_decomposition,
    cocycle_from,
    find_guenin_cocycles,
    is_bond,
    is_oddly_connected,
    m_delta,
    min_odd_cut,
    strengthened_cut_check,
    validate_guenin_cocycle,
)
from dtargets.errors import BadColouring, NotABond, TooLarge
from dtargets.coloring import EdgeColouring

from conftest import FIXTURES
from gadgets import GUENIN_PATH, guenin_pentaprism, prism


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
    copy = t.with_mult(t.mult)
    assert copy == t
    assert min_odd_cut(copy) == witness
    assert len(scanned) == 2 and scanned[1] is copy


def test_cap_enforced():
    t = load_fixture("prism")
    with pytest.raises(TooLarge):
        min_odd_cut(t, cap=4)


def test_is_bond_and_decomposition():
    t = load_fixture("prism")
    assert is_bond(t, (0, 1, 2))
    assert is_bond(t, (0,))
    # 0 and 5 induce no edge, so delta({0, 5}) is a union of two bonds.
    assert not is_bond(t, (0, 5))
    parts = bond_decomposition(t, (0, 5))
    assert sorted(sorted(p) for p in parts) == [[0], [5]]


def test_cocycle_from_bond_orders_dual_cycle():
    t = load_fixture("prism")
    cocycle = cocycle_from(t, (0, 1, 2))
    assert set(cocycle.edges) == {(0, 3), (1, 4), (2, 5)}
    assert sorted(cocycle.witness_X) == [0, 1, 2]
    # Consecutive cocycle edges share a region.
    faces = t.graph.faces
    for i, e in enumerate(cocycle.edges):
        f = cocycle.edges[(i + 1) % len(cocycle.edges)]
        assert any(
            e in r.edge_set and f in r.edge_set for r in faces
        ), f"{e} and {f} do not share a region"


def test_cocycle_from_non_bond_raises():
    t = load_fixture("prism")
    with pytest.raises(NotABond):
        cocycle_from(t, (0, 5))


def test_guenin_search_finds_the_vertical_cut():
    target, colouring = guenin_pentaprism()
    results = find_guenin_cocycles(target, colouring, GUENIN_PATH, xy_in_base=True)
    assert sorted(results.keys()) == list(range(8))
    found = {i: q for i, q in results.items() if q is not None}
    assert list(found.keys()) == [0]
    cocycle = found[0]
    assert sorted(cocycle.witness_X) == [0, 1, 2, 3, 4]
    assert cocycle.edge_set == frozenset({(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)})
    verdict = validate_guenin_cocycle(target, colouring, 0, cocycle, GUENIN_PATH)
    assert verdict.ok
    assert verdict.meets_others_once
    assert verdict.meets_chosen_five
    assert verdict.is_odd_cut
    assert verdict.path_pattern


def test_guenin_search_excludes_first_matching_containing_xy():
    target, colouring = guenin_pentaprism()
    results = find_guenin_cocycles(target, colouring, GUENIN_PATH, xy_in_base=False)
    # (0, 5) first appears in matching 0, the only index with a cocycle.
    assert sorted(results.keys()) == list(range(1, 8))
    assert all(q is None for q in results.values())


def test_guenin_validator_rejects_bad_colouring():
    target, colouring = guenin_pentaprism()
    wrong = EdgeColouring(matchings=colouring.matchings[:4])
    cocycle = cocycle_from(target, (0, 1, 2, 3, 4))
    with pytest.raises(BadColouring):
        validate_guenin_cocycle(target, wrong, 0, cocycle, GUENIN_PATH)


def test_guenin_verdict_fields_fail_individually():
    target, colouring = guenin_pentaprism()
    # A one-vertex cut meets the path pattern test but not the others.
    single = cocycle_from(target, (2,))
    verdict = validate_guenin_cocycle(target, colouring, 0, single, GUENIN_PATH)
    assert not verdict.ok
    assert verdict.is_odd_cut


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
