"""Odd cuts: cut values, the minimum odd cut, the odd-connectivity test and
the strengthened check, each against the brute-force oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dtargets import cuts
from dtargets.config import is_prime
from dtargets.corpus import enumerate_multiplicities, load_fixture
from dtargets.cuts import (
    is_oddly_connected,
    m_delta,
    min_odd_cut,
    strengthened_cut_check,
)
from dtargets.errors import TooLarge

from conftest import FIXTURES
from gadgets import prism


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
