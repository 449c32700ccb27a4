"""Bundled fixtures and the deterministic enumerated corpus."""

from __future__ import annotations

from functools import cache
from itertools import product
from pathlib import Path

import pytest

import oracles
from dtargets.corpus import (
    FIXTURE_NAMES,
    build_corpus,
    enumerate_multiplicities,
    load_fixture,
)
from dtargets.coloring import edge_colour
from dtargets.cuts import is_oddly_connected
from dtargets.errors import DTargetError, TooLarge
from dtargets.planar import DTarget, parse_dtarget, validate

from conftest import FIXTURES
from gadgets import corpus_candidates, corpus_items, unfiltered_corpus


def test_fixture_names_are_the_five():
    assert sorted(FIXTURE_NAMES) == sorted(FIXTURES)


def test_load_fixture_unknown_name():
    with pytest.raises(DTargetError):
        load_fixture("dodecahedron")


def test_enumerate_multiplicities_k4():
    graph = load_fixture("k4").graph
    targets = list(enumerate_multiplicities(graph, 8))
    # Every assignment satisfies the per-vertex sum.
    for t in targets:
        assert t.degree_sums == (8,) * 4
    # The family is closed under the opposite-pair structure: spot checks.
    mults = {t.mult_items for t in targets}
    assert len(mults) == len(targets)  # no duplicates
    canonical = load_fixture("k4")
    assert canonical.mult_items in mults


def test_enumerate_multiplicities_min_mult():
    graph = load_fixture("k4").graph
    all_targets = list(enumerate_multiplicities(graph, 8))
    positive = list(enumerate_multiplicities(graph, 8, min_mult=1))
    assert len(positive) < len(all_targets)
    for t in positive:
        assert all(m >= 1 for _, m in t.mult_items)


@pytest.mark.parametrize("min_mult", (0, 1))
def test_enumeration_equals_brute_force_in_order(min_mult):
    # k4 at d = 4: every assignment of 0..4 per edge, kept when each vertex
    # sums to 4, in ascending lexicographic order.
    graph = load_fixture("k4").graph
    expected = [
        values
        for values in product(range(min_mult, 5), repeat=len(graph.edges))
        if all(
            sum(m for e, m in zip(graph.edges, values) if v in e) == 4
            for v in range(4)
        )
    ]
    got = [
        tuple(m for _, m in t.mult_items)
        for t in enumerate_multiplicities(graph, 4, min_mult=min_mult)
    ]
    assert got == expected and got


@pytest.mark.parametrize("name", FIXTURES)
def test_enumerated_targets_equal_those_built_by_of(name):
    # Targets are built directly from graph.edges; each must be the very
    # target DTarget.of builds from the same assignment.
    graph = load_fixture(name).graph
    count = 0
    for t in enumerate_multiplicities(graph, 8, min_mult=0):
        built = DTarget.of(graph, 8, dict(t.mult_items))
        assert built == t and hash(built) == hash(t)
        assert built.mult_items == t.mult_items
        count += 1
    assert count > 0


def test_enumerate_multiplicities_cap(monkeypatch):
    # The pentagonal prism's 15 edges are under the real cap of 16.
    graph = load_fixture("pentagonal_prism").graph
    monkeypatch.setattr("dtargets.corpus.ENUM_CAP", 10)
    with pytest.raises(TooLarge, match="15 edges exceeds the enumeration cap 10"):
        list(enumerate_multiplicities(graph, 8))


def test_corpus_is_deterministic_and_sized(corpus):
    again = build_corpus()
    assert [item.name for item in corpus] == [item.name for item in again]
    assert [item.target for item in corpus] == [item.target for item in again]
    assert len(corpus) == 213
    assert len(corpus) >= 50


def test_corpus_names_unique_and_canonical_first(corpus):
    names = [item.name for item in corpus]
    assert len(names) == len(set(names))
    for base in FIXTURES:
        with_base = [n for n in names if n.startswith(base + "/")]
        assert with_base, f"no corpus items for {base}"
        assert with_base[0] == f"{base}/canonical"


def test_corpus_items_all_valid_and_oddly_connected(corpus):
    for item in corpus:
        report = validate(item.target)
        assert report.degree_ok and report.euler_ok, item.name
        assert is_oddly_connected(item.target), item.name


def test_corpus_respects_limit_per_base():
    items = build_corpus(limit_per_base=3)
    for base in FIXTURES:
        count = sum(1 for item in items if item.name.startswith(base + "/"))
        assert count <= 3
    # The cap holds for each base's canonical target too.
    assert build_corpus(limit_per_base=0) == []


def test_corpus_filter_off_adds_invalid_targets(corpus):
    unfiltered = unfiltered_corpus(limit_per_base=48)
    assert len(unfiltered) >= len(corpus)
    leaky = [
        item for item in unfiltered if not is_oddly_connected(item.target)
    ]
    assert leaky, "the unfiltered corpus should include filter failures"


@cache
def _kept_alone(base):
    """base's corpus candidates that pass, each validated on a fresh copy
    and checked by the brute-force oracle."""
    kept = []
    for t in corpus_candidates(base):
        fresh = DTarget(t.graph, t.d, t.mult_vector)
        report = validate(fresh)
        if report.degree_ok and report.euler_ok and oracles.oddly_connected(fresh):
            kept.append(t)
    return kept


@pytest.mark.parametrize(
    "bases", [FIXTURE_NAMES, ("cube", "k4"), *((b,) for b in FIXTURE_NAMES)], ids=",".join
)
def test_the_orbit_corpus_equals_each_candidate_judged_alone(bases):
    # build_corpus checks the first candidate of each automorphism orbit and
    # links the rest to it; judging every candidate on its own keeps the same
    # items under the same names at every cap, and each edge map carries the
    # first item's multiplicities onto the linked item's.
    for limit in (1, 2, 7, 48, 1_000_000):
        items = build_corpus(bases, limit)
        alone = [i for base in bases for i in corpus_items(base, _kept_alone(base)[:limit])]
        assert items == alone, limit
        firsts = set()
        for item in items:
            first = item.first
            if first is None:
                assert item.edge_map is None, item.name
                firsts.add(id(item))
                continue
            assert id(first) in firsts and first.name.split("/")[0] == item.name.split("/")[0]
            carried = [0] * len(item.edge_map)
            for i, m in zip(item.edge_map, first.target.mult_vector):
                carried[i] = m
            assert tuple(carried) == item.target.mult_vector, item.name


def test_corpus_single_base():
    items = build_corpus(bases=("k4",), limit_per_base=10)
    assert items
    assert all(item.name.startswith("k4/") for item in items)


@pytest.mark.parametrize(
    "name, d, counts",
    [("petersen", 3, (87, 57, 56)), ("petersen_8", 8, (3_315, 1_539, 1_287))],
)
def test_petersen_controls(name, d, counts):
    # The Petersen graph is not planar, so the theorem says nothing of it:
    # the enumeration, cuts and colouring still answer, and pin the counts of
    # targets, oddly connected targets and colourable targets.  Every
    # colourable target is oddly connected, as a colouring by d perfect
    # matchings makes every odd cut meet each matching.
    path = Path(__file__).parent / "data" / f"{name}.dtarget"
    graph = parse_dtarget(path.read_text()).graph
    targets = list(enumerate_multiplicities(graph, d, min_mult=0))
    odd = [is_oddly_connected(t) for t in targets]
    colourable = [edge_colour(t) is not None for t in targets]
    assert (len(targets), sum(odd), sum(colourable)) == counts
    assert all(o for o, c in zip(odd, colourable) if c)
