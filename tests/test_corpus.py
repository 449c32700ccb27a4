"""Bundled fixtures and the deterministic enumerated corpus."""

from __future__ import annotations

import pytest

from dtargets.corpus import (
    CorpusSpec,
    build_corpus,
    enumerate_multiplicities,
    fixture_names,
    load_fixture,
)
from dtargets.cuts import is_oddly_connected
from dtargets.errors import DTargetError, TooLarge
from dtargets.planar import validate

from conftest import FIXTURES


def test_fixture_names_are_the_five():
    assert sorted(fixture_names()) == sorted(FIXTURES)


def test_load_fixture_unknown_name():
    with pytest.raises(DTargetError):
        load_fixture("dodecahedron")


def test_enumerate_multiplicities_k4():
    graph = load_fixture("k4").graph
    targets = list(enumerate_multiplicities(graph, 8))
    # Every assignment satisfies the per-vertex sum.
    for t in targets:
        for v in range(4):
            assert t.degree_sum(v) == 8
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


def test_enumerate_multiplicities_cap():
    graph = load_fixture("pentagonal_prism").graph
    with pytest.raises(TooLarge):
        list(enumerate_multiplicities(graph, 8, cap_edges=10))


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
    spec = CorpusSpec(limit_per_base=3)
    items = build_corpus(spec)
    for base in FIXTURES:
        count = sum(1 for item in items if item.name.startswith(base + "/"))
        assert count <= 3
    # The cap holds for each base's canonical target too.
    assert build_corpus(CorpusSpec(limit_per_base=0)) == []


def test_corpus_filter_off_adds_invalid_targets(corpus):
    spec = CorpusSpec(require_oddly_connected=False)
    unfiltered = build_corpus(spec)
    assert len(unfiltered) >= len(corpus)
    leaky = [
        item for item in unfiltered if not is_oddly_connected(item.target)
    ]
    assert leaky, "the unfiltered corpus should include filter failures"


def test_corpus_single_base():
    items = build_corpus(CorpusSpec(bases=("k4",), limit_per_base=10))
    assert items
    assert all(item.name.startswith("k4/") for item in items)
