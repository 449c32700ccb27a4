"""Symmetry: each pattern's declared symmetries, and answers that do not
depend on how the vertices are named or which way the embedding is drawn."""

from __future__ import annotations

import random
from collections import Counter
from itertools import groupby

import pytest

from dtargets import config
from dtargets.coloring import edge_colour
from dtargets.config import detect_all, door_table, is_prime
from dtargets.corpus import FIXTURE_NAMES, build_corpus
from dtargets.cuts import min_odd_cut, odd_cuts_of, strengthened_cut_check
from dtargets.discharge import charge_report

from gadgets import relabelled, walk_targets

# Each symmetric pattern's symmetries, read off its definition in the paper
# and written here as label maps that generate them: relabelled so, the
# pattern's structure and conditions read the same.
#   Conf 1: triangle uvw with deg(u) = deg(v) = 3: u and v swap.
#   Conf 5: triangles uvw and uwx, m+(uv) + m(uw) + m+(wx) >= 7: the
#     triangles swap, u with w and v with x.
#   Conf 6: square uvwx, m+(uv) + m+(wx) >= 7: uv and wx swap, and the
#     reflection through the middles of uv and wx fixes both.
#   Conf 7: triangle uvw, m+(uv) + m+(uw) >= 7: v and w swap.
#   Conf 8: triangle uvw, m(uv) = 3 and m(uw) = m(vw) = 2: u and v swap.
#   Conf 9: triangle uvw, deg(u) >= 4, every m = 2, the far regions of uv and
#     uw: v and w swap.
# Every other pattern names its vertices by roles no relabelling keeps.
GENERATORS = {
    1: ("v u w",),
    5: ("w x u v",),
    6: ("w x u v", "v u x w"),
    7: ("u w v",),
    8: ("v u w",),
    9: ("u w v",),
}


def _group(labels, generators) -> set[tuple[int, ...]]:
    """The permutations of label positions that the label maps generate."""
    gens = [tuple(labels.index(name) for name in g.split()) for g in generators]
    group, frontier = set(), [tuple(range(len(labels)))]
    while frontier:
        p = frontier.pop()
        if p not in group:
            group.add(p)
            frontier += [tuple(p[i] for i in g) for g in gens]
    return group


def test_each_pattern_declares_the_symmetries_of_its_definition():
    for k, pattern in config._PATTERNS.items():
        identity = tuple(range(len(pattern.labels)))
        declared = pattern.symmetries
        assert identity not in declared and len(set(declared)) == len(declared), k
        assert {identity, *declared} == _group(pattern.labels, GENERATORS.get(k, ())), k


def test_declared_symmetries_form_a_group():
    # Without closure, "least of its orbit" could keep two labellings of one
    # orbit: the least image under the declared maps need not be the least
    # of the orbit.
    for k, pattern in config._PATTERNS.items():
        n = len(pattern.labels)
        group = {tuple(range(n)), *pattern.symmetries}
        assert all(sorted(s) == list(range(n)) for s in group), k
        assert {tuple(a[i] for i in b) for a in group for b in group} == group, k


def _exhaustive_targets(bases=FIXTURE_NAMES):
    """Every d = 8 target with all m >= 1 that validates on the bases, each
    base's targets on one graph."""
    items = build_corpus(bases, limit_per_base=1_000_000, require_oddly_connected=False)
    return [item.target for item in items]


def test_declared_images_get_the_same_verdict():
    # Every placement of a symmetric pattern and each of its images under a
    # declared symmetry, found among the generator's placements by their
    # permuted names, are judged alike on every target: so keeping one
    # labelling per orbit loses no match.  The image of a Conf 5 placement
    # names its two triangles the other way round; reversing the region ids
    # swaps them and leaves a one-region placement as it is.
    targets = _exhaustive_targets() + list(walk_targets())
    symmetric = [k for k, pattern in config._PATTERNS.items() if pattern.symmetries]
    assert symmetric == sorted(GENERATORS)
    compared = 0
    for graph, group in groupby(targets, key=lambda t: t.graph):
        judged = []
        for k in symmetric:
            pattern = config._PATTERNS[k]
            placements, split = config._placements(graph, pattern), -len(pattern.labels)
            keys = {
                (p[split:], tuple(r.id for r in p[:split])): i for i, p in enumerate(placements)
            }
            judges = [pattern.compile(graph, *p) for p in placements]
            images = [
                (i, keys[tuple(vs[j] for j in s), ids[::-1]])
                for (vs, ids), i in keys.items()
                for s in pattern.symmetries
            ]
            judged.append((judges, images))
        for t in group:
            doors, small = door_table(t)
            for judges, images in judged:
                hit = [j is not None and j(t.mult_vector, small, doors) is not None for j in judges]
                for i, image in images:
                    assert hit[i] == hit[image], (t, i, image)
                compared += len(images)
    assert compared == 468_376


def _answers(t):
    """What the package says of a target that no vertex name can change."""
    strengthened = strengthened_cut_check(t)
    return (
        min_odd_cut(t).value,
        None if strengthened is None else strengthened.value,
        is_prime(t).witness_kind,
        sorted(Counter(m.conf_index for m in detect_all(t)).items()),
        edge_colour(t) is not None,
        sorted((r.length, r.alpha, r.beta, r.gamma) for r in charge_report(t).regions),
    )


@pytest.mark.parametrize("base", FIXTURE_NAMES)
def test_relabelled_and_mirrored_copies_answer_alike(base):
    # Two copies of each base graph, built once: its vertices renamed at
    # random and each rotation list started at a random neighbour, the
    # second copy also mirrored.  Every exhaustive target of the base, carried
    # onto both, gets the same cut values, witness kind, per-pattern match
    # counts, colourability and charge rows: one representative per orbit,
    # whatever the labels.
    targets = _exhaustive_targets((base,))
    rng = random.Random(FIXTURE_NAMES.index(base))
    carries = [relabelled(targets[0].graph, rng, mirror) for mirror in (False, True)]
    carried = [[carry(t) for t in targets] for carry in carries]
    for family in (targets, *carried):
        odd_cuts_of(family)
    for t, *images in zip(targets, *carried):
        answers = _answers(t)
        for image in images:
            assert _answers(image) == answers, (t, image)
