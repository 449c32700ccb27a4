"""Acceptance sweep: one test per headline property, run over the corpus.

Each test is self-contained and reports a single pass/fail line under
``pytest -v``.  Expected values come from the independent brute-force
oracles in ``oracles.py`` or from frozen hand evaluations.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from dtargets.coloring import edge_colour, verify_colouring
from dtargets.config import (
    ConfigMatch,
    CutViolation,
    TooFewVertices,
    ZeroMultEdge,
    detect,
    is_prime,
    recheck,
)
from dtargets.corpus import build_corpus, load_fixture
from dtargets.cuts import is_oddly_connected
from dtargets.discharge import RegionClass, charge_report
from dtargets.planar import serialize_dtarget
from dtargets.switching import (
    is_smaller,
    score_sequence,
    score_smaller,
    switch_square,
)

import oracles
from gadgets import prism


# ---------------------------------------------------------------------------
# 1. Charge identities hold corpus-wide
# ---------------------------------------------------------------------------


def test_criterion_1_charge_identities_hold_corpus_wide(corpus):
    assert len(corpus) >= 50
    slowest = 0.0
    for item in corpus:
        started = time.perf_counter()
        report = charge_report(item.target)
        elapsed = time.perf_counter() - started
        slowest = max(slowest, elapsed)
        assert report.alpha_total == Fraction(16), item.name
        assert report.beta_total == Fraction(0), item.name
        assert report.gamma_total == Fraction(0), item.name
        assert report.grand_total == Fraction(16), item.name
    assert slowest < 1.0, f"slowest charge report took {slowest:.3f}s"


# ---------------------------------------------------------------------------
# 2. No corpus target is prime; every witness re-checks independently
# ---------------------------------------------------------------------------


def _witness_reconfirms(t, witness) -> bool:
    """Re-evaluate a non-primality witness from first principles."""
    if isinstance(witness, ConfigMatch):
        return recheck(t, witness) and oracles.conf_matches(t, witness.conf_index)
    if isinstance(witness, ZeroMultEdge):
        return t.m(*witness.edge) == 0
    if isinstance(witness, TooFewVertices):
        return t.vertex_count == witness.vertex_count and t.vertex_count < 6
    if isinstance(witness, CutViolation):
        X = witness.witness.X
        value = oracles.cut_value(t, X)
        return (
            len(X) % 2 == 1
            and value == witness.witness.value
            and value < 10
            and 1 < len(X) < t.vertex_count - 1
        )
    return False


def test_criterion_2_no_prime_target_in_corpus_and_witnesses_recheck(corpus):
    started = time.perf_counter()
    primes = []
    for item in corpus:
        verdict = is_prime(item.target)
        if verdict.is_prime:
            primes.append(item.name)
            continue
        assert verdict.witness is not None, item.name
        assert _witness_reconfirms(item.target, verdict.witness), (
            item.name,
            verdict.witness_kind,
        )
    elapsed = time.perf_counter() - started
    assert primes == []
    assert elapsed < 60.0, f"corpus sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. Every oddly-connected corpus target is colourable
# ---------------------------------------------------------------------------


def _matching_counts(colouring) -> list[int]:
    return sorted(Counter(colouring.matchings).values())


def test_criterion_3_every_oddly_connected_target_is_colourable(corpus):
    slowest = 0.0
    for item in corpus:
        assert is_oddly_connected(item.target), item.name
        started = time.perf_counter()
        colouring = edge_colour(item.target)
        elapsed = time.perf_counter() - started
        slowest = max(slowest, elapsed)
        assert colouring is not None, item.name
        assert verify_colouring(item.target, colouring), item.name
    assert slowest < 10.0, f"slowest colouring took {slowest:.3f}s"

    # Known positive instances with frozen matching-repetition profiles.
    k4 = edge_colour(load_fixture("k4"))
    assert _matching_counts(k4) == [2, 2, 4]
    prism24 = edge_colour(load_fixture("prism"))
    assert _matching_counts(prism24) == [2, 2, 2, 2]
    assert edge_colour(load_fixture("octahedron")) is not None

    # Known negative: fails the odd-cut filter, hence absent from the corpus.
    bad = prism(3, 2)
    assert not is_oddly_connected(bad)
    bad_text = serialize_dtarget(bad)
    assert all(serialize_dtarget(item.target) != bad_text for item in corpus)


# ---------------------------------------------------------------------------
# 4. Colourability implies the odd-cut bound, filter off
# ---------------------------------------------------------------------------


def test_criterion_4_colourability_implies_odd_cut_bound(corpus):
    unfiltered = build_corpus(require_oddly_connected=False)
    assert len(unfiltered) >= len(corpus)
    seen_filter_failure = False
    for item in unfiltered:
        oddly = is_oddly_connected(item.target)
        seen_filter_failure = seen_filter_failure or not oddly
        colouring = edge_colour(item.target)
        if colouring is not None:
            assert oddly, item.name

    # The implication must not hold vacuously.
    assert seen_filter_failure

    # The whole degree-sum-8 prism family, including members the corpus
    # enumeration never reaches.
    for a in range(5):
        t = prism(a, 8 - 2 * a)
        if edge_colour(t) is not None:
            assert is_oddly_connected(t), (a, 8 - 2 * a)


# ---------------------------------------------------------------------------
# 5. Worked charge regressions
# ---------------------------------------------------------------------------


def test_criterion_5_worked_charge_regressions():
    report = charge_report(load_fixture("prism"))
    for rc in report.regions:
        assert rc.beta == 0
        if rc.length == 3:
            assert rc.alpha == 2
            assert rc.gamma == Fraction(-3)
            assert rc.total == Fraction(-1)
        else:
            assert rc.length == 4
            assert rc.alpha == 4
            assert rc.gamma == Fraction(2)
            assert rc.total == Fraction(6)
    totals = sorted(rc.total for rc in report.regions)
    assert totals == [Fraction(-1), Fraction(-1), Fraction(6), Fraction(6), Fraction(6)]
    assert sum(totals) == Fraction(16)

    octa = charge_report(load_fixture("octahedron"))
    for rc in octa.regions:
        assert rc.region_class is RegionClass.TRIANGLE_TOUGH
        assert rc.beta == 0
        assert rc.gamma == 0
        assert rc.total == Fraction(2)


# ---------------------------------------------------------------------------
# 6. Detectors agree with the brute-force matchers
# ---------------------------------------------------------------------------


def test_criterion_6_detectors_agree_with_brute_force(corpus):
    disagreements = []
    for item in corpus:
        assert item.target.vertex_count <= 12
        for k in range(1, 20):
            fast = bool(detect(item.target, k))
            slow = oracles.conf_matches(item.target, k)
            if fast != slow:
                disagreements.append((item.name, k, fast, slow))
    assert disagreements == []


# ---------------------------------------------------------------------------
# 7. Switching invariants over 1,000 random applicable moves
# ---------------------------------------------------------------------------


def _directed_four_cycles(t):
    cycles = []
    nbrs = {v: set(t.graph.rotations[v]) for v in range(t.vertex_count)}
    for u in range(t.vertex_count):
        for v in nbrs[u]:
            for w in nbrs[v] - {u}:
                for x in nbrs[w] - {u, v}:
                    if u in nbrs[x]:
                        cycles.append((u, v, w, x))
    return cycles


def _odd_cut_deltas(t, u, v, w, x):
    """Exact per-cut change: only the four cycle edges move, each by one."""
    signed = [((u, v), -1), ((v, w), +1), ((w, x), -1), ((u, x), +1)]
    for X in oracles.odd_subsets(t.vertex_count):
        inside = set(X)
        delta = sum(
            sign for (a, b), sign in signed if (a in inside) != (b in inside)
        )
        yield X, delta


def test_criterion_7_switch_invariants_hold_over_random_moves(corpus):
    rng = random.Random(77003)
    cycle_cache = {}
    applied = 0
    attempts = 0
    while applied < 1000:
        attempts += 1
        assert attempts < 20000, "could not find enough applicable switches"
        item = rng.choice(corpus)
        base = item.name.split("/")[0]
        if base not in cycle_cache:
            cycle_cache[base] = _directed_four_cycles(item.target)
        cycles = cycle_cache[base]
        if not cycles:
            continue
        u, v, w, x = rng.choice(cycles)
        t = item.target
        if t.m(u, v) < 1 or t.m(w, x) < 1:
            continue
        switched = switch_square(t, u, v, w, x)
        applied += 1

        # Degree sums are preserved exactly at every vertex.
        assert switched.degree_sums == t.degree_sums

        # Every enumerated odd-cut value moves by at most 2.
        for X, delta in _odd_cut_deltas(t, u, v, w, x):
            assert abs(delta) <= 2, (item.name, (u, v, w, x), X)

        # Spot-check the per-cut delta against full recomputation.
        if applied % 100 == 0:
            for X, delta in _odd_cut_deltas(t, u, v, w, x):
                before = oracles.cut_value(t, X)
                after = oracles.cut_value(switched, X)
                assert after - before == delta

        # The reverse traversal undoes the move bit-exactly.
        restored = switch_square(switched, u, x, w, v)
        assert restored == t
        assert serialize_dtarget(restored) == serialize_dtarget(t)
    assert applied == 1000


# ---------------------------------------------------------------------------
# 8. The score order is a strict order matching the oracle
# ---------------------------------------------------------------------------


def test_criterion_8_score_order_is_a_strict_order(corpus):
    rng = random.Random(41117)
    entries = [
        (rng.randint(4, 30), tuple(rng.randint(0, 6) for _ in range(9)))
        for _ in range(180)
    ]
    # Force duplicates so equality paths are exercised.
    entries += [entries[rng.randrange(len(entries))] for _ in range(20)]
    assert len(entries) == 200

    n = len(entries)
    rows = [0] * n
    for a in range(n):
        va, sa = entries[a]
        for b in range(n):
            vb, sb = entries[b]
            lt = score_smaller(va, sa, vb, sb)
            assert lt == oracles.smaller(va, sa, vb, sb), (entries[a], entries[b])
            if lt:
                rows[a] |= 1 << b

    for a in range(n):
        assert not rows[a] >> a & 1, "order must be irreflexive"
        for b in range(n):
            if rows[a] >> b & 1:
                assert not rows[b] >> a & 1, "order must be asymmetric"
                # Transitivity: everything below b is below a.
                assert rows[b] & ~rows[a] == 0, "order must be transitive"

    # Clause precedence on hand-built cases.
    assert score_smaller(5, (9,) * 9, 6, (0,) * 9)  # vertex count dominates
    assert not score_smaller(6, (0,) * 9, 5, (9,) * 9)
    a_seq = (0, 0, 0, 0, 3, 1, 1, 1, 1)
    b_seq = (5, 5, 5, 5, 2, 1, 1, 1, 1)
    assert score_smaller(10, a_seq, 10, b_seq)  # first difference from the top
    assert not score_smaller(10, b_seq, 10, a_seq)
    assert score_smaller(10, (1, 2, 3, 4, 5, 6, 7, 8, 9), 10, (2, 2, 3, 4, 5, 6, 7, 8, 9))
    assert not score_smaller(10, a_seq, 10, a_seq)

    # The target-level comparison is irreflexive too.
    for item in corpus[:10]:
        assert not is_smaller(item.target, item.target)
    with pytest.raises(Exception):
        score_smaller(5, (1, 2, 3), 5, (1, 2, 3, 4))
