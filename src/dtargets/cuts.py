"""Odd-set cuts of a target.

All cut values are multiplicity-weighted: m(delta(X)) sums m(e) over the
edges with exactly one end in X.  The odd-cut facts of a target come from one
exhaustive pass over its odd subsets, with the complement symmetry
m(delta(X)) = m(delta(V \\ X)) used to fix vertex 0 outside the enumerated
sets.  The pass runs at most once per target (its result is kept in
``DTarget.facts``) and serves three views: ``min_odd_cut``,
``is_oddly_connected`` and ``strengthened_cut_check``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OddVertexCount, TooLarge
from .planar import DTarget

DEFAULT_CUT_CAP = 24


@dataclass(frozen=True)
class CutWitness:
    X: tuple[int, ...]
    value: int
    parity: int


def m_delta(t: DTarget, X) -> int:
    """Multiplicity of the cut around vertex set X."""
    inside = frozenset(X)
    total = 0
    for (u, v), m in t.mult_items:
        if (u in inside) != (v in inside):
            total += m
    return total


def _check_cut_preconditions(t: DTarget, cap: int) -> None:
    n = t.vertex_count
    if n % 2 != 0:
        raise OddVertexCount(f"|V| = {n} is odd; odd-cut analysis needs it even")
    if n > cap:
        raise TooLarge(f"|V| = {n} exceeds the cut enumeration cap {cap}")


def _scan_odd_cuts(t: DTarget) -> tuple[CutWitness, CutWitness | None]:
    """The one pass over every odd X, in Gray-code order with vertex 0 fixed
    outside (each X stands for itself and its complement).

    Returns the minimum odd cut and the least odd cut with both sides larger
    than one and value below d + 2 (None if there is none), each ties broken
    by lexicographically least X over the sets and their complements.
    """
    n = t.vertex_count
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), m in t.mult_items:
        adj[u].append((v, m))
        adj[v].append((u, m))
    # Each bound starts at the largest value it may take, with no masks yet;
    # every cut is at most the total multiplicity.
    best, best_masks = sum(m for _, m in t.mult_items), []
    small, small_masks = t.d + 1, []
    in_X = [False] * n
    value = size = mask = 0
    for counter in range(1, 1 << (n - 1)):
        flip = (counter & -counter).bit_length()
        entering = not in_X[flip]
        in_X[flip] = entering
        mask ^= 1 << flip
        size += 1 if entering else -1
        for u, m in adj[flip]:
            # Every edge at the flipped vertex toggles between crossing and
            # not: it crosses now iff u lies on the other side.
            value += -m if in_X[u] == entering else m
        if not size & 1:
            continue
        if value <= best:
            if value < best:
                best, best_masks = value, []
            best_masks.append(mask)
        if value <= small and 1 < size < n - 1:
            if value < small:
                small, small_masks = value, []
            small_masks.append(mask)
    return (
        _least_witness(best, best_masks, n),
        _least_witness(small, small_masks, n) if small_masks else None,
    )


def _least_witness(value: int, masks: list[int], n: int) -> CutWitness:
    """The witness of value whose X is lexicographically least among the
    masks and their complements."""
    full = (1 << n) - 1
    X = min(
        tuple(v for v in range(n) if side >> v & 1)
        for mask in masks
        for side in (mask, full ^ mask)
    )
    return CutWitness(X=X, value=value, parity=len(X) % 2)


def _odd_cuts(t: DTarget, cap: int) -> tuple[CutWitness, CutWitness | None]:
    _check_cut_preconditions(t, cap)
    if "odd_cuts" not in t.facts:
        t.facts["odd_cuts"] = _scan_odd_cuts(t)
    return t.facts["odd_cuts"]


def min_odd_cut(t: DTarget, cap: int = DEFAULT_CUT_CAP) -> CutWitness:
    """The minimum-value odd cut; ties broken by lexicographically least X.

    Both an enumerated set and its complement witness the same value, so the
    tie-break considers both.
    """
    return _odd_cuts(t, cap)[0]


def is_oddly_connected(t: DTarget, cap: int = DEFAULT_CUT_CAP) -> bool:
    """True iff every odd vertex subset has cut value at least d."""
    return _odd_cuts(t, cap)[0].value >= t.d


def strengthened_cut_check(t: DTarget, cap: int = DEFAULT_CUT_CAP) -> CutWitness | None:
    """None if every odd X with both sides larger than one has m(delta(X)) >= d+2.

    Otherwise the violating witness, minimal by (value, lexicographic X).
    """
    return _odd_cuts(t, cap)[1]
