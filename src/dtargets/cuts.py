"""Odd-set cuts of a target.

All cut values are multiplicity-weighted: m(delta(X)) sums m(e) over the
edges with exactly one end in X.  The odd-cut facts come from one walk over
the odd X without vertex 0, which by the complement symmetry stand for every
odd set: Y runs over the subsets of {2, ..., n-1} in Gray-code order and X is
Y, or Y with vertex 1 added when |Y| is even.  ``odd_cuts_of`` walks once for
a batch of targets on one graph, their values in one int with a lane of w
bits per target, so a step costs a few int operations for the whole batch.
``planar.facts`` keeps each target's result under ``"odd_cuts"`` for the
three views, each a batch of one: ``min_odd_cut``, ``is_oddly_connected``
and ``strengthened_cut_check``.  Past ``CUT_CAP`` vertices the walk is
refused with ``TooLarge``; the cap is a constant, not an option.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DTargetError, OddVertexCount, TooLarge
from .planar import DTarget, facts

CUT_CAP = 24


@dataclass(frozen=True)
class CutWitness:
    X: tuple[int, ...]
    value: int


def m_delta(t: DTarget, X) -> int:
    """Multiplicity of the cut around vertex set X, given as distinct vertices."""
    X = tuple(X)
    inside = frozenset(X)
    if len(inside) < len(X) or not all(v in range(t.vertex_count) for v in inside):
        raise DTargetError(f"{X} is not a set of distinct vertices 0..{t.vertex_count - 1}")
    total = 0
    for (u, v), m in zip(t.graph.edges, t.mult_vector):
        if (u in inside) != (v in inside):
            total += m
    return total


def _lane_width(top: int) -> int:
    """Bits per lane for values up to top: a multiple of 8, top bit free for the guard."""
    return 8 * (top.bit_length() // 8 + 1)


def _ones(count: int, w: int) -> int:  # a 1 in each of count w-bit lanes
    return ((1 << count * w) - 1) // ((1 << w) - 1)


def _pack(values, w: int) -> int:
    """One int holding values[i] in bits i*w to i*w + w - 1 (w a multiple of 8)."""
    if w == 8:  # one byte a lane: bytes() packs it without a call per value
        return int.from_bytes(bytes(values), "little")
    return int.from_bytes(b"".join(v.to_bytes(w // 8, "little") for v in values), "little")


def _scan_odd_cuts(targets: list[DTarget]) -> list[tuple[CutWitness, CutWitness | None]]:
    """The one walk for targets on one graph: for each, the minimum odd cut
    and the least odd cut with both sides larger than one and value below
    d + 2 (None if there is none), each tie broken by lexicographically least
    X over the sets and their complements.

    Lane i of ``X`` holds target i's m(delta(X)) below its top (guard) bit,
    as no value exceeds the total multiplicity.  A limit packs 2**(w-1) + b_i
    per lane, so its difference with ``X`` keeps the guard bit exactly where
    the value is at most b_i, with no borrow between lanes.
    """
    n = targets[0].vertex_count
    top = max(max(sum(t.degree_sums) // 2, t.d + 1) for t in targets)
    w = _lane_width(top)
    lane = (1 << w) - 1
    guards = _ones(len(targets), w) << (w - 1)
    # Per vertex: its packed degree sum, its neighbours that can be in Y (by
    # bit, with twice the packed edge) and twice its packed edge to vertex 1.
    degree, inner, to_1 = [0] * n, [[] for _ in range(n)], [0] * n
    for (u, v), column in zip(targets[0].graph.edges, zip(*(t.mult_vector for t in targets))):
        m = _pack(column, w)
        degree[u] += m
        degree[v] += m
        if u >= 2:
            inner[u].append((1 << v, 2 * m))
            inner[v].append((1 << u, 2 * m))
        elif u == 1:
            to_1[v] = 2 * m
    table = [(1 << f, degree[f], inner[f], to_1[f]) for f in range(n)]
    # Per bound (minimum, strengthened check) and lane: the best value so far
    # and the sets reaching it.  V minus 0 has value degree_sum(0) and (0,) is
    # the least set, so the minimum collects only values below that at first.
    best = [[t.degree_sums[0] for t in targets], [t.d + 2 for t in targets]]
    masks = [[[] for _ in targets], [[] for _ in targets]]
    limits = [_pack([(1 << (w - 1)) + b - 1 for b in bs], w) for bs in best]

    def collect(k: int, hits: int, X: int, x: int) -> None:
        while hits:
            low = hits & -hits
            hits ^= low
            i = low.bit_length() // w - 1
            v = X >> (i * w) & lane
            if v == best[k][i]:
                masks[k][i].append(x)
            else:
                limits[k] += (v - best[k][i] + (not masks[k][i])) << (i * w)
                best[k][i], masks[k][i] = v, [x]

    one = degree[1]
    value = y_to_1 = Y = 0
    for counter in range(1 << (n - 2)):
        if counter:
            bit, step, nbrs, f_to_1 = table[(counter & -counter).bit_length() + 1]
            Y ^= bit
            for other, twice in nbrs:
                if Y & other:
                    step -= twice
            if Y & bit:
                value += step
                y_to_1 += f_to_1
            else:
                value -= step
                y_to_1 -= f_to_1
        # Y is the Gray code of counter, so |Y| has the parity of counter.
        if counter & 1:
            X, x = value, Y
        else:
            X, x = value + one - y_to_1, Y | 2
        hits = (limits[0] - X) & guards
        if hits:
            collect(0, hits, X, x)
        hits = (limits[1] - X) & guards
        if hits and 1 < x.bit_count() < n - 1:
            collect(1, hits, X, x)
    return [
        (_least_witness(v, ms, n) or CutWitness(X=(0,), value=v), _least_witness(s, ss, n))
        for v, ms, s, ss in zip(best[0], masks[0], best[1], masks[1])
    ]


def _least_witness(value: int, masks: list[int], n: int) -> CutWitness | None:
    """The witness of value whose X is lexicographically least among the
    masks and their complements; None if there are no masks.

    No mask holds vertex 0, so every complement does and comes before every
    mask; the least X is the least complement, each built once.
    """
    if not masks:
        return None
    full = (1 << n) - 1
    X = min([v for v in range(n) if side >> v & 1] for side in (full ^ m for m in masks))
    return CutWitness(X=tuple(X), value=value)


def odd_cuts_of(targets: list[DTarget]) -> list[tuple[CutWitness, CutWitness | None]]:
    """The odd-cut facts (minimum odd cut, strengthened-check violation or
    None) of targets on one graph, in order; those not yet known come from
    one walk.  The refusals come first, so they never depend on what is
    already stored."""
    if not targets:
        return []
    graph = targets[0].graph
    if any(t.graph != graph for t in targets):
        raise DTargetError("odd cuts are computed for targets on one graph only")
    n = graph.vertex_count
    if n % 2 != 0:
        raise OddVertexCount(f"|V| = {n} is odd; odd-cut analysis needs it even")
    if n > CUT_CAP:
        raise TooLarge(f"|V| = {n} exceeds the cut enumeration cap {CUT_CAP}")
    return facts(targets, "odd_cuts", _scan_odd_cuts)


def min_odd_cut(t: DTarget) -> CutWitness:
    """The minimum-value odd cut; ties broken by lexicographically least X.

    Both an enumerated set and its complement witness the same value, so the
    tie-break considers both.
    """
    return odd_cuts_of([t])[0][0]


def is_oddly_connected(t: DTarget) -> bool:
    """True iff every odd vertex subset has cut value at least d."""
    return odd_cuts_of([t])[0][0].value >= t.d


def strengthened_cut_check(t: DTarget) -> CutWitness | None:
    """None if every odd X with both sides larger than one has m(delta(X)) >= d+2.

    Otherwise the violating witness, minimal by (value, lexicographic X).
    """
    return odd_cuts_of([t])[0][1]
