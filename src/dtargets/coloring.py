"""Exact d-edge-colouring: d perfect matchings covering each edge m(e) times.

The solver searches nondecreasing sequences of perfect matchings of the
target's support (the edges with m(e) > 0), taken in lexicographic order.
Each level places one matching at or after the previous one that fits the
residual: every edge it uses still has residual multiplicity at least 1.
The first complete sequence found is the lexicographically least, which is
the colouring whose count vector over the matchings is lexicographically
greatest.

A target whose degree sums are not all d is not colourable, since d
perfect matchings cover every vertex d times; it is answered at the root.
Otherwise each placed matching lowers every vertex's residual sum by one,
so no residual edge ever exceeds the k matchings still to place.  A node
is refuted when some positive residual edge lies in no fitting later
matching, or when some triangle X has residual m(delta(X)) < k: each of
the k remaining perfect matchings crosses that odd cut at least once
(Edmonds' odd-set inequality).  Triangles are the 3-cycles of the graph,
not its faces, so a graph whose faces cannot be traced is still searched.
The frame stack, one frame per placed matching, is the search's whole state.

The residual (one lane per graph edge) and the slacks m(delta(X)) - k (one
lane per triangle) are each one int of w-bit lanes under a guard bit, in
the lane format of ``cuts``: placing a matching is one subtraction per int,
an edge's residual is 0 where its guard clears on subtracting 1, and a slack
is negative where its guard is gone.  A support's matchings, as lane packs
listed breadth-first and sorted back into lexicographic order, are a fact of
the graph kept by ``planar.fact`` under w and the support's zero set, so
targets on one graph and lane width share them.  A support with more than
``MATCHING_LIMIT`` perfect matchings is refused.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cuts import _lane_width, _ones, _pack
from .errors import OddVertexCount, TooLarge
from .planar import DTarget, Edge, RotationGraph, fact

MATCHING_LIMIT = 2**14  # the most perfect matchings one support's tables hold

Matching = tuple[Edge, ...]


@dataclass(frozen=True)
class EdgeColouring:
    """A list of d perfect matchings; edge e must appear in exactly m(e) of them."""

    matchings: tuple[Matching, ...]


def _width(t: DTarget) -> int:
    """The search's lane width: a residual lane holds at most the largest
    multiplicity, and a slack lane, once the degree sums are d, at most 2d."""
    return _lane_width(max(max(t.mult_vector, default=0), 2 * t.d))


def _refuse(t: DTarget, cap: int | None) -> None:
    # The refusals depend on each call's cap, so they come before any lookup.
    n = t.vertex_count
    if n % 2 != 0:
        raise OddVertexCount(f"|V| = {n} is odd; no perfect matchings exist")
    if cap is not None and n > cap:
        raise TooLarge(f"|V| = {n} exceeds the matching enumeration cap {cap}")


def _support_tables(graph: RotationGraph, w: int, zero: int) -> tuple:
    return fact(graph, ("matchings", w, zero), _build_tables, w, zero)


def _build_tables(graph: RotationGraph, w: int, zero: int) -> tuple:
    """The search tables, in w-bit lanes, of the spanning subgraph without
    the edges whose lanes hold a 1 in ``zero``: per perfect matching in
    lexicographic order, its edge pack (a 1 per edge) and triangle pack (a 2
    per triangle it crosses three times, as it uses none of its edges); each
    (edge, pack of the triangles it crosses) pair; the triangle guards; and
    a dict for the edge tuples of returned matchings.  Past
    ``MATCHING_LIMIT`` it raises ``TooLarge``.  The walk matches the next
    unmatched vertex in breadth-first order (restarting at the least unvisited
    one) to each unmatched neighbour; one sort restores lexicographic order.
    """
    n, E, triangles = graph.vertex_count, len(graph.edges), _triangles(graph)
    low, top, tones = E * w, (E + len(triangles)) * w, _ones(len(triangles), w)
    # A matching's int holds its edge pack, its triangle pack and, on top, its rank bits.
    steps, tcross = [(1 << (top + E - 1 - i)) + (1 << (i * w)) for i in range(E)], [0] * E
    for c, (inside, outside) in enumerate(triangles):
        for i in inside:
            steps[i] -= 2 << (low + c * w)
        for i in outside:
            tcross[i] += 1 << (c * w)
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(graph.edges):
        if not zero >> (i * w) & 1:
            adjacent[u].append((v, steps[i]))
            adjacent[v].append((u, steps[i]))
    order, at, later = [], [n] * n, [[] for _ in range(n)]  # at[v]: v's place in order
    for k in range(n):
        if k == len(order):  # restart at the least unvisited vertex
            order.append(at.index(n))
            at[order[k]] = k
        for u, step in adjacent[order[k]]:
            if at[u] == n:
                at[u] = len(order)
                order.append(u)
            if at[u] > k:
                later[k].append((at[u], step))
    keys, matched = [], [False] * (n + 1)  # matched[n] stays False: a sentinel
    # A stack of (free, untried options, mate, int without the mate's edge),
    # so recursion does not bound n; vertices are named by their positions.
    stack: list[tuple] = []
    free, options, key = 0, iter(later[0]), 2 * tones << low
    while True:
        for u, step in options:
            if not matched[u]:
                break
        else:
            if not stack:
                break
            free, options, u, key = stack.pop()
            matched[u] = False
            continue
        matched[u] = True
        nxt = matched.index(False, free + 1)
        if nxt < n:
            stack.append((free, options, u, key))
            free, options, key = nxt, iter(later[nxt]), key + step
            continue
        if len(keys) == MATCHING_LIMIT:
            raise TooLarge(f"the support has more than {MATCHING_LIMIT} perfect matchings")
        keys.append(key + step)
        matched[u] = False
    keys.sort(reverse=True)  # by rank bits (edge i at E - 1 - i): lexicographic order
    emask, tmask = (1 << low) - 1, (1 << (top - low)) - 1
    packs, tpacks = [k & emask for k in keys], [k >> low & tmask for k in keys]
    crossing = [(i, lanes) for i, lanes in enumerate(tcross) if lanes]
    return packs, tpacks, crossing, tones << (w - 1), {}


def _triangles(graph: RotationGraph) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Each 3-cycle as (the indices of its three edges, those crossing it)."""
    return fact(graph, "triangles", _find_triangles)


def _find_triangles(graph: RotationGraph) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    adjacent = [set(rot) for rot in graph.rotations]
    index = graph.edge_index
    triangles = []
    for a, b in graph.edges:
        for c in adjacent[a] & adjacent[b]:
            if c > b:
                X = (a, b, c)
                crossing = tuple(
                    index[(x, y)] for x in X for y in graph.rotations[x] if y not in X
                )
                triangles.append(((index[(a, b)], index[(a, c)], index[(b, c)]), crossing))
    return tuple(triangles)


def _edges_of(pack: int, w: int, edges: tuple[Edge, ...]) -> Matching:
    return tuple(e for i, e in enumerate(edges) if pack >> (i * w) & 1)


def perfect_matchings(t: DTarget) -> list[Matching]:
    """All perfect matchings of the underlying simple graph."""
    _refuse(t, None)
    w = _width(t)
    return [_edges_of(pack, w, t.graph.edges) for pack in _support_tables(t.graph, w, 0)[0]]


def edge_colour(t: DTarget, cap: int | None = None) -> EdgeColouring | None:
    """Find a d-edge-colouring, or None after exhausting the search.

    Of all colourings, the one returned is the nondecreasing sequence of
    support matchings that comes first in lexicographic order (see the
    module docstring for the search and its prunes).
    """
    _refuse(t, cap)
    d = t.d
    if any(total != d for total in t.degree_sums):
        return None
    mults = t.mult_vector
    w = _width(t)
    ones = _ones(len(mults), w)
    guards = ones << (w - 1)

    def zeros(r: int) -> int:  # a 1 in each lane of r that holds 0
        return (guards ^ (((r | guards) - ones) & guards)) >> (w - 1)

    r = _pack(mults, w)
    zero = zeros(r)
    packs, tpacks, crossing, tguards, named = _support_tables(t.graph, w, zero)
    # Lane c of S holds its guard plus residual m(delta(X_c)) - k.
    S = tguards - d * (tguards >> (w - 1)) + sum(mults[i] * lanes for i, lanes in crossing)

    def enter(candidates, r: int, S: int) -> list | None:
        # A node no prune refutes becomes a frame [residual, slacks, fitting
        # matchings, next child]; the matching it placed is fitting[next - 1].
        if S & tguards != tguards:
            return None
        covered = zero = zeros(r)
        fitting = []
        for j in candidates:
            if not packs[j] & zero:
                fitting.append(j)
                covered |= packs[j]
        return [r, S, fitting, 0] if covered == ones else None

    # Depth-first with an explicit stack, so d is not bounded by recursion.
    root = enter(range(len(packs)), r, S)
    frames = [root] if root else []
    while frames:
        frame = frames[-1]
        r, S, fitting, pos = frame
        if pos == len(fitting):
            frames.pop()
            continue
        frame[3] = pos + 1
        j = fitting[pos]
        if len(frames) < d:
            child = enter(fitting[pos:], r - packs[j], S - tpacks[j])
            if child:
                frames.append(child)
        elif r == packs[j]:
            placed = [fitting[pos - 1] for _, _, fitting, pos in frames]
            for j in set(placed).difference(named):
                named[j] = _edges_of(packs[j], w, t.graph.edges)
            return EdgeColouring(tuple(map(named.__getitem__, placed)))
    return None


def verify_colouring(t: DTarget, c: EdgeColouring) -> bool:
    """True iff c is a list of d perfect matchings covering each edge m(e) times.

    A colouring repeats its matchings, so each distinct one is checked once
    and counts for its edges as often as it repeats.
    """
    if len(c.matchings) != t.d:
        return False
    n = t.vertex_count
    index = t.graph.edge_index
    coverage = [0] * len(t.graph.edges)
    for M, times in Counter(c.matchings).items():
        if 2 * len(M) != n or len({x for e in M for x in e}) != n:
            return False
        for e in M:
            i = index.get(e)
            if i is None:
                return False
            coverage[i] += times
    return tuple(coverage) == t.mult_vector
