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
A (start, residual) state whose every child failed is remembered for the
rest of the call; a state a prune refutes is not, since the prune refutes
it again as cheaply, and so the memo stays small.

The search's tables for a support's matchings, and each triangle's edges
and the edges crossing it, are facts of the graph, kept by ``planar.fact``:
targets on one graph share them, and they go when the graph goes.  A call
builds only its residual multiplicities and triangle slacks, and a
matching's edge tuple the first time a colouring returns it.  A support
with more than ``MATCHING_LIMIT`` perfect matchings is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import OddVertexCount, TooLarge
from .planar import DTarget, Edge, RotationGraph, fact, norm_edge

DEFAULT_COLOUR_CAP = None  # no vertex cap
MATCHING_LIMIT = 2**14  # the most perfect matchings one support's tables hold

Matching = tuple[Edge, ...]


@dataclass(frozen=True)
class EdgeColouring:
    """A list of d perfect matchings; edge e must appear in exactly m(e) of them."""

    matchings: tuple[Matching, ...]

    @cached_property
    def coverage(self) -> dict[Edge, int]:
        counts: dict[Edge, int] = {}
        for M in self.matchings:
            for u, v in M:
                e = norm_edge(u, v)
                counts[e] = counts.get(e, 0) + 1
        return counts


def _support_tables(t: DTarget, support: tuple[Edge, ...], cap: int | None) -> tuple:
    # The refusals depend on each call's cap, so they come before the lookup.
    n = t.vertex_count
    if n % 2 != 0:
        raise OddVertexCount(f"|V| = {n} is odd; no perfect matchings exist")
    if cap is not None and n > cap:
        raise TooLarge(f"|V| = {n} exceeds the matching enumeration cap {cap}")
    return fact(t.graph, ("matchings", support), _build_tables, support)


def _build_tables(graph: RotationGraph, support: tuple[Edge, ...]) -> tuple:
    """The search tables of the spanning subgraph with edge set ``support``:
    per perfect matching, in lexicographic order, its support positions, their
    bit mask and the triangles it crosses three times; and a dict for the edge
    tuples of returned matchings.  Past ``MATCHING_LIMIT`` it raises ``TooLarge``.

    The walk always matches the smallest unmatched vertex to a larger
    neighbour, in ascending order, so each matching is produced exactly
    once, with its edges sorted, and in lexicographic order.
    """
    n = graph.vertex_count
    later: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(support):
        later[u].append((v, i))
    members: list[tuple[int, ...]] = []
    matched = [False] * n
    partial: list[int] = []
    # A stack of (free, untried options, mate), so recursion does not bound n.
    stack: list[tuple] = []
    free, options = 0, iter(later[0])
    while True:
        for u, i in options:
            if not matched[u]:
                break
        else:
            if not stack:
                break
            free, options, u = stack.pop()
            matched[u] = False
            partial.pop()
            continue
        matched[u] = True
        partial.append(i)
        nxt = free + 1
        while nxt < n and matched[nxt]:
            nxt += 1
        if nxt < n:
            stack.append((free, options, u))
            free, options = nxt, iter(later[nxt])
            continue
        if len(members) == MATCHING_LIMIT:
            raise TooLarge(f"the support has more than {MATCHING_LIMIT} perfect matchings")
        members.append(tuple(partial))
        matched[u] = False
        partial.pop()
    position = {e: i for i, e in enumerate(support)}
    masks = [sum(1 << i for i in edges) for edges in members]
    # A matching crosses a triangle once if it uses one of its edges and
    # three times if it uses none; ``thrice`` lists the latter.
    inside = [
        sum(1 << position[e] for e in edges if e in position)
        for edges, _ in _triangles(graph)
    ]
    thrice = [[c for c, m in enumerate(inside) if not mask & m] for mask in masks]
    return members, masks, thrice, {}


def _triangles(graph: RotationGraph) -> tuple[tuple[Matching, Matching], ...]:
    """Each 3-cycle of the graph as (its three edges, the edges crossing it)."""
    return fact(graph, "triangles", _find_triangles)


def _find_triangles(graph: RotationGraph) -> tuple[tuple[Matching, Matching], ...]:
    adjacent = [set(rot) for rot in graph.rotations]
    triangles = []
    for a, b in graph.edges:
        for c in adjacent[a] & adjacent[b]:
            if c > b:
                X = (a, b, c)
                crossing = tuple(
                    norm_edge(x, y) for x in X for y in graph.rotations[x] if y not in X
                )
                triangles.append((((a, b), (a, c), (b, c)), crossing))
    return tuple(triangles)


def perfect_matchings(t: DTarget, cap: int | None = DEFAULT_COLOUR_CAP) -> list[Matching]:
    """All perfect matchings of the underlying simple graph."""
    edges = t.graph.edges
    return [tuple(edges[i] for i in M) for M in _support_tables(t, edges, cap)[0]]


def edge_colour(t: DTarget, cap: int | None = DEFAULT_COLOUR_CAP) -> EdgeColouring | None:
    """Find a d-edge-colouring, or None after exhausting the search.

    Of all colourings, the one returned is the nondecreasing sequence of
    support matchings that comes first in lexicographic order (see the
    module docstring for the search and its prunes).
    """
    support = tuple(e for e, m in t.mult_items if m > 0)
    members, masks, thrice, named = _support_tables(t, support, cap)
    if any(total != t.d for total in t.degree_sums):
        return None
    # slack[c] = residual m(delta(X_c)) - k; placing matching j lowers it by
    # 2 for each c in thrice[j] and leaves the rest.
    slack = [sum(t.mult[e] for e in crossing) - t.d for _, crossing in _triangles(t.graph)]
    residual = [m for _, m in t.mult_items if m > 0]
    full = (1 << len(support)) - 1
    placed: list[int] = []
    refuted: set[tuple[int, tuple[int, ...]]] = set()

    def enter(start: int, candidates: list[int], zero: int) -> list | None:
        # zero: the support edges whose residual is 0.  A node no prune
        # refutes becomes a frame [key, fitting matchings, zero, next child];
        # its key joins ``refuted`` when its last child fails.
        key = (start, tuple(residual))
        if key in refuted or min(slack, default=0) < 0:
            return None
        fitting = [j for j in candidates if not masks[j] & zero]
        covered = zero
        for j in fitting:
            covered |= masks[j]
        return [key, fitting, zero, 0] if covered == full else None

    # Depth-first with an explicit stack, so d is not bounded by recursion.
    root = enter(0, list(range(len(members))), 0)
    frames = [root] if root else []
    while frames:
        frame = frames[-1]
        key, fitting, zero, pos = frame
        if pos:
            j = fitting[pos - 1]
            for e in members[j]:
                residual[e] += 1
            for c in thrice[j]:
                slack[c] += 2
            placed.pop()
        if pos == len(fitting):
            refuted.add(key)
            frames.pop()
            continue
        frame[3] = pos + 1
        j = fitting[pos]
        emptied = 0
        for e in members[j]:
            residual[e] -= 1
            if not residual[e]:
                emptied |= 1 << e
        for c in thrice[j]:
            slack[c] -= 2
        placed.append(j)
        if len(placed) < t.d:
            child = enter(j, fitting[pos:], zero | emptied)
            if child:
                frames.append(child)
        elif zero | emptied == full:
            for j in set(placed).difference(named):
                named[j] = tuple(map(support.__getitem__, members[j]))
            return EdgeColouring(tuple(map(named.__getitem__, placed)))
    return None


def verify_colouring(t: DTarget, c: EdgeColouring) -> bool:
    """True iff c is a list of d perfect matchings covering each edge m(e) times.

    A colouring repeats its matchings, so each distinct one is checked once.
    """
    if len(c.matchings) != t.d:
        return False
    n = t.vertex_count
    edge_set = t.graph.edge_set
    for M in dict.fromkeys(c.matchings):
        used: set[int] = set()
        for u, v in M:
            if norm_edge(u, v) not in edge_set:
                return False
            if u in used or v in used:
                return False
            used.add(u)
            used.add(v)
        if len(used) != n:
            return False
    coverage = c.coverage
    for e, m in t.mult_items:
        if coverage.get(e, 0) != m:
            return False
    return True
