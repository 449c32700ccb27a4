"""Odd-set cuts of a target.

All cut values are multiplicity-weighted: m(delta(X)) sums m(e) over the
edges with exactly one end in X.  The odd-cut facts come from one walk over
the odd X without vertex 0, which by the complement symmetry stand for every
odd set: Y runs over the subsets of {2, ..., n-1} in Gray-code order and X is
Y, or Y with vertex 1 added when |Y| is even, so a step updates the cut
value by one vertex's edges.  ``planar.fact`` keeps the result under
``"odd_cuts"`` for ``min_odd_cut`` and ``is_oddly_connected``, and its
strengthened-check answer under ``"strengthened"``.  Past ``CUT_CAP``
vertices the walk is refused with ``TooLarge``; the cap is a constant, not
an option.  A d-target with n even, every m >= 1 and no walk stored gets
that check from the planar dual instead, with no cap: a least violation is
a bond, a simple cycle of the dual (Whitney), since a side that splits has
an odd part of smaller value, itself a violation or a single vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DTargetError, OddVertexCount, TooLarge
from .planar import DTarget, fact, require_target

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


def _scan_odd_cuts(t: DTarget) -> tuple[CutWitness, CutWitness | None]:
    """The one walk over t's odd sets: the minimum odd cut and the least odd
    cut with both sides larger than one and value below d + 2 (None if there
    is none), each tie broken by lexicographically least X over the sets and
    their complements.

    Per bound, ``least`` and ``small`` hold the best value so far, or the
    bound less one before any set reaches it, and the list beside each the
    sets at that value.  V minus 0 has value degree_sum(0) and (0,) is the
    least set, so the minimum collects only values below that at first.
    """
    n = t.vertex_count
    # Per vertex: its degree sum, its neighbours that can be in Y (by bit,
    # with twice the edge's multiplicity) and twice its multiplicity to vertex 1.
    degree, inner, to_1 = [0] * n, [[] for _ in range(n)], [0] * n
    for (u, v), m in zip(t.graph.edges, t.mult_vector):
        degree[u] += m
        degree[v] += m
        if u >= 2:
            inner[u].append((1 << v, 2 * m))
            inner[v].append((1 << u, 2 * m))
        elif u == 1:
            to_1[v] = 2 * m
    table = [(1 << f, degree[f], inner[f], to_1[f]) for f in range(n)]
    least, small, at_least, at_small = t.degree_sums[0] - 1, t.d + 1, [], []
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
        if X <= least:
            if X < least:
                least, at_least = X, []
            at_least.append(x)
        if X <= small and 1 < x.bit_count() < n - 1:
            if X < small:
                small, at_small = X, []
            at_small.append(x)
    return (
        _least_witness(least, at_least, n) or CutWitness(X=(0,), value=t.degree_sums[0]),
        _least_witness(small, at_small, n),
    )


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


def _odd_cuts(t: DTarget) -> tuple[CutWitness, CutWitness | None]:
    """t's odd-cut facts (minimum odd cut, strengthened-check violation or
    None), from the walk if not yet known.  The refusals come first, so they
    never depend on what is already stored."""
    n = t.vertex_count
    if n % 2 != 0:
        raise OddVertexCount(f"|V| = {n} is odd; odd-cut analysis needs it even")
    if n > CUT_CAP:
        raise TooLarge(f"|V| = {n} exceeds the cut enumeration cap {CUT_CAP}")
    pair = fact(t, "odd_cuts", _scan_odd_cuts)
    # The walk answers the strengthened check too, so no dual search follows it.
    fact(t, "strengthened", lambda _: pair[1])
    return pair


def min_odd_cut(t: DTarget) -> CutWitness:
    """The minimum-value odd cut; ties broken by lexicographically least X.

    Both an enumerated set and its complement witness the same value, so the
    tie-break considers both.
    """
    return _odd_cuts(t)[0]


def is_oddly_connected(t: DTarget) -> bool:
    """True iff every odd vertex subset has cut value at least d."""
    return _odd_cuts(t)[0].value >= t.d


def strengthened_cut_check(t: DTarget) -> CutWitness | None:
    """None if every odd X with both sides larger than one has m(delta(X)) >= d+2.

    Otherwise the violating witness, minimal by (value, lexicographic X).
    A d-target with n even and every m >= 1 reads a stored walk, or else
    searches the planar dual; any other target goes to the walk, which
    refuses an odd n before it reads anything stored.
    """
    try:
        require_target(t)
    except DTargetError:
        searchable = False
    else:
        searchable = t.vertex_count % 2 == 0 and min(t.mult_vector) >= 1
    if not searchable:
        return _odd_cuts(t)[1]
    return fact(t, "strengthened", _dual_violation)


def _dual_violation(t: DTarget) -> CutWitness | None:
    """The least (value, side of vertex 0) over the simple cycles of the
    dual (one edge per edge, joining its two faces; a bridge is a loop) of
    weight m at most d whose sides are odd and not single vertices.  A side
    is odd when the cycle holds an odd number of J's edges: the tree edges
    above odd subtrees of a breadth-first tree from 0, which every vertex
    meets an odd number of times.  Each cycle is listed once, from its least
    face, through larger faces, in the direction whose first edge is below
    its last."""
    graph, weight, d = t.graph, t.mult_vector, t.d
    edges, index, rotations, n = graph.edges, graph.edge_index, graph.rotations, t.vertex_count
    parent, order = [0] + [-1] * (n - 1), [0]
    for v in order:  # breadth-first: the list grows as it is read
        for u in rotations[v]:
            if parent[u] < 0:
                parent[u] = v
                order.append(u)
    size, up, odd = [1] * n, [0] * n, [0] * len(edges)  # up[v]: the tree edge above v
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
        up[v] = index[(v, parent[v])]
        odd[up[v]] = size[v] & 1
    dual: list[list[tuple[int, int, int, int]]] = [[] for _ in graph.faces]
    for i, (r, s) in enumerate(graph.region_pairs):  # (other face, edge, weight, in J)
        dual[r.id].append((s.id, i, weight[i], odd[i]))
        if r is not s:
            dual[s.id].append((r.id, i, weight[i], odd[i]))
    cycles = []  # (value, edge indices) of each J-odd cycle
    for s, around in enumerate(dual):
        room = d - min(e[2] for e in around)  # the most a path may weigh before it returns
        path, on, stack, w, p = [], [s], [iter(around)], 0, 0
        while stack:
            for f, i, m, o in stack[-1]:
                if f == s:
                    if w + m <= d and (not path or path[0] < i) and p ^ o:
                        cycles.append((w + m, path + [i]))
                elif f > s and w + m <= room and f not in on:
                    path.append(i)
                    on.append(f)
                    w, p = w + m, p ^ o
                    stack.append(iter(dual[f]))
                    break
            else:
                stack.pop()
                on.pop()
                if path:
                    i = path.pop()
                    w, p = w - weight[i], p ^ odd[i]
    best = None
    for value, cycle in sorted(cycles, key=lambda c: c[0]):
        if best is not None and value > best.value:
            break
        if any(len(cycle) == len(rotations[v]) and all(v in edges[i] for i in cycle)
               for v in edges[cycle[0]]):
            continue  # every edge at one vertex: that vertex is a side
        cut, crossed = set(cycle), [False] * n  # v's tree path to 0 crosses the cut
        for v in order[1:]:
            crossed[v] = crossed[parent[v]] != (up[v] in cut)
        X = tuple(v for v in range(n) if not crossed[v])
        if best is None or X < best.X:
            best = CutWitness(X=X, value=value)
    return best
