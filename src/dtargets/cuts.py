"""Odd-set cuts, bonds, cocycles, and the four-property cocycle validator.

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
from itertools import combinations

from .errors import BadColouring, NotABond, OddVertexCount, TooLarge
from .planar import DTarget, Edge, norm_edge, region_pair

DEFAULT_CUT_CAP = 24


@dataclass(frozen=True)
class CutWitness:
    X: tuple[int, ...]
    value: int
    parity: int


@dataclass(frozen=True)
class Cocycle:
    """delta(X) for a bond X, with its edges in dual-cycle order.

    Consecutive edges of ``edges`` (cyclically) lie on a common region.
    """

    edges: tuple[Edge, ...]
    witness_X: tuple[int, ...]

    @property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)


@dataclass(frozen=True)
class GueninVerdict:
    """Per-property verdicts of the four-condition cocycle check."""

    meets_others_once: bool
    meets_chosen_five: bool
    is_odd_cut: bool
    path_pattern: bool

    @property
    def ok(self) -> bool:
        return (
            self.meets_others_once
            and self.meets_chosen_five
            and self.is_odd_cut
            and self.path_pattern
        )


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


# ---------------------------------------------------------------------------
# Bonds and cocycles
# ---------------------------------------------------------------------------


def _components(vertices, adjacency) -> list[list[int]]:
    vertex_set = set(vertices)
    out: list[list[int]] = []
    seen: set[int] = set()
    for start in sorted(vertex_set):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adjacency[v]:
                if u in vertex_set and u not in seen:
                    seen.add(u)
                    comp.append(u)
                    stack.append(u)
        out.append(sorted(comp))
    return out


def bond_decomposition(t: DTarget, X) -> list[tuple[int, ...]]:
    """Partition delta(X) into bonds, each reported by its smaller side.

    For each component A of the subgraph induced on X and each component C
    of G - A, the A-C edges form delta(C), a bond (C is connected, and its
    complement contains the connected A to which every other component of
    G - A attaches).  Those bonds partition delta(X).
    """
    graph = t.graph
    n = graph.vertex_count
    adjacency = [set(graph.rotations[v]) for v in range(n)]
    inside = sorted(set(X))
    if not inside or len(inside) == n:
        return []
    bonds: list[tuple[int, ...]] = []
    for component in _components(inside, adjacency):
        comp_set = set(component)
        rest = [v for v in range(n) if v not in comp_set]
        for side in _components(rest, adjacency):
            # Only sides actually joined to this component carry cut edges.
            if not any(u in comp_set for v in side for u in adjacency[v]):
                continue
            complement = sorted(set(range(n)) - set(side))
            small = min((len(side), tuple(side)), (len(complement), tuple(complement)))
            bonds.append(small[1])
    bonds.sort(key=lambda b: (len(b), b))
    return bonds


def _delta_edges(t: DTarget, X) -> list[Edge]:
    inside = frozenset(X)
    return [
        (u, v) for (u, v) in t.graph.edges if (u in inside) != (v in inside)
    ]


def is_bond(t: DTarget, X) -> bool:
    """True iff delta(X) is nonempty and both sides induce connected subgraphs."""
    graph = t.graph
    n = graph.vertex_count
    inside = sorted(set(X))
    outside = [v for v in range(n) if v not in set(inside)]
    if not inside or not outside:
        return False
    adjacency = [set(graph.rotations[v]) for v in range(n)]
    return (
        len(_components(inside, adjacency)) == 1
        and len(_components(outside, adjacency)) == 1
    )


def cocycle_from(t: DTarget, X) -> Cocycle:
    """The cocycle delta(X) of a bond X, edges in dual-cycle order.

    The dual cycle is walked region to region: each region incident with cut
    edges holds exactly two of their boundary occurrences, and successive
    cut edges share that region.
    """
    if not is_bond(t, X):
        raise NotABond(f"delta({sorted(set(X))}) is not a bond")
    cut = [norm_edge(u, v) for u, v in _delta_edges(t, X)]
    cut_set = set(cut)
    incidences: dict[int, list[Edge]] = {}
    for region in t.graph.faces:
        hits = [e for e in region.edges if e in cut_set]
        if hits:
            if len(hits) != 2:
                raise NotABond(
                    f"region {region.id} meets the cut {len(hits)} times, expected 2"
                )
            incidences[region.id] = hits
    start_edge = min(cut)
    r1, r2 = region_pair(t, start_edge)
    order = [start_edge]
    current_region = r1
    current_edge = start_edge
    while True:
        a, b = incidences[current_region.id]
        next_edge = b if a == current_edge else a
        if next_edge == start_edge:
            break
        order.append(next_edge)
        s1, s2 = region_pair(t, next_edge)
        current_region = s2 if s1.id == current_region.id else s1
        current_edge = next_edge
        if len(order) > len(cut):
            raise NotABond("dual walk failed to close over the cut")
    if len(order) != len(cut):
        raise NotABond("dual walk did not visit every cut edge")
    return Cocycle(edges=tuple(order), witness_X=tuple(sorted(set(X))))


# ---------------------------------------------------------------------------
# Four-property cocycle validation
# ---------------------------------------------------------------------------


def _matching_edge_sets(colouring) -> list[frozenset[Edge]]:
    return [frozenset(norm_edge(u, v) for u, v in M) for M in colouring.matchings]


def validate_guenin_cocycle(
    tprime: DTarget,
    colouring,
    i: int,
    Q: Cocycle,
    path: tuple[int, int, int, int],
) -> GueninVerdict:
    """Check the four structural properties of a candidate cocycle Q.

    For the colouring F_1..F_d of tprime, index i, and path x-u-v-y:
    every other matching meets Q exactly once; F_i meets Q at least five
    times; Q is the cut of an odd vertex set; and uv, xy lie in Q while
    ux, vy do not.
    """
    from .coloring import verify_colouring

    if not verify_colouring(tprime, colouring):
        raise BadColouring("the supplied colouring does not colour the target")
    matchings = _matching_edge_sets(colouring)
    if not (0 <= i < len(matchings)):
        raise BadColouring(f"index {i} out of range for a {len(matchings)}-matching colouring")
    q_edges = Q.edge_set
    meets_others_once = all(
        len(M & q_edges) == 1 for j, M in enumerate(matchings) if j != i
    )
    meets_chosen_five = len(matchings[i] & q_edges) >= 5
    X = Q.witness_X
    is_odd_cut = (
        len(X) % 2 == 1
        and frozenset(norm_edge(u, v) for u, v in _delta_edges(tprime, X)) == q_edges
    )
    x, u, v, y = path
    path_pattern = (
        norm_edge(u, v) in q_edges
        and norm_edge(x, y) in q_edges
        and norm_edge(u, x) not in q_edges
        and norm_edge(v, y) not in q_edges
    )
    return GueninVerdict(
        meets_others_once=meets_others_once,
        meets_chosen_five=meets_chosen_five,
        is_odd_cut=is_odd_cut,
        path_pattern=path_pattern,
    )


def find_guenin_cocycles(
    tprime: DTarget,
    colouring,
    path: tuple[int, int, int, int],
    xy_in_base: bool,
    cap: int = DEFAULT_CUT_CAP,
) -> dict[int, Cocycle | None]:
    """Exhaustively search, per admissible index, for a cocycle passing all four checks.

    The admissible indices are all of 1..d when the closing edge xy belonged
    to the graph before the path switch (``xy_in_base``), else all but the
    first matching containing xy.  Candidate witness sets are odd bonds
    enumerated in increasing size, then lexicographically; the first passing
    cocycle wins, and None records an exhausted search.
    """
    n = tprime.vertex_count
    if n > cap:
        raise TooLarge(f"|V| = {n} exceeds the enumeration cap {cap}")
    x, _, _, y = path
    xy = norm_edge(x, y)
    matchings = _matching_edge_sets(colouring)
    excluded: int | None = None
    if not xy_in_base:
        for j, M in enumerate(matchings):
            if xy in M:
                excluded = j
                break
    admissible = [j for j in range(len(matchings)) if j != excluded]
    candidates: list[Cocycle] = []
    for size in range(1, n + 1, 2):
        for X in combinations(range(n), size):
            if is_bond(tprime, X):
                candidates.append(cocycle_from(tprime, X))
    results: dict[int, Cocycle | None] = {}
    for j in admissible:
        found: Cocycle | None = None
        for Q in candidates:
            if validate_guenin_cocycle(tprime, colouring, j, Q, path).ok:
                found = Q
                break
        results[j] = found
    return results
