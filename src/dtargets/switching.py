"""Score sequences, the well-order used for descent, and the switching moves.

A switch along a four-cycle u-v-w-x shifts one unit of multiplicity from the
opposite pair {uv, wx} onto {vw, ux}; it preserves every vertex's incident
multiplicity sum.  The path switch first inserts a multiplicity-0 edge xy
inside a region containing both ends of the path x-u-v-y and then switches
along the resulting four-cycle.
"""

from __future__ import annotations

from .errors import (
    DTargetError,
    MismatchedD,
    NoCommonRegion,
    NotAFourCycle,
    WouldGoNegative,
)
from .planar import DTarget, RotationGraph, norm_edge


def score_sequence(t: DTarget) -> tuple[int, ...]:
    """(n_0, ..., n_d) where n_i counts edges of multiplicity i; an edge
    above d has no place in it (``DTargetError``)."""
    counts = [0] * (t.d + 1)
    for e, m in zip(t.graph.edges, t.mult_vector):
        if m > t.d:
            raise DTargetError(f"edge {e} has multiplicity {m}, above d = {t.d}")
        counts[m] += 1
    return tuple(counts)


def _score_key(vertex_count: int, seq: tuple[int, ...]):
    # The order prefers fewer vertices; then, scanning multiplicities from the
    # top down, prefers MORE edges at the highest multiplicity where the
    # sequences differ; finally prefers fewer multiplicity-0 edges.
    return (vertex_count, tuple(-seq[i] for i in range(len(seq) - 1, 0, -1)), seq[0])


def score_smaller(
    vertex_count_a: int,
    seq_a: tuple[int, ...],
    vertex_count_b: int,
    seq_b: tuple[int, ...],
) -> bool:
    """Strict well-order on (vertex count, score sequence) pairs."""
    if len(seq_a) != len(seq_b):
        raise MismatchedD(
            f"score sequences have different lengths: {len(seq_a)} vs {len(seq_b)}"
        )
    return _score_key(vertex_count_a, seq_a) < _score_key(vertex_count_b, seq_b)


def is_smaller(a: DTarget, b: DTarget) -> bool:
    """Whether a precedes b in the descent order."""
    if a.d != b.d:
        raise MismatchedD(f"cannot compare targets with d = {a.d} and d = {b.d}")
    return score_smaller(
        a.vertex_count, score_sequence(a), b.vertex_count, score_sequence(b)
    )


def _require_square(t: DTarget, u: int, v: int, w: int, x: int) -> None:
    cycle = (u, v, w, x)
    if len(set(cycle)) != 4:
        raise NotAFourCycle(f"vertices {cycle} are not distinct")
    n = t.vertex_count
    if any(not (0 <= z < n) for z in cycle):
        raise NotAFourCycle(f"vertices {cycle} out of range")
    for a, b in ((u, v), (v, w), (w, x), (x, u)):
        if (a, b) not in t.graph.edge_index:
            raise NotAFourCycle(f"{norm_edge(a, b)} is not an edge")


def switch_square(t: DTarget, u: int, v: int, w: int, x: int) -> DTarget:
    """Move one unit of multiplicity from {uv, wx} to {vw, ux}.

    The four-cycle may be any cycle of the underlying graph, not only a
    region boundary.  The inverse move is switch_square(t', u, x, w, v).
    """
    _require_square(t, u, v, w, x)
    index, mult = t.graph.edge_index, list(t.mult_vector)
    for a, b in ((u, v), (w, x)):
        i = index[(a, b)]
        if mult[i] == 0:
            raise WouldGoNegative(f"multiplicity of {norm_edge(a, b)} is already 0")
        mult[i] -= 1
    for a, b in ((v, w), (x, u)):
        mult[index[(a, b)]] += 1
    return DTarget(t.graph, t.d, tuple(mult))


def _insert_after(rotation: tuple[int, ...], anchor: int, new: int) -> tuple[int, ...]:
    out = list(rotation)
    out.insert(out.index(anchor) + 1, new)
    return tuple(out)


def add_zero_edge(t: DTarget, x: int, y: int) -> DTarget:
    """Insert edge xy with multiplicity 0 inside a region containing both x
    and y (the lowest-id such region); identity when xy is already an edge."""
    if x == y:
        raise DTargetError(f"cannot join vertex {x} to itself")
    n = t.vertex_count
    if not (0 <= x < n and 0 <= y < n):
        raise DTargetError(f"vertices ({x}, {y}) out of range")
    if (x, y) in t.graph.edge_index:
        return t

    host = None
    for r in t.graph.faces:
        if x in r.vertex_set and y in r.vertex_set:
            host = r
            break
    if host is None:
        raise NoCommonRegion(f"no region contains both {x} and {y}")

    # The new edge joins a corner of x to a corner of y, the first of each in
    # trace order; any two corners of one region can be joined, and the edge
    # splits that region in two.  At a corner the incoming boundary dart
    # (a, z) is followed by (z, b), which means z's clockwise rotation reads
    # (..., b, a, ...); putting the other end between b and a routes the new
    # edge into the host region's interior.
    rotations = list(t.graph.rotations)
    darts = host.directed
    k = len(darts)
    for z, other in ((x, y), (y, x)):
        i = next(j for j in range(k) if darts[j][1] == z)
        b = darts[(i + 1) % k][1]
        rotations[z] = _insert_after(rotations[z], b, other)
    graph = RotationGraph(tuple(rotations))
    return DTarget.of(graph, t.d, {**dict(t.mult_items), (x, y): 0})


def switch_path(t: DTarget, x: int, u: int, v: int, y: int) -> DTarget:
    """Shift multiplicity along the path x-u-v-y: down on xu and vy, up on uv
    and the (possibly fresh multiplicity-0) edge xy."""
    if len({x, u, v, y}) != 4:
        raise DTargetError(f"path vertices ({x}, {u}, {v}, {y}) are not distinct")
    for a, b in ((x, u), (u, v), (v, y)):
        if (a, b) not in t.graph.edge_index:
            raise DTargetError(f"{norm_edge(a, b)} is not an edge")
    widened = add_zero_edge(t, x, y)
    return switch_square(widened, x, u, v, y)
