"""Seeded input generators for the benchmark, independent of the package.

Nothing here imports ``dtargets``: the inputs are plain rotation systems and
multiplicity maps, rendered as ``.dtarget`` text, so a change to the code
under test cannot change what it is fed.

Rotation systems come from straight-line drawings: each vertex lists its
neighbours in clockwise order of angle, so the embedding is planar by
construction (``selftest.py`` re-checks V - E + F = 2 with its own face
tracer).
"""

from __future__ import annotations

import math
import random

Edge = tuple[int, int]


def norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _rotations(points: list[tuple[float, float]], edges: list[Edge]) -> list[list[int]]:
    nbrs: list[list[int]] = [[] for _ in points]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    rot = []
    for v, (x, y) in enumerate(points):
        rot.append(
            sorted(nbrs[v], key=lambda u: -math.atan2(points[u][1] - y, points[u][0] - x))
        )
    return rot


def _ring_points(k: int, radius: float, offset: float) -> list[tuple[float, float]]:
    return [
        (radius * math.cos(2 * math.pi * (i + offset) / k),
         radius * math.sin(2 * math.pi * (i + offset) / k))
        for i in range(k)
    ]


def prism(k: int) -> tuple[list[list[int]], list[Edge], list[Edge]]:
    """The k-prism on n = 2k vertices: (rotations, ring edges, vertical edges).

    Outer ring 0..k-1, inner ring k..2k-1, vertical edges i -- k+i.
    """
    points = _ring_points(k, 2.0, 0.0) + _ring_points(k, 0.5, 0.0)
    ring = [norm(i, (i + 1) % k) for i in range(k)]
    ring += [norm(k + i, k + (i + 1) % k) for i in range(k)]
    vertical = [(i, k + i) for i in range(k)]
    return _rotations(points, ring + vertical), ring, vertical


def antiprism(k: int) -> tuple[list[list[int]], list[Edge]]:
    """The k-antiprism on n = 2k vertices (4-regular): (rotations, edges).

    Outer ring 0..k-1; inner ring k..2k-1, turned half a step, so outer i
    meets inner k+i and k+(i-1 mod k).
    """
    points = _ring_points(k, 2.0, 0.0) + _ring_points(k, 0.5, 0.5)
    edges = [norm(i, (i + 1) % k) for i in range(k)]
    edges += [norm(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    edges += [norm(i, k + (i - 1) % k) for i in range(k)]
    return _rotations(points, edges), sorted(edges)


def random_perfect_matching(rot: list[list[int]], rng: random.Random) -> list[Edge]:
    """A perfect matching of the graph, found by randomised backtracking."""
    n = len(rot)
    mate = [-1] * n

    def extend() -> bool:
        free = next((v for v in range(n) if mate[v] < 0), None)
        if free is None:
            return True
        choices = [u for u in rot[free] if mate[u] < 0]
        rng.shuffle(choices)
        for u in choices:
            mate[free], mate[u] = u, free
            if extend():
                return True
            mate[free] = mate[u] = -1
        return False

    if not extend():
        raise ValueError("graph has no perfect matching")
    return sorted(norm(v, mate[v]) for v in range(n) if v < mate[v])


def matching_sum(
    rot: list[list[int]], edges: list[Edge], d: int, rng: random.Random
) -> tuple[dict[Edge, int], list[list[Edge]]]:
    """Multiplicities that are the sum of d random perfect matchings, with the
    matchings themselves (so the target is d-colourable by construction)."""
    mult = {e: 0 for e in edges}
    matchings = [random_perfect_matching(rot, rng) for _ in range(d)]
    for M in matchings:
        for e in M:
            mult[e] += 1
    return mult, matchings


def four_cycles(rot: list[list[int]]) -> list[tuple[int, int, int, int]]:
    """Every 4-cycle of the graph once, as (u, v, w, x) with u the least
    vertex and v < x."""
    adj = [set(r) for r in rot]
    out = []
    for u in range(len(rot)):
        for v in adj[u]:
            if v <= u:
                continue
            for x in adj[u]:
                if x <= v:
                    continue
                for w in adj[v] & adj[x]:
                    if w > u:
                        out.append((u, v, w, x))
    return sorted(out)


def to_text(rot: list[list[int]], mult: dict[Edge, int], d: int = 8) -> str:
    lines = [f"dtarget d={d}"]
    lines += [f"vertex {v}: " + " ".join(map(str, r)) for v, r in enumerate(rot)]
    lines += [f"mult {u} {v} {m}" for (u, v), m in sorted(mult.items())]
    return "\n".join(lines) + "\n"


def prism_text(n: int, ring: int = 2, vertical: int = 4) -> str:
    """The ladder case: k-prism on n vertices, ring and vertical multiplicities."""
    rot, ring_edges, vertical_edges = prism(n // 2)
    mult = {e: ring for e in ring_edges}
    mult.update({e: vertical for e in vertical_edges})
    return to_text(rot, mult)


def uniform_text(rot: list[list[int]], edges: list[Edge], m: int) -> str:
    return to_text(rot, {e: m for e in edges})


def antiprism_case(n: int, case_seed: int) -> str:
    """An antiprism_colour case: the n-vertex antiprism with multiplicities
    summed from 8 random perfect matchings drawn from ``case_seed``."""
    rot, edges = antiprism(n // 2)
    mult, _ = matching_sum(rot, edges, 8, random.Random(n * 1000 + case_seed))
    return to_text(rot, mult)
