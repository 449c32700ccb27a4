"""Hand-built targets that exercise specific rules, verdicts, and edge cases.

Each builder returns a fresh DTarget.  The
multiplicity tables were designed by hand so that a particular transfer rule,
cut verdict, or colouring search case fires; the expected outcomes are frozen
in the test modules that import from here.
"""

from __future__ import annotations

import random

from dtargets.corpus import load_fixture
from dtargets.planar import DTarget, RotationGraph

# ---------------------------------------------------------------------------
# Fixture rescalings
# ---------------------------------------------------------------------------


def prism(a: int, c: int) -> DTarget:
    """Triangular prism with ring multiplicity a and vertical multiplicity c."""
    return load_fixture("prism").with_mult(
        {
            (0, 1): a, (0, 2): a, (1, 2): a,
            (3, 4): a, (3, 5): a, (4, 5): a,
            (0, 3): c, (1, 4): c, (2, 5): c,
        }
    )


def pentaprism(ring: int, vertical: int) -> DTarget:
    """Pentagonal prism with uniform ring and vertical multiplicities."""
    mult = {}
    for i in range(5):
        mult[tuple(sorted((i, (i + 1) % 5)))] = ring
        mult[tuple(sorted((5 + i, 5 + (i + 1) % 5)))] = ring
        mult[(i, 5 + i)] = vertical
    return load_fixture("pentagonal_prism").with_mult(mult)


# Octahedron remultiplications: each fires one specific triangle-transfer rule.

OCTA_GAMMA6_MULT = {
    (0, 1): 3, (0, 2): 1, (0, 3): 2, (0, 5): 2, (1, 2): 0, (1, 3): 2,
    (1, 4): 3, (2, 4): 4, (2, 5): 3, (3, 4): 1, (3, 5): 3, (4, 5): 0,
}

OCTA_GAMMA1_MULT = {
    (0, 1): 1, (0, 2): 1, (0, 3): 3, (0, 5): 3, (1, 2): 2, (1, 3): 3,
    (1, 4): 2, (2, 4): 2, (2, 5): 3, (3, 4): 2, (3, 5): 0, (4, 5): 2,
}

OCTA_GAMMA2_MULT = {
    (0, 1): 1, (0, 2): 1, (0, 3): 4, (0, 5): 2, (1, 2): 2, (1, 3): 1,
    (1, 4): 4, (2, 4): 1, (2, 5): 4, (3, 4): 2, (3, 5): 1, (4, 5): 1,
}


def octa(mult: dict) -> DTarget:
    return load_fixture("octahedron").with_mult(mult)


# ---------------------------------------------------------------------------
# Antiprisms carrying the sum of 8 random perfect matchings: colourable by
# construction, and hard for a search that places one matching at a time.
# ---------------------------------------------------------------------------


def antiprism(n: int, seed: int) -> DTarget:
    """The antiprism on n = 2k vertices, multiplicities summed from 8
    perfect matchings drawn at random from ``seed``.

    Outer ring 0..k-1, inner ring k..n-1; outer i meets inner k+i and
    k+i-1 (indices mod k), so every region is a triangle but the two rims.
    """
    k = n // 2
    rots = [((i - 1) % k, k + (i - 1) % k, k + i, (i + 1) % k) for i in range(k)]
    rots += [((i + 1) % k, i, k + (i - 1) % k, k + (i + 1) % k) for i in range(k)]
    graph = RotationGraph(tuple(rots))
    rng = random.Random(seed)
    mate = [-1] * n

    def match_from(v: int) -> bool:
        while v < n and mate[v] >= 0:
            v += 1
        if v == n:
            return True
        choices = [u for u in rots[v] if mate[u] < 0]
        rng.shuffle(choices)
        for u in choices:
            mate[v], mate[u] = u, v
            if match_from(v + 1):
                return True
            mate[v] = mate[u] = -1
        return False

    mult = dict.fromkeys(graph.edges, 0)
    for _ in range(8):
        mate[:] = [-1] * n
        match_from(0)  # always succeeds: outer i with inner k+i is one
        for v in range(n):
            if v < mate[v]:
                mult[(v, mate[v])] += 1
    return DTarget.of(graph, 8, mult)


# ---------------------------------------------------------------------------
# Decagonal prism: a long square ladder whose two 10-gon rims can be made
# big independently of each other, used to drive each square-transfer rule.
# ---------------------------------------------------------------------------


def decaprism(o: tuple[int, ...], v: tuple[int, ...]) -> DTarget:
    """Decagonal prism; o[i] on both rim copies of edge i(i+1), v[i] vertical."""
    rots = []
    for k in range(10):
        rots.append(((k + 1) % 10, k + 10, (k - 1) % 10))
    for k in range(10):
        rots.append((k, 10 + (k + 1) % 10, 10 + (k - 1) % 10))
    graph = RotationGraph(tuple(rots))
    mult = {}
    for i in range(10):
        mult[tuple(sorted((i, (i + 1) % 10)))] = o[i]
        mult[tuple(sorted((10 + i, 10 + (i + 1) % 10)))] = o[i]
        mult[(i, 10 + i)] = v[i]
    return DTarget.of(graph, 8, mult)


DECA_BETA5 = (
    (3, 4, 1, 1, 1, 1, 1, 1, 1, 3),
    (2, 1, 3, 6, 6, 6, 6, 6, 6, 4),
)
DECA_BETA2 = (
    (2, 5, 1, 1, 1, 1, 1, 1, 1, 5),
    (1, 1, 2, 6, 6, 6, 6, 6, 6, 2),
)
DECA_BETA3 = (
    (2, 5, 1, 1, 1, 1, 1, 1, 1, 4),
    (2, 1, 2, 6, 6, 6, 6, 6, 6, 3),
)
DECA_BETA4 = (
    (3, 4, 1, 1, 1, 1, 1, 1, 1, 4),
    (1, 1, 3, 6, 6, 6, 6, 6, 6, 3),
)


# ---------------------------------------------------------------------------
# Two ten-gon rims joined by a belt of squares and one triangle at each end:
# the triangle wedged between two big regions receives nothing (fallthrough),
# and the belt edge between the rims transfers under the both-flank rule.
# ---------------------------------------------------------------------------


def two_big_rings() -> DTarget:
    rots = (
        (1, 10, 18, 9),
        (10, 0, 2),
        (1, 3, 11),
        (2, 4, 12),
        (3, 5, 13),
        (4, 6, 14),
        (5, 7, 15),
        (6, 8, 16),
        (7, 9, 17),
        (8, 0, 18),
        (0, 1, 11),
        (10, 2, 12),
        (13, 11, 3),
        (14, 12, 4),
        (15, 13, 5),
        (16, 14, 6),
        (17, 15, 7),
        (18, 16, 8),
        (0, 17, 9),
    )
    mult = {
        (0, 1): 2, (0, 9): 2, (1, 2): 5, (0, 10): 2, (0, 18): 2,
        (10, 11): 5, (1, 10): 1, (2, 11): 2, (9, 18): 5,
    }
    for k in range(2, 9):
        mult[(k, k + 1)] = 1
        mult[(9 + k, 10 + k)] = 1
    for k in range(3, 9):
        mult[(k, 9 + k)] = 6
    return DTarget.of(RotationGraph(rots), 8, mult)


# ---------------------------------------------------------------------------
# A 12-gon rim geared to an inner hexagon: the quad between the rim triangle
# and the gear tooth receives a half unit because the tooth edge keeps the
# receiver's far quad multiplicity at 4.
# ---------------------------------------------------------------------------


def gear12() -> DTarget:
    rots = (
        (1, 12, 11),
        (12, 0, 2),
        (1, 3, 13),
        (2, 4, 13),
        (3, 5, 14),
        (4, 6, 14),
        (5, 7, 15),
        (6, 8, 15),
        (7, 9, 16),
        (8, 10, 16),
        (9, 11, 17),
        (10, 0, 17),
        (0, 1, 13, 17),
        (12, 2, 3, 14),
        (5, 15, 13, 4),
        (7, 16, 14, 6),
        (9, 17, 15, 8),
        (11, 12, 16, 10),
    )
    mult = {
        (0, 1): 3, (1, 2): 4, (2, 3): 3, (3, 4): 1, (4, 5): 4, (5, 6): 1,
        (6, 7): 4, (7, 8): 1, (8, 9): 4, (9, 10): 1, (10, 11): 4, (0, 11): 4,
        (0, 12): 1, (1, 12): 1, (2, 13): 1, (3, 13): 4, (4, 14): 3, (5, 14): 3,
        (6, 15): 3, (7, 15): 3, (8, 16): 3, (9, 16): 3, (10, 17): 3, (11, 17): 0,
        (12, 13): 2, (13, 14): 1, (14, 15): 1, (15, 16): 1, (16, 17): 1,
        (12, 17): 4,
    }
    return DTarget.of(RotationGraph(rots), 8, mult)


# ---------------------------------------------------------------------------
# A wheel-like polyhedron with a degree-3 vertex on a doubled triangle: the
# half-transfer rule for 2-2-2 flanks with one big far region fires here.
# ---------------------------------------------------------------------------


def rule5_wheel() -> DTarget:
    rots = (
        (1, 2, 3),
        (2, 0, 11, 6),
        (0, 1, 4, 7),
        (11, 0, 7),
        (2, 5, 8),
        (4, 6, 9),
        (5, 1, 10),
        (3, 2, 8, 11),
        (4, 9, 7),
        (5, 10, 8),
        (6, 11, 9),
        (1, 3, 7, 10),
    )
    mult = {
        (0, 1): 2, (0, 2): 2, (1, 2): 2, (0, 3): 4, (2, 4): 1, (4, 5): 1,
        (5, 6): 1, (1, 6): 1, (4, 8): 6, (7, 8): 1, (2, 7): 3, (5, 9): 6,
        (8, 9): 1, (6, 10): 6, (9, 10): 1, (1, 11): 3, (10, 11): 1,
        (3, 7): 2, (3, 11): 2, (7, 11): 2,
    }
    return DTarget.of(RotationGraph(rots), 8, mult)
