"""Hand-built targets that exercise specific rules, verdicts, and edge cases.

Each builder returns a fresh DTarget.  The
multiplicity tables were designed by hand so that a particular transfer rule,
cut verdict, or colouring search case fires; the expected outcomes are frozen
in the test modules that import from here.
"""

from __future__ import annotations

import importlib.util
import random
from functools import cache
from pathlib import Path

from dtargets.corpus import enumerate_multiplicities, load_fixture
from dtargets.errors import WouldGoNegative
from dtargets.planar import DTarget, RotationGraph, parse_dtarget
from dtargets.switching import switch_square

# ---------------------------------------------------------------------------
# Fixture rescalings
# ---------------------------------------------------------------------------


def prism(a: int, c: int) -> DTarget:
    """Triangular prism with ring multiplicity a and vertical multiplicity c."""
    return DTarget.of(
        load_fixture("prism").graph,
        8,
        {
            (0, 1): a, (0, 2): a, (1, 2): a,
            (3, 4): a, (3, 5): a, (4, 5): a,
            (0, 3): c, (1, 4): c, (2, 5): c,
        },
    )


def pentaprism(ring: int, vertical: int) -> DTarget:
    """Pentagonal prism with uniform ring and vertical multiplicities."""
    mult = {}
    for i in range(5):
        mult[tuple(sorted((i, (i + 1) % 5)))] = ring
        mult[tuple(sorted((5 + i, 5 + (i + 1) % 5)))] = ring
        mult[(i, 5 + i)] = vertical
    return DTarget.of(load_fixture("pentagonal_prism").graph, 8, mult)


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
    return DTarget.of(load_fixture("octahedron").graph, 8, mult)


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


# ---------------------------------------------------------------------------
# Square-switch walks from the switch_walk benchmark's three start targets:
# the octahedron and the 16-vertex antiprism at uniform multiplicity 2, and
# the 20-vertex prism (rings 2, verticals 4).  The starts and the 4-cycles
# come from the benchmark's own generator, read from ``bench/gen.py``.
# ---------------------------------------------------------------------------


def _bench_gen():
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@cache
def walk_targets(seed: int = 1, steps: int = 100) -> tuple[DTarget, ...]:
    """The targets of one seeded walk of ``steps`` switches from each start,
    in walk order: each step switches a random 4-cycle, in a random one of
    its two directions, and a switch that would go negative is redrawn."""
    gen = _bench_gen()
    starts = (
        gen.uniform_text(*gen.antiprism(3), 2),
        gen.uniform_text(*gen.antiprism(8), 2),
        gen.prism_text(20),
    )
    walked: list[DTarget] = []
    for i, text in enumerate(starts):
        rng = random.Random(seed * 101 + i)
        t = parse_dtarget(text)
        cycles = gen.four_cycles(t.graph.rotations)
        while len(walked) < (i + 1) * steps:
            u, v, w, x = rng.choice(cycles)
            if rng.random() < 0.5:
                u, v, w, x = v, w, x, u
            try:
                t = switch_square(t, u, v, w, x)
            except WouldGoNegative:
                continue
            walked.append(t)
    return tuple(walked)


# ---------------------------------------------------------------------------
# Targets met once: ladder prisms and uniform antiprisms on fresh graphs, and
# every assignment of the small fixtures with zero multiplicities allowed.
# ---------------------------------------------------------------------------

ONE_SHOT_N = range(6, 41, 2)


def one_shot_targets() -> dict[str, list[DTarget]]:
    """Prisms (rings 2, verticals 4) and uniform antiprisms (every m = 2) on
    6-40 vertices, from the benchmark's generator, each on a fresh graph."""
    gen = _bench_gen()
    return {
        "prisms": [parse_dtarget(gen.prism_text(n)) for n in ONE_SHOT_N],
        "antiprisms": [
            parse_dtarget(gen.uniform_text(*gen.antiprism(n // 2), 2)) for n in ONE_SHOT_N
        ],
    }


def zero_mult_targets() -> list[DTarget]:
    """Every d = 8 assignment, zero multiplicities allowed, on k4, prism and
    cube: 5,561 targets."""
    return [
        t
        for name in ("k4", "prism", "cube")
        for t in enumerate_multiplicities(load_fixture(name).graph, 8, min_mult=0)
    ]


# ---------------------------------------------------------------------------
# Faces that are not simple cycles: seeded connected spanning subgraphs of
# the benchmark's prisms and antiprisms, whose faces pass through cut
# vertices and along bridges, with multiplicities 0-3.
# ---------------------------------------------------------------------------


@cache
def spanning_subgraph_targets(per_graph: int = 20, seed: int = 1) -> tuple[DTarget, ...]:
    """``per_graph`` subgraphs of each k-prism and k-antiprism, k = 3..8.
    Each keeps a random spanning tree and every other edge with a random
    probability of 0.2-0.9, the rotations restricted to the kept edges (so
    the embedding stays planar); d = 8 and each multiplicity is drawn from
    0-3, so degree sums are arbitrary."""
    gen = _bench_gen()
    rng = random.Random(seed)
    out = []
    for k in range(3, 9):
        prism_rot, ring, vertical = gen.prism(k)
        antiprism_rot, antiprism_edges = gen.antiprism(k)
        for rot, edges in ((prism_rot, ring + vertical), (antiprism_rot, antiprism_edges)):
            for _ in range(per_graph):
                kept = _spanning_subgraph(len(rot), edges, rng.uniform(0.2, 0.9), rng)
                rotations = tuple(
                    tuple(u for u in r if (min(u, v), max(u, v)) in kept)
                    for v, r in enumerate(rot)
                )
                mult = {e: rng.randint(0, 3) for e in kept}
                out.append(DTarget.of(RotationGraph(rotations), 8, mult))
    return tuple(out)


def _spanning_subgraph(n: int, edges, keep: float, rng: random.Random) -> set:
    """A random spanning tree (Kruskal over shuffled edges) plus each other
    edge with probability ``keep``."""
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    kept = set()
    for u, v in rng.sample(edges, len(edges)):
        ru, rv = find(u), find(v)
        if ru != rv or rng.random() < keep:
            root[ru] = rv
            kept.add((u, v))
    return kept


# Rotation systems on which a placement generator without its guards yields
# degenerate placements: K3's two faces are triangles on the same three
# vertices; the diamond K4 - e's outer square borders both triangles, whose
# apexes lie on the square; a pendant edge makes the outer face visit its end
# twice (length 5 on the triangle, 6 on the square); the path P3's one face,
# 0-1-2-1, has length 4 and a repeated vertex.
DEGENERATE_GRAPHS = {
    "k3": ((1, 2), (2, 0), (0, 1)),
    "diamond": ((1, 2), (0, 2, 3), (0, 3, 1), (1, 2)),
    "triangle_pendant": ((1, 2, 3), (0, 2), (1, 0), (0,)),
    "square_pendant": ((1, 3, 4), (0, 2), (1, 3), (2, 0), (0,)),
    "p3": ((1,), (0, 2), (1,)),
}


# ---------------------------------------------------------------------------
# Relabelled copies: the same embedding under other vertex names
# ---------------------------------------------------------------------------


def relabelled(graph: RotationGraph, rng: random.Random, mirror: bool = False):
    """A copy of the graph under a random vertex relabelling, each rotation
    list started at a random neighbour and, with ``mirror``, reversed (the
    mirror image, whose faces are the graph's traced the other way): the
    map that carries a target on the graph onto that copy."""
    names = list(range(graph.vertex_count))
    rng.shuffle(names)
    rotations = [()] * len(names)
    for v, rotation in enumerate(graph.rotations):
        ring = [names[u] for u in (reversed(rotation) if mirror else rotation)]
        start = rng.randrange(len(ring))
        rotations[names[v]] = tuple(ring[start:] + ring[:start])
    copy = RotationGraph(tuple(rotations))
    where = [copy.edge_index[(names[u], names[v])] for u, v in graph.edges]

    def carry(t: DTarget) -> DTarget:
        vector = [0] * len(where)
        for i, m in zip(where, t.mult_vector):
            vector[i] = m
        return DTarget(copy, t.d, tuple(vector))

    return carry
