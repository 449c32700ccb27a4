"""Bundled base graphs and systematic multiplicity enumeration over them.

The enumeration refuses a graph with more than ``ENUM_CAP`` edges
(``TooLarge``); the cap is a constant, not an option.  ``build_corpus``
checks one candidate per automorphism orbit and links the orbit's other
kept members to it, so later layers can judge each orbit once too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from itertools import chain, count
from typing import Iterator

from .cuts import is_oddly_connected
from .errors import DTargetError, TooLarge
from .planar import DTarget, RotationGraph, automorphisms, parse_dtarget, validate

ENUM_CAP = 16

FIXTURE_NAMES: tuple[str, ...] = (
    "k4",
    "prism",
    "cube",
    "octahedron",
    "pentagonal_prism",
)


def load_fixture(name: str) -> DTarget:
    """Parse one of the bundled .dtarget files."""
    if name not in FIXTURE_NAMES:
        raise DTargetError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
    text = (
        resources.files("dtargets").joinpath("fixtures", f"{name}.dtarget").read_text()
    )
    return parse_dtarget(text)


def enumerate_multiplicities(
    graph: RotationGraph, d: int, min_mult: int = 0
) -> Iterator[DTarget]:
    """All multiplicity assignments with every vertex sum exactly d, in
    ascending lexicographic order over the sorted edge list.

    An odometer over the edges, each running through the values its ends'
    sums so far allow; a complete assignment, in ``graph.edges`` order, is
    the target's multiplicity vector.
    """
    edges = graph.edges
    k = len(edges)
    if k > ENUM_CAP:
        raise TooLarge(f"{k} edges exceeds the enumeration cap {ENUM_CAP}")
    # after[i]: how many edges after edge i meet each of its two ends
    after = [
        (sum(u in f for f in edges[i + 1 :]), sum(v in f for f in edges[i + 1 :]))
        for i, (u, v) in enumerate(edges)
    ]
    deg = [0] * graph.vertex_count
    values, top = [0] * k, [0] * k

    def put(i: int, m: int) -> None:
        u, v = edges[i]
        deg[u] += m - values[i]
        deg[v] += m - values[i]
        values[i] = m

    i = 0
    while i >= 0:
        if i == k:
            yield DTarget(graph, d, tuple(values))
        else:
            (u, v), (later_u, later_v) = edges[i], after[i]
            lo = min_mult
            hi = min(d - deg[u] - min_mult * later_u, d - deg[v] - min_mult * later_v)
            if not later_u:
                lo, hi = max(lo, d - deg[u]), min(hi, d - deg[u])
            if not later_v:
                lo, hi = max(lo, d - deg[v]), min(hi, d - deg[v])
            if lo <= hi:
                top[i] = hi
                put(i, lo)
                i += 1
                continue
        # back up to the last edge with a larger value left and advance it
        i -= 1
        while i >= 0 and values[i] == top[i]:
            put(i, 0)
            i -= 1
        if i >= 0:
            put(i, values[i] + 1)
            i += 1


@dataclass(frozen=True)
class CorpusItem:
    """A named corpus target.  ``first`` is the first kept item of the
    target's automorphism orbit, None on that item itself, and ``edge_map``
    the automorphism's map of edge indices carrying first's target onto
    this one: edge i of one is edge ``edge_map[i]`` of the other, with the
    same multiplicity.  Neither takes part in equality."""

    name: str
    target: DTarget
    first: CorpusItem | None = field(default=None, compare=False, repr=False)
    edge_map: tuple[int, ...] | None = field(default=None, compare=False, repr=False)


def build_corpus(
    bases: tuple[str, ...] = FIXTURE_NAMES, limit_per_base: int = 48
) -> list[CorpusItem]:
    """A deterministic target list: for each base graph, its bundled
    multiplicity assignment first, then its d = 8 assignments with every
    multiplicity positive in enumeration order, each kept only if it
    validates and is oddly connected, capped at limit_per_base.

    An automorphism of the rotation system keeps the degree check, the
    Euler check and odd connectivity, so one pass per base checks the first
    candidate of each orbit alone and records every image of its
    multiplicity vector; a later candidate found there takes its verdict
    and, if kept, links to the first item through the automorphism.  A
    refusal of the cut check (past ``cuts.CUT_CAP`` vertices) is raised, not
    read as a negative verdict, and so is a base named twice.
    """
    if len(set(bases)) < len(bases):
        raise DTargetError(f"a base is named twice in {','.join(bases)}")
    items: list[CorpusItem] = []
    for base in bases:
        canonical = load_fixture(base)
        graph = canonical.graph
        edges, index = graph.edges, graph.edge_index
        wheres = [tuple(index[(phi[u], phi[v])] for u, v in edges) for phi in automorphisms(graph)]
        # Each edge map with its inverse, which reads a vector's image off it.
        maps = [(where, sorted(range(len(edges)), key=where.__getitem__)) for where in wheres]
        # The enumeration yields each assignment once, so only the canonical
        # target can come up twice.
        enumerated = enumerate_multiplicities(graph, 8, min_mult=1)
        others = (t for t in enumerated if t != canonical)
        orbits: dict = {}  # vector -> (its orbit's first item, None if failed; edge map)
        kept, numbers = 0, count()
        for t in chain([canonical] if canonical.d == 8 else [], others):
            if kept >= limit_per_base:
                break
            vector = t.mult_vector
            seen = orbits.get(vector)
            if seen is None:
                r = validate(t)
                keep = r.degree_ok and r.euler_ok and is_oddly_connected(t)
            else:
                keep = seen[0] is not None
            item = None
            if keep:
                name = "canonical" if t is canonical else f"{next(numbers):04d}"
                item = CorpusItem(f"{base}/{name}", t, *(seen or (None, None)))
                items.append(item)
                kept += 1
            if seen is None:
                for where, back in maps:
                    orbits.setdefault(tuple(map(vector.__getitem__, back)), (item, where))
    return items
