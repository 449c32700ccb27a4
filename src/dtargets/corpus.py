"""Bundled base graphs and systematic multiplicity enumeration over them.

The enumeration refuses a graph with more than ``ENUM_CAP`` edges
(``TooLarge``); the cap is a constant, not an option.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from itertools import chain, count, islice
from typing import Iterator

from .cuts import is_oddly_connected, odd_cuts_of
from .errors import DTargetError, TooLarge
from .planar import DTarget, RotationGraph, parse_dtarget, validate

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
    name: str
    target: DTarget


def build_corpus(
    bases: tuple[str, ...] = FIXTURE_NAMES,
    limit_per_base: int = 48,
    require_oddly_connected: bool = True,
) -> list[CorpusItem]:
    """A deterministic target list: for each base graph, its bundled
    multiplicity assignment first, then its d = 8 assignments with every
    multiplicity positive in enumeration order, each kept only if it
    validates (and, if required, is oddly connected), capped at
    limit_per_base.

    Candidates come in slices of as many as are still wanted, each slice's
    odd cuts in one batch, so an exhaustive base runs one odd-cut walk.  A
    refusal of the cut check (past ``cuts.CUT_CAP`` vertices) is raised, not
    read as a negative verdict, and so is a base named twice.
    """
    if len(set(bases)) < len(bases):
        raise DTargetError(f"a base is named twice in {','.join(bases)}")
    items: list[CorpusItem] = []
    for base in bases:
        canonical = load_fixture(base)
        # The enumeration yields each assignment once, so only the canonical
        # target can come up twice.
        enumerated = enumerate_multiplicities(canonical.graph, 8, min_mult=1)
        others = (t for t in enumerated if t != canonical)
        candidates = chain([canonical] if canonical.d == 8 else [], others)
        kept: list[DTarget] = []
        while len(kept) < limit_per_base:
            batch = list(islice(candidates, limit_per_base - len(kept)))
            if not batch:
                break
            valid = [t for t in batch if (r := validate(t)).degree_ok and r.euler_ok]
            if require_oddly_connected:
                odd_cuts_of(valid)
                valid = [t for t in valid if is_oddly_connected(t)]
            kept += valid
        numbers = count()
        for t in kept:
            name = "canonical" if t is canonical else f"{next(numbers):04d}"
            items.append(CorpusItem(f"{base}/{name}", t))
    return items
