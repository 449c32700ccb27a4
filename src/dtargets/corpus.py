"""Bundled base graphs and systematic multiplicity enumeration over them."""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Iterator

from .cuts import DEFAULT_CUT_CAP, is_oddly_connected
from .errors import DTargetError, TooLarge
from .planar import DTarget, RotationGraph, parse_dtarget, validate

DEFAULT_ENUM_CAP = 16

FIXTURE_NAMES: tuple[str, ...] = (
    "k4",
    "prism",
    "cube",
    "octahedron",
    "pentagonal_prism",
)


def fixture_names() -> tuple[str, ...]:
    return FIXTURE_NAMES


def load_fixture(name: str) -> DTarget:
    """Parse one of the bundled .dtarget files."""
    if name not in FIXTURE_NAMES:
        raise DTargetError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
    text = (
        resources.files("dtargets").joinpath("fixtures", f"{name}.dtarget").read_text()
    )
    return parse_dtarget(text)


def enumerate_multiplicities(
    graph: RotationGraph,
    d: int,
    min_mult: int = 0,
    cap_edges: int = DEFAULT_ENUM_CAP,
) -> Iterator[DTarget]:
    """All multiplicity assignments with every vertex sum exactly d, in
    ascending lexicographic order over the sorted edge list."""
    edges = graph.edges
    if len(edges) > cap_edges:
        raise TooLarge(f"{len(edges)} edges exceeds the enumeration cap {cap_edges}")
    n = graph.vertex_count
    remaining = [0] * n
    for u, v in edges:
        remaining[u] += 1
        remaining[v] += 1
    deg = [0] * n
    assignment: list[int] = []

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == len(edges):
            yield tuple(assignment)
            return
        u, v = edges[i]
        remaining[u] -= 1
        remaining[v] -= 1
        lo = min_mult
        hi = min(
            d - deg[u] - min_mult * remaining[u],
            d - deg[v] - min_mult * remaining[v],
        )
        if remaining[u] == 0:
            lo = max(lo, d - deg[u])
            hi = min(hi, d - deg[u])
        if remaining[v] == 0:
            lo = max(lo, d - deg[v])
            hi = min(hi, d - deg[v])
        for m in range(lo, hi + 1):
            deg[u] += m
            deg[v] += m
            assignment.append(m)
            yield from rec(i + 1)
            assignment.pop()
            deg[u] -= m
            deg[v] -= m
        remaining[u] += 1
        remaining[v] += 1

    for values in rec(0):
        yield DTarget.of(graph, d, dict(zip(edges, values)))


@dataclass(frozen=True)
class CorpusSpec:
    bases: tuple[str, ...] = FIXTURE_NAMES
    d: int = 8
    max_vertices: int = 12
    require_oddly_connected: bool = True
    require_valid: bool = True
    min_mult: int = 1
    limit_per_base: int = 48
    cut_cap: int = DEFAULT_CUT_CAP


@dataclass(frozen=True)
class CorpusItem:
    name: str
    target: DTarget


def _passes(spec: CorpusSpec, t: DTarget) -> bool:
    if spec.require_valid:
        report = validate(t)
        if not (report.degree_ok and report.euler_ok):
            return False
    if spec.require_oddly_connected:
        try:
            if not is_oddly_connected(t, cap=spec.cut_cap):
                return False
        except DTargetError:
            return False
    return True


def build_corpus(spec: CorpusSpec = CorpusSpec()) -> list[CorpusItem]:
    """A deterministic target list: for each base graph, its bundled
    multiplicity assignment first, then enumerated assignments in order,
    filtered per the spec and capped at limit_per_base."""
    items: list[CorpusItem] = []
    for base in spec.bases:
        canonical = load_fixture(base)
        if canonical.vertex_count > spec.max_vertices:
            continue
        taken = 0
        seen: set[tuple] = set()
        if spec.limit_per_base > 0 and canonical.d == spec.d and _passes(spec, canonical):
            items.append(CorpusItem(f"{base}/canonical", canonical))
            seen.add(canonical.mult_items)
            taken += 1
        counter = 0
        for t in enumerate_multiplicities(
            canonical.graph, spec.d, min_mult=spec.min_mult
        ):
            if taken >= spec.limit_per_base:
                break
            if t.mult_items in seen:
                continue
            if not _passes(spec, t):
                continue
            items.append(CorpusItem(f"{base}/{counter:04d}", t))
            seen.add(t.mult_items)
            taken += 1
            counter += 1
    return items
