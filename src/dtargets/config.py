"""Doors, big/small regions, heaviness, toughness, the 19 local patterns, and
the primality verdict.

Each pattern is one entry of the pattern table: its vertex labels, a
placement generator, the generator's shape predicate and an evaluator.  A
placement (the named regions and vertices) and its shape depend on the
embedding only, so each generator runs once per graph and its duplicate-free
placements of the right shape are a graph fact (``planar.fact``), in
vertex-tuple order.  The door table (each region's doors and whether it is
small, filled in one pass on first use) and each triangle's toughness are
facts of a target, and the evaluators judge only a placement's multiplicity
conditions on each target.  Detection and re-checking are generic over the
pattern table; ``is_prime`` stops at the least match.  Shared conventions:

* the disc of a placement is the closed union of its named regions; the
  "second region" of a boundary edge is its incident region outside that
  disc, and ``m_plus`` adds 1 exactly when that second region is small; a
  placement whose second region is ambiguous fails, for all patterns alike
  (in ``_matches`` and ``recheck``);
* named vertices are pairwise distinct and named regions are distinct
  (degenerate placements whose region union pinches into a non-disc are
  skipped);
* matches are enumerated over all labelled placements and reported once per
  orbit of the pattern's own symmetries, each match carrying the witnessing
  numeric facts.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from typing import NamedTuple

from .cuts import CutWitness, strengthened_cut_check
from .errors import AmbiguousContext, DTargetError, NotATriangle, UnsupportedD
from .planar import (
    DTarget,
    Edge,
    Region,
    RotationGraph,
    connectivity_level,
    fact,
    norm_edge,
    other_region,
    require_target,
)


def _require_d8(t: DTarget) -> None:
    if t.d != 8:
        raise UnsupportedD(f"this analysis is defined for d = 8 only, got d = {t.d}")


def edges_disjoint(e: Edge, f: Edge) -> bool:
    """Distinct edges sharing no end."""
    return e != f and not (set(e) & set(f))


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def doors(t: DTarget, r: Region) -> tuple[Edge, ...]:
    """The doors of r: multiplicity-1 boundary edges whose far region offers a
    disjoint multiplicity-1 edge."""
    return door_table(t)[0][r.id]


def door_table(t: DTarget) -> tuple[tuple[tuple[Edge, ...], ...], tuple[bool, ...]]:
    """(doors, small) indexed by region id, small meaning fewer than four
    doors: one fact of the target, filled in one pass on first use."""
    return fact(t, "doors", _door_table)


def _door_table(t: DTarget):
    table = tuple(_find_doors(t, r) for r in t.graph.faces)
    return table, tuple(len(ds) < 4 for ds in table)


def _find_doors(t: DTarget, r: Region) -> tuple[Edge, ...]:
    found: set[Edge] = set()
    for e in r.edges:
        if t.m_edge(e) != 1:
            continue
        far = other_region(t, e, r)
        if any(t.m_edge(f) == 1 and edges_disjoint(e, f) for f in far.edges):
            found.add(e)
    return tuple(sorted(found))


def is_big(t: DTarget, r: Region) -> bool:
    """At least four doors."""
    return not door_table(t)[1][r.id]


def second_region(t: DTarget, e: Edge, disc) -> Region:
    """The region incident with e outside the disc (a collection of region ids)."""
    graph = t.graph
    u, v = e
    r1 = graph.dart_region[(u, v)]
    r2 = graph.dart_region[(v, u)]
    in1, in2 = r1.id in disc, r2.id in disc
    if in1 and in2:
        raise AmbiguousContext(f"both regions of edge {norm_edge(u, v)} lie in the disc")
    if not in1 and not in2:
        raise AmbiguousContext(f"edge {norm_edge(u, v)} is not on the disc boundary")
    return r2 if in1 else r1


def m_plus(t: DTarget, e: Edge, disc) -> int:
    """m(e), plus one when the second region outside the disc is small."""
    second = second_region(t, e, disc)
    return t.m_edge(e) + door_table(t)[1][second.id]


def is_heavy(t: DTarget, e: Edge, r: Region, i: int) -> bool:
    """m(e) >= i, or the far region is a triangle uvw with e = uv and
    m(uv) + min(m(uw), m(vw)) >= i."""
    e = norm_edge(*e)
    if t.m_edge(e) >= i:
        return True
    far = other_region(t, e, r)
    if far.length != 3:
        return False
    u, v = e
    (w,) = set(far.vertices) - {u, v}
    return t.m_edge(e) + min(t.m(u, w), t.m(v, w)) >= i


def triangle_multiplicity(t: DTarget, r: Region) -> int:
    if r.length != 3:
        raise NotATriangle(f"region {r.id} has length {r.length}")
    return sum(t.m_edge(e) for e in r.edges)


def is_tough(t: DTarget, r: Region) -> bool:
    """A triangle of multiplicity at least five; in the (1,2,2) case the two
    multiplicity-2 edges must additionally have m_plus values summing to at
    least 5 (disc = the triangle itself)."""
    if r.length != 3:
        return False
    return fact(t, ("tough", r.id), _find_tough, r)


def _find_tough(t: DTarget, r: Region) -> bool:
    if triangle_multiplicity(t, r) < 5:
        return False
    by_mult = sorted(r.edges, key=t.m_edge)
    if [t.m_edge(e) for e in by_mult] != [1, 2, 2]:
        return True
    disc = (r.id,)
    return m_plus(t, by_mult[1], disc) + m_plus(t, by_mult[2], disc) >= 5


# ---------------------------------------------------------------------------
# Non-primality witnesses: each renders its own kind, payload and text
# ---------------------------------------------------------------------------


class _Witness:
    """A reason a target is not prime, rendered as a ``kind``, a machine
    ``payload()`` and a one-line ``text()``."""

    @property
    def kind(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class ConfigMatch(_Witness):
    conf_index: int
    names: tuple[tuple[str, int], ...]
    region_ids: tuple[int, ...]
    satisfied: tuple[str, ...]
    branch: str | None = None

    @cached_property
    def vertex_map(self) -> dict[str, int]:
        return dict(self.names)

    @property
    def vertex_tuple(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.names)

    @property
    def kind(self) -> str:
        return f"Conf({self.conf_index})"

    def payload(self) -> dict:
        return {
            "kind": self.kind,
            "conf": self.conf_index,
            "names": dict(self.names),
            "region_ids": list(self.region_ids),
            "satisfied": list(self.satisfied),
            "branch": self.branch,
        }

    def text(self) -> str:
        names = ", ".join(f"{name}={v}" for name, v in self.names)
        branch = f" [branch {self.branch}]" if self.branch else ""
        return f"{self.kind} at {names}{branch}: " + "; ".join(self.satisfied)


@dataclass(frozen=True)
class ZeroMultEdge(_Witness):
    edge: Edge

    def payload(self) -> dict:
        return {"kind": self.kind, "edge": list(self.edge)}

    def text(self) -> str:
        return f"edge {self.edge} has multiplicity 0"


@dataclass(frozen=True)
class TooFewVertices(_Witness):
    vertex_count: int

    def payload(self) -> dict:
        return {"kind": self.kind, "vertex_count": self.vertex_count}

    def text(self) -> str:
        return f"only {self.vertex_count} vertices (fewer than 6)"


@dataclass(frozen=True)
class CutViolation(_Witness):
    witness: CutWitness

    def payload(self) -> dict:
        return {"kind": self.kind, "X": list(self.witness.X), "value": self.witness.value}

    def text(self) -> str:
        return (
            f"odd cut X={list(self.witness.X)} has value {self.witness.value} < 10 "
            "with both sides larger than one vertex"
        )


@dataclass(frozen=True)
class NotThreeConnected(_Witness):
    level: int

    def payload(self) -> dict:
        return {"kind": self.kind, "level": self.level}

    def text(self) -> str:
        return f"connectivity level {self.level} (not 3-connected)"


@dataclass(frozen=True)
class MultiplicityOver6(_Witness):
    edge: Edge

    def payload(self) -> dict:
        return {"kind": self.kind, "edge": list(self.edge)}

    def text(self) -> str:
        return f"edge {self.edge} has multiplicity above 6"


@dataclass(frozen=True)
class PrimalityVerdict:
    is_prime: bool
    witness: _Witness | None

    @property
    def witness_kind(self) -> str | None:
        return None if self.witness is None else self.witness.kind


# ---------------------------------------------------------------------------
# Placements: each generator reads the graph alone and yields flat tuples,
# the placement's regions followed by its named vertices in label order.
# Orbit filters keep one labelling per symmetry class where a pattern is
# symmetric; bounds an evaluator checks itself are left to the evaluator.
# Each generator has one shape predicate, shape(graph, *placement): the
# structure of the pattern (which regions, which cycles, which degrees),
# checked once per graph on the generated placements and again by
# ``recheck`` on a reported match.
# ---------------------------------------------------------------------------


def _regions_of_length(graph: RotationGraph, length: int) -> list[Region]:
    return [r for r in graph.faces if r.length == length]


def _cyclic_labelings(r: Region) -> list[tuple[int, ...]]:
    """All rotations and reflections of the boundary vertex cycle."""
    cycle = r.vertices
    k = len(cycle)
    out = []
    for start in range(k):
        out.append(tuple(cycle[(start + j) % k] for j in range(k)))
        out.append(tuple(cycle[(start - j) % k] for j in range(k)))
    return out


def _third_vertex(r: Region, u: int, v: int) -> int:
    (w,) = set(r.vertices) - {u, v}
    return w


def _degree(graph: RotationGraph, v: int) -> int:
    return len(graph.rotations[v])


def _region_cycle(graph: RotationGraph, r: Region, *vs: int) -> bool:
    """vs, in order, is the boundary cycle of r."""
    k = len(vs)
    return (
        r.length == k
        and len(set(vs)) == k
        and all(norm_edge(vs[i - 1], vs[i]) in r.edge_set for i in range(k))
    )


def _degree3_corner_shape(graph: RotationGraph, tri: Region, u, v, w, x) -> bool:
    return (
        _region_cycle(graph, tri, u, v, w)
        and _degree(graph, u) == 3
        and x not in (u, v, w)
        and x in graph.rotations[u]
    )


def _triangle_pair_shape(graph: RotationGraph, first, second, u, v, w, x) -> bool:
    return (
        first.id != second.id
        and v != x
        and _region_cycle(graph, first, u, v, w)
        and _region_cycle(graph, second, u, w, x)
    )


def _square_triangle_shape(graph: RotationGraph, square, tri, u, v, w, x, y) -> bool:
    return (
        square.id != tri.id
        and y not in (u, v)
        and _region_cycle(graph, square, u, v, w, x)
        and _region_cycle(graph, tri, w, x, y)
    )


def _region_edge_shape(graph: RotationGraph, r: Region, u, v) -> bool:
    return r.length >= 3 and norm_edge(u, v) in r.edge_set


def _region_triangle_shape(graph: RotationGraph, r, tri, u, v, w) -> bool:
    return (
        r.id != tri.id
        and w not in r.vertex_set
        and _region_edge_shape(graph, r, u, v)
        and _region_cycle(graph, tri, u, v, w)
    )


def _triangle_edges(graph: RotationGraph):
    """Triangle uvw with u < v."""
    for tri in _regions_of_length(graph, 3):
        for u, v in combinations(sorted(tri.vertices), 2):
            yield tri, u, v, _third_vertex(tri, u, v)


def _triangle_corners(graph: RotationGraph):
    """Triangle uvw with v < w."""
    for tri in _regions_of_length(graph, 3):
        for u in tri.vertices:
            v, w = sorted(set(tri.vertices) - {u})
            yield tri, u, v, w


def _triangle_degree3_corners(graph: RotationGraph):
    """Triangle uvw with deg(u) = 3 and x the neighbour of u off the triangle."""
    for tri in _regions_of_length(graph, 3):
        for u in tri.vertices:
            if _degree(graph, u) != 3:
                continue
            (x,) = set(graph.rotations[u]) - set(tri.vertices)
            for v, w in permutations(sorted(set(tri.vertices) - {u})):
                yield tri, u, v, w, x


def _triangle_pairs(graph: RotationGraph):
    """Ordered pairs of triangle regions sharing one edge, with both
    orientations of the shared edge: yields (T1, T2, u, v, w, x) for
    triangles uvw and uwx."""
    for a, b in graph.edges:
        r1 = graph.dart_region[(a, b)]
        r2 = graph.dart_region[(b, a)]
        if r1.id == r2.id or r1.length != 3 or r2.length != 3:
            continue
        for first, second in ((r1, r2), (r2, r1)):
            for u, w in ((a, b), (b, a)):
                v, x = _third_vertex(first, u, w), _third_vertex(second, u, w)
                yield first, second, u, v, w, x


def _triangle_pair_orbits(graph: RotationGraph):
    """Triangle pairs, one of each (u, v, w, x) ~ (w, x, u, v) orbit."""
    for placement in _triangle_pairs(graph):
        _, _, u, v, w, x = placement
        if (u, v, w, x) <= (w, x, u, v):
            yield placement


def _labelled_regions(length: int):
    """Each region of the given length under every labelling of its cycle."""

    def placements(graph: RotationGraph):
        for r in _regions_of_length(graph, length):
            for vs in _cyclic_labelings(r):
                yield (r, *vs)

    return placements


_squares = _labelled_regions(4)


def _square_orbits(graph: RotationGraph):
    """Conf 4's squares uvwx, one labelling per orbit of the symmetries
    (u, v, w, x) -> (w, x, u, v) and (u, v, w, x) -> (v, u, x, w)."""
    for square, u, v, w, x in _placements(graph, _PATTERNS[4]):
        orbit = ((u, v, w, x), (w, x, u, v), (v, u, x, w), (x, w, v, u))
        if (u, v, w, x) == min(orbit):
            yield square, u, v, w, x


def _square_triangles(graph: RotationGraph):
    """Conf 4's squares uvwx whose edge wx borders a triangle region wxy."""
    for square, u, v, w, x in _placements(graph, _PATTERNS[4]):
        tri = other_region(graph, norm_edge(w, x), square)
        if tri.length == 3:
            yield square, tri, u, v, w, x, _third_vertex(tri, w, x)


def _region_edges(graph: RotationGraph):
    """Boundary edge uv (u < v) of a region."""
    for r in graph.faces:
        for u, v in sorted(r.edge_set):
            yield r, u, v


def _region_triangles(graph: RotationGraph):
    """Edge uv on C_r whose far region is a triangle uvw."""
    for a, b in graph.edges:
        r1 = graph.dart_region[(a, b)]
        r2 = graph.dart_region[(b, a)]
        if r1.id == r2.id:
            continue
        for r, tri in ((r1, r2), (r2, r1)):
            if tri.length == 3:
                for u, v in ((a, b), (b, a)):
                    yield r, tri, u, v, _third_vertex(tri, u, v)


# ---------------------------------------------------------------------------
# Per-pattern evaluators: called with a target and a placement, they return
# None when the conditions fail, else (satisfied facts, branch); only Conf 18
# has branches.  An ambiguous second region (AmbiguousContext) fails the
# placement in ``_matches`` and ``recheck``, not here.  The shape predicate
# has already passed (once per graph, or in ``recheck``), so an evaluator
# judges the multiplicities, and only the bounds particular to its own pattern.
# ---------------------------------------------------------------------------


def _eval_conf1(t, tri: Region, u, v, w):
    if _degree(t.graph, u) != 3 or _degree(t.graph, v) != 3:
        return None
    return (f"deg({u}) = 3", f"deg({v}) = 3"), None


def _eval_conf2(t, tri: Region, u, v, w, x):
    lhs, rhs = t.m(u, x), t.m(u, w) + t.m(v, w)
    if lhs >= rhs:
        return None
    return (f"m({u},{x}) = {lhs} < {rhs} = m({u},{w}) + m({v},{w})",), None


def _eval_conf3(t, first, second, u, v, w, x):
    total = t.m(u, v) + t.m(u, w) + t.m(v, w) + t.m(u, x)
    if total < 8:
        return None
    return (f"m({u},{v}) + m({u},{w}) + m({v},{w}) + m({u},{x}) = {total} >= 8",), None


def _eval_conf4(t, square: Region, u, v, w, x):
    total = t.m(u, v) + t.m(v, w) + t.m(u, x)
    profile = (t.m(u, v), t.m(v, w), t.m(w, x), t.m(u, x))
    if total < 8 or profile == (4, 2, 1, 2):
        return None
    return (
        f"m({u},{v}) + m({v},{w}) + m({u},{x}) = {total} >= 8",
        f"(m(uv),m(vw),m(wx),m(ux)) = {profile} != (4, 2, 1, 2)",
    ), None


def _eval_conf5(t, first, second, u, v, w, x):
    disc = (first.id, second.id)
    total = (
        m_plus(t, norm_edge(u, v), disc)
        + t.m(u, w)
        + m_plus(t, norm_edge(w, x), disc)
    )
    if total < 7:
        return None
    return (f"m+({u},{v}) + m({u},{w}) + m+({w},{x}) = {total} >= 7",), None


def _eval_conf6(t, square: Region, u, v, w, x):
    disc = (square.id,)
    total = m_plus(t, norm_edge(u, v), disc) + m_plus(t, norm_edge(w, x), disc)
    if total < 7:
        return None
    return (f"m+({u},{v}) + m+({w},{x}) = {total} >= 7",), None


def _eval_conf7(t, tri: Region, u, v, w):
    disc = (tri.id,)
    total = m_plus(t, norm_edge(u, v), disc) + m_plus(t, norm_edge(u, w), disc)
    if total < 7:
        return None
    return (f"m+({u},{v}) + m+({u},{w}) = {total} >= 7",), None


def _door_disjoint_from(t, region: Region, vertices: set[int]) -> bool:
    return any(not (set(d) & vertices) for d in doors(t, region))


def _eval_conf8(t, tri: Region, u, v, w):
    if t.m(u, v) != 3 or t.m(u, w) != 2 or t.m(v, w) != 2:
        return None
    tri_vertices = {u, v, w}
    blocked = []
    for e in (norm_edge(u, v), norm_edge(u, w), norm_edge(v, w)):
        far = other_region(t, e, tri)
        if not _door_disjoint_from(t, far, tri_vertices):
            blocked.append(e)
    if not blocked:
        return None
    return (
        "m(uv), m(uw), m(vw) = 3, 2, 2",
        f"second region(s) of {blocked} have no door disjoint from the triangle",
    ), None


def _eval_conf9(t, tri: Region, u, v, w):
    if not (t.m(u, v) == t.m(u, w) == t.m(v, w) == 2):
        return None
    if _degree(t.graph, u) < 4:
        return None
    tri_vertices = {u, v, w}
    facts = [f"deg({u}) = {_degree(t.graph, u)} >= 4", "all multiplicities 2"]
    for e in (norm_edge(u, v), norm_edge(u, w)):
        far = other_region(t, e, tri)
        ds = doors(t, far)
        if len(ds) > 1 or _door_disjoint_from(t, far, tri_vertices):
            return None
        facts.append(f"second region of {e}: {len(ds)} door(s), none disjoint")
    return tuple(facts), None


def _eval_conf10(t, square, tri, u, v, w, x, y):
    if not (t.m(u, v) == 2 and t.m(w, x) == 2 and t.m(x, y) == 2 and t.m(v, w) == 4):
        return None
    return ("m(uv) = m(wx) = m(xy) = 2", "m(vw) = 4"), None


def _eval_conf11(t, square, tri, u, v, w, x, y):
    if not (t.m(u, v) >= 3 and t.m(w, y) >= 3 and t.m(w, x) == 1 and t.m(u, x) <= 3):
        return None
    plus = m_plus(t, norm_edge(x, y), (square.id, tri.id))
    if plus < 3:
        return None
    return (
        f"m({u},{v}) = {t.m(u, v)} >= 3",
        f"m({w},{y}) = {t.m(w, y)} >= 3",
        "m(wx) = 1",
        f"m({u},{x}) = {t.m(u, x)} <= 3",
        f"m+({x},{y}) = {plus} >= 3",
    ), None


def _eval_conf12(t, square, tri, u, v, w, x, y):
    if not (t.m(v, w) >= 2 and t.m(w, x) == 2 and t.m(w, y) == 2 and t.m(u, x) <= 3):
        return None
    disc = (square.id, tri.id)
    uv_plus = m_plus(t, norm_edge(u, v), disc)
    xy_plus = m_plus(t, norm_edge(x, y), disc)
    if uv_plus < 2 or xy_plus < 3:
        return None
    return (
        f"m+({u},{v}) = {uv_plus} >= 2",
        f"m({v},{w}) = {t.m(v, w)} >= 2",
        "m(wx) = m(wy) = 2",
        f"m({u},{x}) = {t.m(u, x)} <= 3",
        f"m+({x},{y}) = {xy_plus} >= 3",
    ), None


def _eval_conf13(t, r: Region, *vs: int):
    e1, e2, e3, e4, e5 = (norm_edge(vs[i], vs[(i + 1) % 5]) for i in range(5))
    m = t.m_edge
    if m(e1) < max(m(e2), m(e5)):
        return None
    if m(e1) + m(e2) + m(e3) < 8:
        return None
    disc = (r.id,)
    plus = m_plus(t, e1, disc) + m_plus(t, e4, disc)
    if plus < 7:
        return None
    return (
        f"m(e1) = {m(e1)} >= max(m(e2), m(e5)) = {max(m(e2), m(e5))}",
        f"m(e1) + m(e2) + m(e3) = {m(e1) + m(e2) + m(e3)} >= 8",
        f"m+(e1) + m+(e4) = {plus} >= 7",
    ), None


def _eval_conf14(t, r: Region, u, v):
    e = norm_edge(u, v)
    plus = m_plus(t, e, (r.id,))
    if plus < 6:
        return None
    disjoint_doors = [f for f in doors(t, r) if edges_disjoint(e, f)]
    if len(disjoint_doors) > 6:
        return None
    return (
        f"m+({e[0]},{e[1]}) = {plus} >= 6",
        f"{len(disjoint_doors)} door(s) of the region disjoint from the edge (<= 6)",
    ), None


def _eval_conf15(t, r: Region, u, v):
    e = norm_edge(u, v)
    if r.length < 4:
        return None
    plus = m_plus(t, e, (r.id,))
    if plus < 4:
        return None
    others = [f for f in r.edges if edges_disjoint(e, f)]
    if not all(is_heavy(t, f, r, 3) for f in others):
        return None
    return (
        f"m+({e[0]},{e[1]}) = {plus} >= 4",
        f"all {len(others)} boundary edges disjoint from the edge are 3-heavy",
    ), None


def _second_boundary_edge_at(r: Region, u: int, first: Edge) -> Edge | None:
    at_u = [f for f in r.edges if u in f and f != first]
    return at_u[0] if len(at_u) == 1 else None


def _eval_conf16(t, r: Region, tri: Region, u, v, w):
    uv = norm_edge(u, v)
    disc = (r.id, tri.id)
    uw_plus = m_plus(t, norm_edge(u, w), disc)
    if t.m(u, v) + uw_plus < 4:
        return None
    if t.m(v, w) > t.m(u, w):
        return None
    g = _second_boundary_edge_at(r, u, uv)
    if g is None or t.m_edge(g) > t.m(u, w):
        return None
    away_from_u = [f for f in r.edges if u not in f]
    if not all(is_heavy(t, f, r, 3) for f in away_from_u):
        return None
    return (
        f"m({u},{v}) + m+({u},{w}) = {t.m(u, v) + uw_plus} >= 4",
        f"m({v},{w}) = {t.m(v, w)} <= {t.m(u, w)} = m({u},{w})",
        f"second boundary edge at {u}: m({g[0]},{g[1]}) = {t.m_edge(g)} <= m({u},{w})",
        f"all {len(away_from_u)} boundary edges avoiding {u} are 3-heavy",
    ), None


def _eval_conf17(t, r: Region, u, v):
    e = norm_edge(u, v)
    if r.length < 5:
        return None
    disc = (r.id,)
    plus = m_plus(t, e, disc)
    if plus < 5:
        return None
    others = [f for f in r.edges if edges_disjoint(e, f)]
    if any(m_plus(t, f, disc) < 2 for f in others):
        return None
    light = sum(1 for f in others if not is_heavy(t, f, r, 3))
    if light > 1:
        return None
    return (
        f"m+({e[0]},{e[1]}) = {plus} >= 5",
        "all boundary edges disjoint from the edge have m+ >= 2",
        f"{light} of them not 3-heavy (<= 1)",
    ), None


def _eval_conf18(t, r: Region, tri: Region, u, v, w):
    uv = norm_edge(u, v)
    if r.length < 4:
        return None
    disc = (r.id, tri.id)
    uw_plus = m_plus(t, norm_edge(u, w), disc)
    if uw_plus + t.m(u, v) < 5:
        return None
    if t.m(v, w) > t.m(u, w):
        return None
    g = _second_boundary_edge_at(r, u, uv)
    if g is None or t.m_edge(g) > t.m(u, w):
        return None

    def count_ok(edge_set: list[Edge]) -> bool:
        # An ambiguous edge fails this branch only, not the placement.
        try:
            if any(m_plus(t, f, disc) < 2 for f in edge_set):
                return False
        except AmbiguousContext:
            return False
        return sum(1 for f in edge_set if not is_heavy(t, f, r, 3)) <= 1

    branch_a = (
        t.m(u, v) == 3
        and is_heavy(t, uv, r, 5)
        and count_ok([f for f in r.edges if edges_disjoint(uv, f)])
    )
    branch_b = count_ok([f for f in r.edges if u not in f])
    if not branch_a and not branch_b:
        return None
    branch = "ab" if branch_a and branch_b else ("a" if branch_a else "b")
    return (
        f"m+({u},{w}) + m({u},{v}) = {uw_plus + t.m(u, v)} >= 5",
        f"m({v},{w}) <= m({u},{w})",
        f"second boundary edge at {u} has multiplicity <= m({u},{w})",
        f"branch {branch}",
    ), branch


def _eval_conf19(t, r: Region, u, v):
    e = norm_edge(u, v)
    if r.length < 5:
        return None
    plus = m_plus(t, e, (r.id,))
    if plus < 5:
        return None
    others = [f for f in r.edges if edges_disjoint(e, f)]
    if not all(is_heavy(t, f, r, 2) for f in others):
        return None
    light = sum(1 for f in others if not is_heavy(t, f, r, 3))
    if light > 2:
        return None
    return (
        f"m+({e[0]},{e[1]}) = {plus} >= 5",
        "all boundary edges disjoint from the edge are 2-heavy",
        f"{light} of them not 3-heavy (<= 2)",
    ), None


# ---------------------------------------------------------------------------
# The pattern table and the generic detection over it
# ---------------------------------------------------------------------------


class _Pattern(NamedTuple):
    labels: tuple[str, ...]  # names of the placement's vertices, in order
    placements: Callable[[RotationGraph], Iterator[tuple]]
    shape: Callable[..., bool]  # the generator's, so patterns sharing it agree
    evaluate: Callable[..., tuple[tuple[str, ...], str | None] | None]


_UV = ("u", "v")
_UVW = ("u", "v", "w")
_UVWX = ("u", "v", "w", "x")
_UVWXY = ("u", "v", "w", "x", "y")
_V5 = ("v1", "v2", "v3", "v4", "v5")

_PATTERNS: dict[int, _Pattern] = {
    1: _Pattern(_UVW, _triangle_edges, _region_cycle, _eval_conf1),
    2: _Pattern(_UVWX, _triangle_degree3_corners, _degree3_corner_shape, _eval_conf2),
    3: _Pattern(_UVWX, _triangle_pairs, _triangle_pair_shape, _eval_conf3),
    4: _Pattern(_UVWX, _squares, _region_cycle, _eval_conf4),
    5: _Pattern(_UVWX, _triangle_pair_orbits, _triangle_pair_shape, _eval_conf5),
    6: _Pattern(_UVWX, _square_orbits, _region_cycle, _eval_conf6),
    7: _Pattern(_UVW, _triangle_corners, _region_cycle, _eval_conf7),
    8: _Pattern(_UVW, _triangle_edges, _region_cycle, _eval_conf8),
    9: _Pattern(_UVW, _triangle_corners, _region_cycle, _eval_conf9),
    10: _Pattern(_UVWXY, _square_triangles, _square_triangle_shape, _eval_conf10),
    11: _Pattern(_UVWXY, _square_triangles, _square_triangle_shape, _eval_conf11),
    12: _Pattern(_UVWXY, _square_triangles, _square_triangle_shape, _eval_conf12),
    13: _Pattern(_V5, _labelled_regions(5), _region_cycle, _eval_conf13),
    14: _Pattern(_UV, _region_edges, _region_edge_shape, _eval_conf14),
    15: _Pattern(_UV, _region_edges, _region_edge_shape, _eval_conf15),
    16: _Pattern(_UVW, _region_triangles, _region_triangle_shape, _eval_conf16),
    17: _Pattern(_UV, _region_edges, _region_edge_shape, _eval_conf17),
    18: _Pattern(_UVW, _region_triangles, _region_triangle_shape, _eval_conf18),
    19: _Pattern(_UV, _region_edges, _region_edge_shape, _eval_conf19),
}


def _entry(k: int) -> _Pattern:
    if k not in _PATTERNS:
        raise DTargetError(f"no such configuration index: {k}")
    return _PATTERNS[k]


def _placements(graph: RotationGraph, pattern: _Pattern) -> tuple[tuple, ...]:
    """The pattern's placements on the graph, kept under its generator."""
    return fact(graph, pattern.placements, _shaped_placements, pattern)


def _shaped_placements(graph: RotationGraph, pattern: _Pattern) -> tuple[tuple, ...]:
    """The generator's output without repeats and of the right shape, stably
    sorted by vertex tuple."""
    split = -len(pattern.labels)
    kept = [p for p in dict.fromkeys(pattern.placements(graph)) if pattern.shape(graph, *p)]
    kept.sort(key=lambda p: p[split:])
    return tuple(kept)


def _matches(t: DTarget, k: int) -> Iterator[ConfigMatch]:
    """The matches of pattern k, one per placement, in placement order; a
    placement whose second region is ambiguous fails."""
    pattern = _entry(k)
    split, evaluate = -len(pattern.labels), pattern.evaluate
    for placement in _placements(t.graph, pattern):
        try:
            result = evaluate(t, *placement)
        except AmbiguousContext:
            continue
        if result is not None:
            regions, vs = placement[:split], placement[split:]
            names = tuple(zip(pattern.labels, vs))
            yield ConfigMatch(k, names, tuple(r.id for r in regions), *result)


def detect(t: DTarget, k: int) -> list[ConfigMatch]:
    """All matches of pattern k, one per placement, sorted by vertex tuple."""
    _require_d8(t)
    return list(_matches(t, k))


def detect_all(t: DTarget) -> list[ConfigMatch]:
    """Matches of every pattern, ascending pattern index."""
    _require_d8(t)
    out: list[ConfigMatch] = []
    for k in _PATTERNS:
        out.extend(detect(t, k))
    return out


def recheck(t: DTarget, match: ConfigMatch) -> bool:
    """Re-check a match's shape and conditions on its named elements."""
    labels, _, shape, evaluate = _entry(match.conf_index)
    if tuple(name for name, _ in match.names) != labels:
        return False
    faces = t.graph.faces
    placement = tuple(faces[i] for i in match.region_ids) + match.vertex_tuple
    try:
        return shape(t.graph, *placement) and evaluate(t, *placement) is not None
    except AmbiguousContext:
        return False


# ---------------------------------------------------------------------------
# Primality
# ---------------------------------------------------------------------------


def is_prime(t: DTarget) -> PrimalityVerdict:
    """Refuse a non-target (``DTargetError``), then check the structural
    bullets in their fixed order, then the patterns.

    The first failing check becomes the witness: for the patterns, the least
    match (in vertex-tuple order) of the least pattern index, found without
    evaluating the placements after it.  A prime verdict is never expected
    on valid input and is surfaced loudly by callers.
    """
    _require_d8(t)
    require_target(t)
    for e, m in t.mult_items:
        if m == 0:
            return PrimalityVerdict(False, ZeroMultEdge(e))
    if t.vertex_count < 6:
        return PrimalityVerdict(False, TooFewVertices(t.vertex_count))
    violation = strengthened_cut_check(t)
    if violation is not None:
        return PrimalityVerdict(False, CutViolation(violation))
    level = connectivity_level(t.graph)
    if level < 3:
        return PrimalityVerdict(False, NotThreeConnected(level))
    for e, m in t.mult_items:
        if m > 6:
            return PrimalityVerdict(False, MultiplicityOver6(e))
    match = next((m for k in _PATTERNS for m in _matches(t, k)), None)
    return PrimalityVerdict(match is None, match)
