"""Doors, big/small regions, heaviness, toughness, the 19 local patterns, and
the primality verdict.

Each pattern is one entry of the pattern table: its vertex labels, a
placement generator that states its structure, a compile step, and its
symmetries.
Placements and what conditions read of the embedding depend on the graph
alone, so each generator runs once per graph, and each pattern compiles its
placements once per graph into judges holding edge indices, second region ids
and far triangles: graph facts (``planar.fact``) in vertex-tuple order.  A
judge reads only a target's multiplicity vector and door table (each region's
doors and small flag, one target fact).  The door table, toughness, the
rim records of Conf 15-19 and discharge read the charge program, a graph
fact of each edge's flanks and each region's rim, compiled by one loop over
every face.  The region across an edge from a disc is read through
``_seconds`` alone, or from r's rim for r's other edges.  Shared conventions:

* the disc of a placement is the closed union of its named regions; the
  "second region" of a boundary edge is its incident region outside that
  disc, and ``m_plus`` adds 1 exactly when that second region is small; a
  placement whose second region is ambiguous never matches, so compiling
  drops it; a bridge among r's other edges fails any m+ >= 2 test on them;
* named vertices are pairwise distinct and named regions are distinct
  (the generators skip degenerate placements, whose region union pinches
  into a non-disc);
* the generators state geometry alone; the table states each pattern's
  symmetries (the label permutations that map a match to the same
  configuration), and compiling keeps the least labelling, by vertex tuple,
  of each orbit, so a match is reported once per orbit.  A judge decides on
  the vector and the door table alone; a match carries its judge's deferred
  renderer of the witnessing numeric facts, which are formatted only when
  read.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .cuts import CutWitness, strengthened_cut_check
from .errors import AmbiguousContext, DTargetError, NotTwoConnected, UnsupportedD
from .planar import (
    DTarget,
    Edge,
    Region,
    RotationGraph,
    fact,
    norm_edge,
    require_target,
)


def _require_d8(t: DTarget) -> None:
    if t.d != 8:
        raise UnsupportedD(f"this analysis is defined for d = 8 only, got d = {t.d}")


def edges_disjoint(e: Edge, f: Edge) -> bool:
    """Distinct edges sharing no end."""
    return e[0] not in f and e[1] not in f


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
    # e = uv is a door of its region p when the far region q has a
    # multiplicity-1 edge sharing no end with e.  The graph is simple, an edge
    # that is no bridge appears once in a rim, and a multiplicity-1 bridge is
    # refused first, so q's edges meeting e are e and its flanks at u and v:
    # e is a door when these hold fewer than all of q's multiplicity-1 edges.
    m, program = t.mult_vector, charge_program(t.graph)
    for i, e, rid in program.bridges:
        if m[i] == 1:
            raise NotTwoConnected(f"edge {e} borders region {rid} twice")
    ones, table = [0] * len(program.rims), [[] for _ in program.rims]
    sides = [side for side in program.sides if m[side[0]] == 1]  # in edge order
    for _, _, p, q, _, _ in sides:
        ones[p] += 1
        ones[q] += 1
    for _, e, p, q, (pu, pv), (qu, qv) in sides:
        for r, k, flanks in ((p, ones[q], qu + qv), (q, ones[p], pu + pv)):
            for f, _ in flanks:
                k -= m[f] == 1
            if k > 1:
                table[r].append(e)
    return tuple(map(tuple, table)), tuple(len(ds) < 4 for ds in table)


def is_big(t: DTarget, r: Region) -> bool:
    """At least four doors."""
    return not door_table(t)[1][r.id]


def _seconds(graph: RotationGraph, disc, *pairs) -> list[int] | None:
    """The ids of the regions outside the disc at the edges given as vertex
    pairs, or None as soon as one is ambiguous (both or neither in the disc)."""
    ids = []
    for pair in pairs:
        r1, r2 = graph.region_pairs[graph.edge_index[pair]]
        if (r1.id in disc) == (r2.id in disc):
            return None
        ids.append(r2.id if r1.id in disc else r1.id)
    return ids


def _indices(graph: RotationGraph, *pairs) -> list[int]:
    """The positions in ``graph.edges`` of the edges given as vertex pairs."""
    index = graph.edge_index
    return [index[pair] for pair in pairs]


def m_plus(t: DTarget, e: Edge, disc) -> int:
    """m(e), plus one when the second region outside the disc is small."""
    if (i := t.graph.edge_index.get(e)) is None:
        raise DTargetError(f"{norm_edge(*e)} is not an edge of the graph")
    small = door_table(t)[1]
    if (seconds := _seconds(t.graph, disc, e)) is None:
        raise AmbiguousContext(f"edge {norm_edge(*e)} is not on the disc boundary")
    return t.mult_vector[i] + small[seconds[0]]


class ChargeProgram(NamedTuple):
    """What the door table, toughness, Conf 15-19 and the discharge rules
    read of the embedding: a graph fact.  A flank is an (edge index, far
    region id) pair, the far id None across a bridge.  An edge's flanks at
    an end are its region's other boundary edges there, in boundary order:
    more than one where the face visits that end twice."""

    sides: tuple  # per edge: index, edge, region ids, then each one's flanks at its ends
    rims: tuple  # per region id: its boundary as flanks
    bridges: tuple  # (index, edge, region id), in region and boundary order


def charge_program(graph: RotationGraph) -> ChargeProgram:
    return fact(graph, "charge", _compile_charge)


def _compile_charge(graph: RotationGraph) -> ChargeProgram:
    """One loop over every face, whatever its shape.  Each vertex of the
    face maps to the rim entries at it, in boundary order; an edge's
    flanks at its end z are the entries at z but its own."""
    edges, index = graph.edges, graph.edge_index
    ids = [(r1.id, r2.id) for r1, r2 in graph.region_pairs]
    across = [{p: q, q: p} if p != q else {} for p, q in ids]  # region id -> far id
    flanks = [[None, None] for _ in edges]  # per edge, per side (its region in ``ids``)
    rims = []
    for r in graph.faces:
        rid, at = r.id, defaultdict(list)  # vertex -> the rim's entries at it, in order
        rims.append(rim := tuple([(i, across[i].get(rid)) for i in map(index.get, r.directed)]))
        for flank, (a, b) in zip(rim, r.directed):
            at[a].append(flank)
            at[b].append(flank)
        for i, s in rim:
            if s is not None:
                ends = [tuple([f for f in at[z] if f[0] != i]) for z in edges[i]]
                flanks[i][ids[i][1] == rid] = tuple(ends)
    sides = tuple((i, e, *ids[i], *flanks[i]) for i, e in enumerate(edges))
    bridges = [(i, edges[i], r) for r, rim in enumerate(rims) for i, s in rim if s is None]
    return ChargeProgram(sides, tuple(rims), tuple(dict.fromkeys(bridges)))


def _rim_records(graph: RotationGraph, r: Region, keep: Callable[[Edge], bool]) -> tuple:
    """(f, s, g, h) for each boundary edge f of r that keep holds for, in
    boundary order: f's index, the region across it (None across a bridge,
    which the rim holds twice), and s's other two edges when s is a
    triangle, else None and None."""
    rims, records = charge_program(graph).rims, []
    for f, s in rims[r.id]:
        if keep(graph.edges[f]):
            tri = s is not None and len(rims[s]) == 3
            g, h = [i for i, _ in rims[s] if i != f] if tri else (None, None)
            records.append((f, s, g, h))
    return tuple(records)


def _hefts(m, records) -> list[int]:
    """m(f), plus min(m(g), m(h)) when f's far region is a triangle, for each
    rim record: f is i-heavy exactly when this is at least i."""
    return [m[f] if g is None else m[f] + min(m[g], m[h]) for f, _, g, h in records]


def is_tough(t: DTarget, r: Region) -> bool:
    """A triangle of multiplicity at least five; in the (1,2,2) case the two
    multiplicity-2 edges must additionally have m+ values summing to at
    least 5 (disc = the triangle itself): one leads to a small region."""
    if r.length != 3:
        return False
    m, rim = t.mult_vector, charge_program(t.graph).rims[r.id]
    a, b, c = [m[i] for i, _ in rim]
    if a + b + c != 5 or {a, b, c} != {1, 2}:
        return a + b + c >= 5
    return any(door_table(t)[1][s] for i, s in rim if m[i] == 2)


# ---------------------------------------------------------------------------
# Non-primality witnesses: each renders its own kind, payload and text
# ---------------------------------------------------------------------------


class _Witness:
    """A reason a target is not prime, rendered as a ``kind``, a machine
    ``payload()`` and a one-line ``text()``."""

    @property
    def kind(self) -> str:
        return type(self).__name__


class ConfigMatch(NamedTuple):
    """A match of Conf ``conf_index`` at one placement.  ``render`` is the
    judge's deferred renderer of the witnessing facts: ``satisfied`` formats
    them on read.  Equality and hash read the rendered facts, never the
    renderer."""

    conf_index: int
    names: tuple[tuple[str, int], ...]
    region_ids: tuple[int, ...]
    render: Callable[[], tuple[str, ...]]
    branch: str | None = None

    @property
    def satisfied(self) -> tuple[str, ...]:
        return self.render()

    def _key(self) -> tuple:
        return self.conf_index, self.names, self.region_ids, self.render(), self.branch

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if isinstance(other, ConfigMatch) else NotImplemented

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        c, names, ids, satisfied, branch = self._key()
        return (
            f"ConfigMatch(conf_index={c!r}, names={names!r}, region_ids={ids!r}, "
            f"satisfied={satisfied!r}, branch={branch!r})"
        )

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
class PrimalityVerdict:
    is_prime: bool
    witness: _Witness | ConfigMatch | None

    @property
    def witness_kind(self) -> str | None:
        return None if self.witness is None else self.witness.kind


# ---------------------------------------------------------------------------
# Placements: each generator reads the graph alone and yields flat tuples,
# the placement's regions followed by its named vertices in label order.
# The generator is the one statement of its pattern's structure (which
# regions, which cycles, which degrees): it yields each placement of that
# structure once, under every labelling, and nothing else; a symmetric
# pattern's table row states the symmetries that compiling folds.  Bounds a
# pattern checks itself, such as a region's least length, are left to its
# compile step.
# ---------------------------------------------------------------------------


def _third_vertex(r: Region, u: int, v: int) -> int:
    (w,) = set(r.vertices) - {u, v}
    return w


def _degree(graph: RotationGraph, v: int) -> int:
    return len(graph.rotations[v])


def _triangle_degree3_corners(graph: RotationGraph):
    """Triangle uvw with deg(u) = 3 and x the neighbour of u off the triangle."""
    for tri, u, v, w in _placements(graph, _PATTERNS[1]):
        if _degree(graph, u) == 3:
            (x,) = set(graph.rotations[u]) - tri.vertex_set
            yield tri, u, v, w, x


def _triangle_pairs(graph: RotationGraph):
    """Ordered pairs of triangle regions sharing one edge, with both
    orientations of the shared edge: yields (T1, T2, u, v, w, x) for
    triangles uvw and uwx, v != x (K3's two faces share their third vertex)."""
    for (a, b), (r1, r2) in zip(graph.edges, graph.region_pairs):
        if r1.length != 3 or r2.length != 3:  # a bridge borders no triangle
            continue
        for first, second in ((r1, r2), (r2, r1)):
            for u, w in ((a, b), (b, a)):
                v, x = _third_vertex(first, u, w), _third_vertex(second, u, w)
                if v != x:
                    yield first, second, u, v, w, x


def _labelled_regions(length: int):
    """Each region of the given length whose boundary is a simple cycle,
    under every rotation and reflection of that cycle."""

    def placements(graph: RotationGraph):
        for r in graph.faces:
            if r.length == length == len(r.vertex_set):
                cycle = r.vertices
                for start in range(length):
                    yield (r, *cycle[start:], *cycle[:start])
                    yield (r, *cycle[start::-1], *cycle[:start:-1])

    return placements


_triangles = _labelled_regions(3)
_squares = _labelled_regions(4)


def _square_triangles(graph: RotationGraph):
    """Conf 4's squares uvwx whose edge wx borders a triangle region wxy
    with y off the edge uv."""
    for square, u, v, w, x in _placements(graph, _PATTERNS[4]):
        (far,) = _seconds(graph, (square.id,), (w, x))  # a square has no bridge
        if (tri := graph.faces[far]).length == 3:
            if (y := _third_vertex(tri, w, x)) not in (u, v):
                yield square, tri, u, v, w, x, y


def _region_edges(graph: RotationGraph):
    """Boundary edge uv (u < v) of a region."""
    for r in graph.faces:
        for u, v in sorted(r.edge_set):
            yield r, u, v


def _region_triangles(graph: RotationGraph):
    """Edge uv on C_r whose far region is a triangle uvw with w off C_r."""
    for (a, b), (r1, r2) in zip(graph.edges, graph.region_pairs):
        for r, tri in ((r1, r2), (r2, r1)):
            if tri.length == 3 and (w := _third_vertex(tri, a, b)) not in r.vertex_set:
                for u, v in ((a, b), (b, a)):
                    yield r, tri, u, v, w


# ---------------------------------------------------------------------------
# Per-pattern compile steps.  Given the graph and one of the pattern's
# placements, each returns None if the placement can never match, else its
# judge, judge(m, small, doors) on the multiplicity vector m and, for a
# flagged pattern, the door table: None if the conditions fail, else
# (render, branch).  A judge decides and formats nothing: render is a lambda
# around the facts' f-strings, reading only immutable tuples and numbers, and
# runs only when a reader asks for the facts.  Only Conf 14, 15, 17 and 19 can
# name a bridge (an ambiguous second region); the others unpack their second
# regions directly.
# ---------------------------------------------------------------------------


def _light_count(m, small, records) -> float:
    """How many of the records' edges are not 3-heavy; infinitely many if
    one has m+ < 2, a bridge (no region across) counting as such."""
    if any(s is None or m[f] + small[s] < 2 for f, s, _, _ in records):
        return math.inf
    return sum(h < 3 for h in _hefts(m, records))


def _region_edge(graph: RotationGraph, r: Region, u, v, min_length: int):
    """(e, its index, its second region) for e = uv; None if r is shorter
    than min_length or the second region is ambiguous."""
    if r.length < min_length or (seconds := _seconds(graph, (r.id,), (u, v))) is None:
        return None
    e = norm_edge(u, v)
    return e, graph.edge_index[e], seconds[0]


def _compile_conf1(graph, tri: Region, u, v, w):
    if _degree(graph, u) != 3 or _degree(graph, v) != 3:
        return None
    result = (lambda: (f"deg({u}) = 3", f"deg({v}) = 3")), None
    return lambda m, small, doors: result


def _compile_conf2(graph, tri: Region, u, v, w, x):
    ux, uw, vw = _indices(graph, (u, x), (u, w), (v, w))
    def judge(m, small, doors):
        lhs, rhs = m[ux], m[uw] + m[vw]
        if lhs >= rhs:
            return None
        return (lambda: (f"m({u},{x}) = {lhs} < {rhs} = m({u},{w}) + m({v},{w})",)), None
    return judge


def _compile_conf3(graph, first, second, u, v, w, x):
    uv, uw, vw, ux = _indices(graph, (u, v), (u, w), (v, w), (u, x))
    def judge(m, small, doors):
        total = m[uv] + m[uw] + m[vw] + m[ux]
        if total < 8:
            return None
        return (
            lambda: (f"m({u},{v}) + m({u},{w}) + m({v},{w}) + m({u},{x}) = {total} >= 8",)
        ), None
    return judge


def _compile_conf4(graph, square: Region, u, v, w, x):
    uv, vw, wx, ux = _indices(graph, (u, v), (v, w), (w, x), (u, x))
    def judge(m, small, doors):
        total = m[uv] + m[vw] + m[ux]
        profile = (m[uv], m[vw], m[wx], m[ux])
        if total < 8 or profile == (4, 2, 1, 2):
            return None
        return (lambda: (
            f"m({u},{v}) + m({v},{w}) + m({u},{x}) = {total} >= 8",
            f"(m(uv),m(vw),m(wx),m(ux)) = {profile} != (4, 2, 1, 2)",
        )), None
    return judge


def _compile_conf5(graph, first, second, u, v, w, x):
    s_uv, s_wx = _seconds(graph, (first.id, second.id), (u, v), (w, x))
    uv, uw, wx = _indices(graph, (u, v), (u, w), (w, x))
    def judge(m, small, doors):
        total = m[uv] + small[s_uv] + m[uw] + m[wx] + small[s_wx]
        if total < 7:
            return None
        return (lambda: (f"m+({u},{v}) + m({u},{w}) + m+({w},{x}) = {total} >= 7",)), None
    return judge


def _compile_plus_pair(graph, r: Region, ab, cd):
    """Conf 6 and 7: m+(ab) + m+(cd) >= 7, the disc being r."""
    (s_ab, s_cd), (i_ab, i_cd) = _seconds(graph, (r.id,), ab, cd), _indices(graph, ab, cd)
    def judge(m, small, doors):
        total = m[i_ab] + small[s_ab] + m[i_cd] + small[s_cd]
        if total < 7:
            return None
        return (lambda: (f"m+({ab[0]},{ab[1]}) + m+({cd[0]},{cd[1]}) = {total} >= 7",)), None
    return judge


def _compile_conf6(graph, square: Region, u, v, w, x):
    return _compile_plus_pair(graph, square, (u, v), (w, x))


def _compile_conf7(graph, tri: Region, u, v, w):
    return _compile_plus_pair(graph, tri, (u, v), (u, w))


def _door_sides(graph: RotationGraph, tri: Region, *pairs) -> list[tuple[Edge, int]]:
    """(e, far region id) for each triangle edge e.  A door of the far region
    is one of its edges, so it avoids the triangle iff it shares no vertex
    with it."""
    fars = _seconds(graph, (tri.id,), *pairs)  # a triangle has no bridge
    return [(norm_edge(*pair), far) for pair, far in zip(pairs, fars)]


def _compile_conf8(graph, tri: Region, u, v, w):
    uv, uw, vw = _indices(graph, (u, v), (u, w), (v, w))
    sides, corners = _door_sides(graph, tri, (u, v), (u, w), (v, w)), tri.vertex_set
    def judge(m, small, doors):
        if m[uv] != 3 or m[uw] != 2 or m[vw] != 2:
            return None
        blocked = tuple([e for e, far in sides if not any(map(corners.isdisjoint, doors[far]))])
        if not blocked:
            return None
        return (lambda: (
            "m(uv), m(uw), m(vw) = 3, 2, 2",
            f"second region(s) of {list(blocked)} have no door disjoint from the triangle",
        )), None
    return judge


def _compile_conf9(graph, tri: Region, u, v, w):
    if (degree := _degree(graph, u)) < 4:
        return None
    uv, uw, vw = _indices(graph, (u, v), (u, w), (v, w))
    sides, corners = _door_sides(graph, tri, (u, v), (u, w)), tri.vertex_set
    def judge(m, small, doors):
        if not (m[uv] == m[uw] == m[vw] == 2):
            return None
        for _, far in sides:
            ds = doors[far]
            if len(ds) > 1 or any(map(corners.isdisjoint, ds)):
                return None
        return (lambda: (
            f"deg({u}) = {degree} >= 4",
            "all multiplicities 2",
            *[f"second region of {e}: {len(doors[f])} door(s), none disjoint" for e, f in sides],
        )), None
    return judge


def _compile_conf10(graph, square, tri, u, v, w, x, y):
    uv, wx, xy, vw = _indices(graph, (u, v), (w, x), (x, y), (v, w))
    result = (lambda: ("m(uv) = m(wx) = m(xy) = 2", "m(vw) = 4")), None
    return lambda m, small, doors: (
        result if m[uv] == m[wx] == m[xy] == 2 and m[vw] == 4 else None
    )


def _compile_conf11(graph, square, tri, u, v, w, x, y):
    (s_xy,) = _seconds(graph, (square.id, tri.id), (x, y))
    uv, wy, wx, ux, xy = _indices(graph, (u, v), (w, y), (w, x), (u, x), (x, y))
    def judge(m, small, doors):
        if not (m[uv] >= 3 and m[wy] >= 3 and m[wx] == 1 and m[ux] <= 3):
            return None
        plus = m[xy] + small[s_xy]
        if plus < 3:
            return None
        return (lambda: (
            f"m({u},{v}) = {m[uv]} >= 3",
            f"m({w},{y}) = {m[wy]} >= 3",
            "m(wx) = 1",
            f"m({u},{x}) = {m[ux]} <= 3",
            f"m+({x},{y}) = {plus} >= 3",
        )), None
    return judge


def _compile_conf12(graph, square, tri, u, v, w, x, y):
    s_uv, s_xy = _seconds(graph, (square.id, tri.id), (u, v), (x, y))
    uv, vw, wx, wy, ux, xy = _indices(graph, (u, v), (v, w), (w, x), (w, y), (u, x), (x, y))
    def judge(m, small, doors):
        if not (m[vw] >= 2 and m[wx] == 2 and m[wy] == 2 and m[ux] <= 3):
            return None
        uv_plus, xy_plus = m[uv] + small[s_uv], m[xy] + small[s_xy]
        if uv_plus < 2 or xy_plus < 3:
            return None
        return (lambda: (
            f"m+({u},{v}) = {uv_plus} >= 2",
            f"m({v},{w}) = {m[vw]} >= 2",
            "m(wx) = m(wy) = 2",
            f"m({u},{x}) = {m[ux]} <= 3",
            f"m+({x},{y}) = {xy_plus} >= 3",
        )), None
    return judge


def _compile_conf13(graph, r: Region, *vs: int):
    ring = [(vs[i], vs[(i + 1) % 5]) for i in range(5)]
    s1, s4 = _seconds(graph, (r.id,), ring[0], ring[3])
    e1, e2, e3, e4, e5 = _indices(graph, *ring)
    def judge(m, small, doors):
        if m[e1] < max(m[e2], m[e5]) or m[e1] + m[e2] + m[e3] < 8:
            return None
        plus = m[e1] + small[s1] + m[e4] + small[s4]
        if plus < 7:
            return None
        return (lambda: (
            f"m(e1) = {m[e1]} >= max(m(e2), m(e5)) = {max(m[e2], m[e5])}",
            f"m(e1) + m(e2) + m(e3) = {m[e1] + m[e2] + m[e3]} >= 8",
            f"m+(e1) + m+(e4) = {plus} >= 7",
        )), None
    return judge


def _compile_conf14(graph, r: Region, u, v):
    if (edge := _region_edge(graph, r, u, v, 3)) is None:
        return None
    (e, i, s), rid = edge, r.id
    def judge(m, small, doors):
        plus = m[i] + small[s]
        if plus < 6:
            return None
        count = sum(edges_disjoint(e, d) for d in doors[rid])  # doors of r are its edges
        if count > 6:
            return None
        return (lambda: (
            f"m+({e[0]},{e[1]}) = {plus} >= 6",
            f"{count} door(s) of the region disjoint from the edge (<= 6)",
        )), None
    return judge


def _compile_conf15(graph, r: Region, u, v):
    if (edge := _region_edge(graph, r, u, v, 4)) is None:
        return None
    e, i, s = edge
    heavy = _rim_records(graph, r, lambda f: edges_disjoint(e, f))
    def judge(m, small, doors):
        plus = m[i] + small[s]
        if plus < 4 or not all(h >= 3 for h in _hefts(m, heavy)):
            return None
        return (lambda: (
            f"m+({e[0]},{e[1]}) = {plus} >= 4",
            f"all {len(heavy)} boundary edges disjoint from the edge are 3-heavy",
        )), None
    return judge


def _second_at(graph: RotationGraph, r: Region, u, v) -> int | None:
    """The index of r's boundary edge at u other than uv, read from the
    charge program's flanks, or None when r has more than one there."""
    _, (a, _), p, _, *flanks = charge_program(graph).sides[graph.edge_index[(u, v)]]
    at_u = flanks[r.id != p][u != a]
    return at_u[0][0] if len(at_u) == 1 else None


def _compile_conf16(graph, r: Region, tri: Region, u, v, w):
    if (gi := _second_at(graph, r, u, v)) is None:
        return None
    (s_uw,) = _seconds(graph, (r.id, tri.id), (u, w))
    uv, uw, vw = _indices(graph, (u, v), (u, w), (v, w))
    g = graph.edges[gi]
    away = _rim_records(graph, r, lambda f: u not in f)
    def judge(m, small, doors):
        uw_plus = m[uw] + small[s_uw]
        if m[uv] + uw_plus < 4 or m[vw] > m[uw] or m[gi] > m[uw]:
            return None
        if not all(h >= 3 for h in _hefts(m, away)):
            return None
        return (lambda: (
            f"m({u},{v}) + m+({u},{w}) = {m[uv] + uw_plus} >= 4",
            f"m({v},{w}) = {m[vw]} <= {m[uw]} = m({u},{w})",
            f"second boundary edge at {u}: m({g[0]},{g[1]}) = {m[gi]} <= m({u},{w})",
            f"all {len(away)} boundary edges avoiding {u} are 3-heavy",
        )), None
    return judge


def _compile_conf17(graph, r: Region, u, v):
    if (edge := _region_edge(graph, r, u, v, 5)) is None:
        return None
    e, i, s = edge
    records = _rim_records(graph, r, lambda f: edges_disjoint(e, f))
    def judge(m, small, doors):
        plus = m[i] + small[s]
        if plus < 5:
            return None
        light = _light_count(m, small, records)
        if light > 1:
            return None
        return (lambda: (
            f"m+({e[0]},{e[1]}) = {plus} >= 5",
            "all boundary edges disjoint from the edge have m+ >= 2",
            f"{light} of them not 3-heavy (<= 1)",
        )), None
    return judge


def _compile_conf18(graph, r: Region, tri: Region, u, v, w):
    if r.length < 4 or (gi := _second_at(graph, r, u, v)) is None:
        return None
    e = norm_edge(u, v)
    (s_uw,) = _seconds(graph, (r.id, tri.id), (u, w))
    uv, uw, vw = _indices(graph, e, (u, w), (v, w))
    # No edge of r disjoint from uv or avoiding u borders the triangle uvw
    # (w is off r), and a bridge among them fails its branch alone.
    rec_a = _rim_records(graph, r, lambda f: edges_disjoint(e, f))
    rec_b = _rim_records(graph, r, lambda f: u not in f)
    def judge(m, small, doors):
        uw_plus = m[uw] + small[s_uw]
        if uw_plus + m[uv] < 5 or m[vw] > m[uw] or m[gi] > m[uw]:
            return None
        uv_heft = m[uv] + min(m[uw], m[vw])  # the triangle uvw is across uv
        a = m[uv] == 3 and uv_heft >= 5 and _light_count(m, small, rec_a) <= 1
        b = _light_count(m, small, rec_b) <= 1
        if not a and not b:
            return None
        branch = "ab" if a and b else ("a" if a else "b")
        return (lambda: (
            f"m+({u},{w}) + m({u},{v}) = {uw_plus + m[uv]} >= 5",
            f"m({v},{w}) <= m({u},{w})",
            f"second boundary edge at {u} has multiplicity <= m({u},{w})",
            f"branch {branch}",
        )), branch
    return judge


def _compile_conf19(graph, r: Region, u, v):
    if (edge := _region_edge(graph, r, u, v, 5)) is None:
        return None
    e, i, s = edge
    heavy = _rim_records(graph, r, lambda f: edges_disjoint(e, f))
    def judge(m, small, doors):
        plus = m[i] + small[s]
        if plus < 5:
            return None
        hefts = _hefts(m, heavy)
        light = sum(h < 3 for h in hefts)
        if light > 2 or not all(h >= 2 for h in hefts):
            return None
        return (lambda: (
            f"m+({e[0]},{e[1]}) = {plus} >= 5",
            "all boundary edges disjoint from the edge are 2-heavy",
            f"{light} of them not 3-heavy (<= 2)",
        )), None
    return judge


# ---------------------------------------------------------------------------
# The pattern table and the generic detection over it
# ---------------------------------------------------------------------------


class _Pattern(NamedTuple):
    labels: tuple[str, ...]  # names of the placement's vertices, in order
    placements: Callable[[RotationGraph], Iterator[tuple]]  # the structure, stated once
    compile: Callable[..., Callable | None]  # (graph, *placement) -> judge or None
    doors: bool  # whether its judges read the door table
    symmetries: tuple[tuple[int, ...], ...]  # label permutations, all but the identity


_UV = ("u", "v")
_UVW = ("u", "v", "w")
_UVWX = ("u", "v", "w", "x")
_UVWXY = ("u", "v", "w", "x", "y")
_V5 = ("v1", "v2", "v3", "v4", "v5")

_PATTERNS: dict[int, _Pattern] = {
    1: _Pattern(_UVW, _triangles, _compile_conf1, False, ((1, 0, 2),)),
    2: _Pattern(_UVWX, _triangle_degree3_corners, _compile_conf2, False, ()),
    3: _Pattern(_UVWX, _triangle_pairs, _compile_conf3, False, ()),
    4: _Pattern(_UVWX, _squares, _compile_conf4, False, ()),
    5: _Pattern(_UVWX, _triangle_pairs, _compile_conf5, True, ((2, 3, 0, 1),)),
    6: _Pattern(
        _UVWX, _squares, _compile_conf6, True, ((2, 3, 0, 1), (1, 0, 3, 2), (3, 2, 1, 0))
    ),
    7: _Pattern(_UVW, _triangles, _compile_conf7, True, ((0, 2, 1),)),
    8: _Pattern(_UVW, _triangles, _compile_conf8, True, ((1, 0, 2),)),
    9: _Pattern(_UVW, _triangles, _compile_conf9, True, ((0, 2, 1),)),
    10: _Pattern(_UVWXY, _square_triangles, _compile_conf10, False, ()),
    11: _Pattern(_UVWXY, _square_triangles, _compile_conf11, True, ()),
    12: _Pattern(_UVWXY, _square_triangles, _compile_conf12, True, ()),
    13: _Pattern(_V5, _labelled_regions(5), _compile_conf13, True, ()),
    14: _Pattern(_UV, _region_edges, _compile_conf14, True, ()),
    15: _Pattern(_UV, _region_edges, _compile_conf15, True, ()),
    16: _Pattern(_UVW, _region_triangles, _compile_conf16, True, ()),
    17: _Pattern(_UV, _region_edges, _compile_conf17, True, ()),
    18: _Pattern(_UVW, _region_triangles, _compile_conf18, True, ()),
    19: _Pattern(_UV, _region_edges, _compile_conf19, True, ()),
}


def _entry(k: int) -> _Pattern:
    if k not in _PATTERNS:
        raise DTargetError(f"no such configuration index: {k}")
    return _PATTERNS[k]


def _placements(graph: RotationGraph, pattern: _Pattern) -> tuple[tuple, ...]:
    """The pattern's placements on the graph, each once, stably sorted by
    vertex tuple and kept under its generator."""
    return fact(graph, pattern.placements, _sorted_placements, pattern)


def _sorted_placements(graph: RotationGraph, pattern: _Pattern) -> tuple[tuple, ...]:
    split = -len(pattern.labels)
    return tuple(sorted(pattern.placements(graph), key=lambda p: p[split:]))


def _compile_placements(graph: RotationGraph, pattern: _Pattern) -> tuple[tuple, ...]:
    """The pattern's placements that can match, compiled, in placement order:
    (names, region ids, judge), kept under ("compiled", k) for pattern k.
    Only the least labelling of each orbit of the pattern's symmetries is
    kept: a placement is skipped when a symmetry maps its vertex tuple to a
    smaller one."""
    split, compiled = -len(pattern.labels), []
    images = [itemgetter(*s) for s in pattern.symmetries]
    for p in _placements(graph, pattern):
        vs = p[split:]
        if images and any(image(vs) < vs for image in images):
            continue
        judge = pattern.compile(graph, *p)
        if judge is not None:
            names = tuple(zip(pattern.labels, vs))
            compiled.append((names, tuple([r.id for r in p[:split]]), judge))
    return tuple(compiled)


def _matches(t: DTarget, k: int) -> Iterator[ConfigMatch]:
    """The matches of pattern k, one per placement, in placement order."""
    pattern = _entry(k)
    compiled = fact(t.graph, ("compiled", k), _compile_placements, pattern)
    doors, small = door_table(t) if pattern.doors and compiled else (None, None)
    m = t.mult_vector
    for names, region_ids, judge in compiled:
        hit = judge(m, small, doors)
        if hit is not None:
            yield ConfigMatch(k, names, region_ids, *hit)


def detect(t: DTarget, k: int) -> list[ConfigMatch]:
    """All matches of pattern k, one per placement, sorted by vertex tuple."""
    _require_d8(t)
    return list(_matches(t, k))


def detect_all(t: DTarget) -> list[ConfigMatch]:
    """Matches of every pattern, ascending pattern index."""
    _require_d8(t)
    return [match for k in _PATTERNS for match in detect(t, k)]


def recheck(t: DTarget, match: ConfigMatch) -> bool:
    """Whether the match's names and region ids are one of its pattern's
    compiled placements, found by bisecting on names (labels are fixed, so
    names sort as vertex tuples do), and that placement's judge judges t a
    match.  A relabelling ``detect`` never reports, such as an image of a
    match under its pattern's symmetries, is not a placement."""
    _require_d8(t)
    pattern, names = _entry(match.conf_index), match.names
    compiled = fact(t.graph, ("compiled", match.conf_index), _compile_placements, pattern)
    i = bisect_left(compiled, names, key=(key := lambda c: c[0]))
    run = compiled[i : bisect_right(compiled, names, lo=i, key=key)]
    judge = next((j for _, ids, j in run if ids == match.region_ids), None)
    if judge is None:
        return False
    doors, small = door_table(t) if pattern.doors else (None, None)
    return judge(t.mult_vector, small, doors) is not None


# ---------------------------------------------------------------------------
# Primality
# ---------------------------------------------------------------------------


def is_prime(t: DTarget) -> PrimalityVerdict:
    """Refuse a non-target (``DTargetError``), then check the structural
    bullets in their fixed order, then the patterns.  With every m >= 1 the
    strengthened cut also refuses a cut vertex, a 2-cut and m(e) > 6; it
    reads a stored walk, or else searches the planar dual, so no vertex
    count past the walk's cap is refused.

    The first failing check becomes the witness: for the patterns, the least
    match (in vertex-tuple order) of the least pattern index, found without
    evaluating the placements after it.  A prime verdict is never expected
    on valid input and is surfaced loudly by callers.
    """
    _require_d8(t)
    require_target(t)
    for e, m in zip(t.graph.edges, t.mult_vector):
        if m == 0:
            return PrimalityVerdict(False, ZeroMultEdge(e))
    if t.vertex_count < 6:
        return PrimalityVerdict(False, TooFewVertices(t.vertex_count))
    violation = strengthened_cut_check(t)
    if violation is not None:
        return PrimalityVerdict(False, CutViolation(violation))
    match = next((m for k in _PATTERNS for m in _matches(t, k)), None)
    return PrimalityVerdict(match is None, match)
