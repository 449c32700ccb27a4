"""Embedded planar simple graphs with edge multiplicities.

A graph is given by a rotation system: for each vertex, the cyclic clockwise
order of its neighbours in a fixed planar drawing.  Faces ("regions") are
recovered by tracing directed edges; Euler's formula V - E + F = 2 certifies
that the rotation system really describes a planar drawing.

A target attaches a parameter ``d`` and a non-negative integer multiplicity
``m(e)`` to every edge.  Multiplicity zero is allowed; the edge stays in the
graph and keeps its place in the embedding.

The rotation system's automorphisms, mirror maps included, carry faces to
faces, so every verdict on a target holds for its images under them; the
corpus judges one target per orbit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    AsymmetricRotation,
    DTargetError,
    DuplicateNeighbour,
    EulerViolation,
    MissingMultiplicity,
    NegativeMultiplicity,
    NotTwoConnected,
    ParseError,
)

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    """The canonical (sorted) form of the undirected edge {u, v}."""
    return (u, v) if u <= v else (v, u)


def fact(owner, key, compute, *args):
    """compute(owner, *args), kept in ``owner.facts`` under key: the one way a
    layer stores what it derives from a graph or a target.  It runs at most
    once per owner and key; if it raises, nothing is stored."""
    facts = owner.facts
    try:
        return facts[key]
    except KeyError:
        pass
    value = facts[key] = compute(owner, *args)
    return value


@dataclass(frozen=True)
class Region:
    """A face of the embedding.

    ``vertices``, ``edges`` and ``directed`` are aligned cyclic sequences:
    position i holds the i-th directed edge of the face trace, its tail
    vertex, and its undirected form.  In a 2-connected graph the boundary is
    a simple cycle, so ``vertices`` and ``edges`` have no repeats.
    """

    id: int
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    directed: tuple[tuple[int, int], ...]

    @property
    def length(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def __repr__(self) -> str:
        cycle = "-".join(map(str, self.vertices))
        return f"Region({self.id}: {cycle})"


@dataclass(frozen=True)
class RotationGraph:
    """A connected simple graph with a clockwise rotation at every vertex.

    ``facts`` holds what other layers derive from the graph alone (each
    generator's pattern placements, keyed by the generator; the compiled
    judges ``("compiled", k)``; the charge program ``"charge"``; each
    edge's traces where no discharge rule fires ``"idle traces"``; the
    3-cycles and their crossing edges ``"triangles"``; a support's tables
    ``("matchings", w, zero)``; the rotation system's automorphisms
    ``"automorphisms"``), each kept by :func:`fact` and shared by every
    target on the graph; it takes no part in equality.
    """

    rotations: tuple[tuple[int, ...], ...]
    facts: dict = field(
        init=False, default_factory=dict, compare=False, hash=False, repr=False
    )

    def __post_init__(self) -> None:
        n = len(self.rotations)
        if n == 0:
            raise ParseError("graph has no vertices")
        listed: set[tuple[int, int]] = set()
        for v, rot in enumerate(self.rotations):
            if len(set(rot)) != len(rot):
                raise DuplicateNeighbour(f"vertex {v} lists a neighbour twice")
            for u in rot:
                if not (0 <= u < n):
                    raise ParseError(f"vertex {v} lists unknown vertex {u}")
                if u == v:
                    raise ParseError(f"vertex {v} lists itself (loops not allowed)")
                listed.add((v, u))
        for v, u in listed:
            if (u, v) not in listed:
                raise AsymmetricRotation(
                    f"vertex {v} lists {u} but {u} does not list {v}"
                )

    @property
    def vertex_count(self) -> int:
        return len(self.rotations)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        out = {norm_edge(v, u) for v in range(self.vertex_count) for u in self.rotations[v]}
        return tuple(sorted(out))

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        """Each edge's position in ``edges``, under both orientations."""
        return {d: i for i, (u, v) in enumerate(self.edges) for d in ((u, v), (v, u))}

    @cached_property
    def faces(self) -> tuple[Region, ...]:
        """All faces, traced from lexicographically least unvisited directed edge.

        From directed edge (u, v) the trace continues with (v, w) where w is
        the predecessor of u in v's clockwise rotation, a permutation of the
        darts that closes each trace.  Face ids depend on the rotations alone.
        """
        if not _is_connected(self):
            raise EulerViolation("graph is disconnected: not a connected planar drawing")
        darts = sorted(
            (v, u) for v in range(self.vertex_count) for u in self.rotations[v]
        )
        position = [{u: i for i, u in enumerate(rot)} for rot in self.rotations]
        visited: set[tuple[int, int]] = set()
        regions: list[Region] = []
        for start in darts:
            if start in visited:
                continue
            trace = [start]
            while True:
                u, v = trace[-1]
                cur = (v, self.rotations[v][position[v][u] - 1])
                if cur == start:
                    break
                trace.append(cur)
            visited.update(trace)
            regions.append(
                Region(
                    id=len(regions),
                    vertices=tuple(a for a, _ in trace),
                    edges=tuple(norm_edge(a, b) for a, b in trace),
                    directed=tuple(trace),
                )
            )
        euler = self.vertex_count - len(self.edges) + len(regions)
        if euler != 2:
            raise EulerViolation(
                f"V - E + F = {euler}, expected 2: not a connected planar drawing"
            )
        return tuple(regions)

    @cached_property
    def connectivity(self) -> int:
        """0 disconnected, 1 has a cut vertex, 2 has a 2-cut, 3 means
        3-connected-or-better.

        A cut vertex is found by one lowpoint search (Hopcroft-Tarjan), and
        a 2-cut {v, w} as a cut vertex w of G - v, so the check is
        O(n (n + E)) and needs no embedding.  Removals that leave fewer
        than two vertices cannot disconnect anything and are skipped.
        """
        n = self.vertex_count
        if not _is_connected(self):
            return 0
        if n >= 3 and _has_cut_vertex(self.rotations, -1):
            return 1
        if n >= 4 and any(_has_cut_vertex(self.rotations, v) for v in range(n)):
            return 2
        return 3

    @cached_property
    def region_pairs(self) -> tuple[tuple[Region, Region], ...]:
        """The two faces at each edge, in ``edges`` order, ordered by id (a
        bridge has one face twice): every reader of an edge's faces reads
        them here."""
        at = {dart: region for region in self.faces for dart in region.directed}
        pairs = ((at[(u, v)], at[(v, u)]) for u, v in self.edges)
        return tuple((r1, r2) if r1.id <= r2.id else (r2, r1) for r1, r2 in pairs)


@dataclass(frozen=True)
class DTarget:
    """A rotation graph together with d and per-edge multiplicities.

    ``mult_vector`` holds m(e) in ``graph.edges`` order (the order of
    ``edge_index``), the one stored form, so equal targets compare equal
    structurally.  :meth:`of` builds a target from a mapping of edges, in
    either orientation, to multiplicities.  ``facts`` holds what the
    analysis layers derive from the target, each kept by :func:`fact` (the
    odd cuts ``"odd_cuts"``, the strengthened check ``"strengthened"`` and
    the door table ``"doors"``); like the cached ``degree_sums``, it takes
    no part in equality, and no other target reads it, not even one in the
    same automorphism orbit.  ``mult_items`` is a view.
    """

    graph: RotationGraph
    d: int
    mult_vector: tuple[int, ...]
    facts: dict = field(
        init=False, default_factory=dict, compare=False, hash=False, repr=False
    )

    @classmethod
    def of(cls, graph: RotationGraph, d: int, mult) -> "DTarget":
        index, edges = graph.edge_index, graph.edges
        vector: list[int | None] = [None] * len(edges)
        for (u, v), m in mult.items():
            if (i := index.get((u, v))) is None:
                raise ParseError(f"multiplicity given for non-edge {norm_edge(u, v)}")
            if vector[i] is not None:
                raise ParseError(f"multiplicity given twice for edge {edges[i]}")
            vector[i] = m
        if None in vector:
            raise MissingMultiplicity(f"no multiplicity for edge {edges[vector.index(None)]}")
        return cls(graph, d, tuple(vector))

    def __post_init__(self) -> None:
        if self.d <= 0:
            raise ParseError(f"d must be positive, got {self.d}")
        vector, edges = self.mult_vector, self.graph.edges
        if len(vector) != len(edges):
            raise ParseError(f"{len(vector)} multiplicities given for {len(edges)} edges")
        if min(vector, default=0) < 0:
            e, m = next((e, m) for e, m in zip(edges, vector) if m < 0)
            raise NegativeMultiplicity(f"edge {e} has multiplicity {m}")

    @property
    def mult_items(self) -> tuple[tuple[Edge, int], ...]:
        """The (edge, multiplicity) pairs in ``graph.edges`` order; stores nothing."""
        return tuple(zip(self.graph.edges, self.mult_vector))

    def m(self, u: int, v: int) -> int:
        return self.mult_vector[self.graph.edge_index[(u, v)]]

    @property
    def vertex_count(self) -> int:
        return self.graph.vertex_count

    @cached_property
    def degree_sums(self) -> tuple[int, ...]:
        """m(delta(v)) for every vertex v, from one pass over the multiplicities."""
        sums = [0] * self.vertex_count
        for (u, v), m in zip(self.graph.edges, self.mult_vector):
            sums[u] += m
            sums[v] += m
        return tuple(sums)


@dataclass(frozen=True)
class ValidationReport:
    degree_ok: bool
    euler_ok: bool
    connectivity_level: int
    violations: tuple[tuple[str, object], ...]


# ---------------------------------------------------------------------------
# Parsing / serialization
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(r"dtarget\s+d=(-?\d+)$")
_VERTEX_RE = re.compile(r"vertex\s+(\d+)\s*:\s*(.*)$")


def parse_dtarget(text: str) -> DTarget:
    """Parse the line-oriented target format.

    Line 1: ``dtarget d=<int>``.  Then one ``vertex <id>: <neighbours
    clockwise>`` line per vertex and one ``mult <u> <v> <m>`` line per edge.
    ``#`` starts a comment; blank lines are ignored.
    """
    header_d: int | None = None
    rotation_lines: dict[int, tuple[int, ...]] = {}
    mult_entries: dict[Edge, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header_d is None:
            match = _HEADER_RE.match(line)
            if not match:
                raise ParseError(f"line {lineno}: expected 'dtarget d=<int>' header")
            header_d = int(match.group(1))
            if header_d <= 0:
                raise ParseError(f"line {lineno}: d must be positive")
            continue
        if line.startswith("vertex"):
            match = _VERTEX_RE.match(line)
            if not match:
                raise ParseError(f"line {lineno}: malformed vertex line")
            vid = int(match.group(1))
            if vid in rotation_lines:
                raise ParseError(f"line {lineno}: vertex {vid} declared twice")
            try:
                rotation_lines[vid] = tuple(int(t) for t in match.group(2).split())
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer neighbour id") from None
        elif (parts := line.split())[0] == "mult":
            if len(parts) != 4:
                raise ParseError(f"line {lineno}: expected 'mult <u> <v> <m>'")
            try:
                u, v, m = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer mult field") from None
            e = norm_edge(u, v)
            if e in mult_entries:
                raise ParseError(f"line {lineno}: multiplicity given twice for {e}")
            if m < 0:
                raise NegativeMultiplicity(f"line {lineno}: edge {e} has multiplicity {m}")
            mult_entries[e] = m
        else:
            raise ParseError(f"line {lineno}: unrecognized directive {parts[0]!r}")
    if header_d is None:
        raise ParseError("missing 'dtarget d=<int>' header")
    if not rotation_lines:
        raise ParseError("empty vertex set")
    ids = sorted(rotation_lines)
    if ids != list(range(len(ids))):
        raise ParseError("vertex ids must be exactly 0..n-1")
    graph = RotationGraph(tuple(rotation_lines[i] for i in ids))
    return DTarget.of(graph, header_d, mult_entries)


def serialize_dtarget(t: DTarget) -> str:
    """Canonical text form; ``parse_dtarget`` inverts it exactly."""
    lines = [f"dtarget d={t.d}"]
    for v in range(t.graph.vertex_count):
        lines.append(f"vertex {v}: " + " ".join(map(str, t.graph.rotations[v])))
    for (u, v), m in t.mult_items:
        lines.append(f"mult {u} {v} {m}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------


def region_pair(t: DTarget, e: Edge) -> tuple[Region, Region]:
    """The two distinct regions whose boundary contains e, ordered by id."""
    graph = t.graph
    u, v = e
    if (i := graph.edge_index.get((u, v))) is None:
        raise DTargetError(f"{norm_edge(u, v)} is not an edge of the graph")
    r1, r2 = graph.region_pairs[i]
    if r1 is r2:
        raise NotTwoConnected(f"edge {norm_edge(u, v)} borders region {r1.id} twice")
    return r1, r2


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------


def automorphisms(graph: RotationGraph) -> tuple[tuple[int, ...], ...]:
    """The rotation system's automorphisms as vertex maps (each the tuple of
    the vertices' images), the identity first; a graph fact.

    A plain map carries each rotation onto a cyclic shift of its image's
    rotation, a mirror map onto a cyclic shift of its reverse, so both carry
    faces to faces.  On a connected graph a map is fixed by the image of one
    dart and its orientation (Weinberg, 1966), so each of the 2 * 2E
    candidates is laid around the rotations and kept if it closes up.
    """
    return fact(graph, "automorphisms", _automorphisms)


def _automorphisms(graph: RotationGraph) -> tuple[tuple[int, ...], ...]:
    if not _is_connected(graph):
        raise EulerViolation("graph is disconnected: not a connected planar drawing")
    rotations = graph.rotations
    if not rotations[0]:
        return ((0,),)
    position = [{u: i for i, u in enumerate(rot)} for rot in rotations]
    found = (
        _laid_map(rotations, position, a, b, s)
        for a in range(len(rotations))
        for b in rotations[a]
        for s in (1, -1)
    )
    # With every degree at most 2 a map is plain and mirror at once.
    return tuple(dict.fromkeys(phi for phi in found if phi is not None))


def _laid_map(rotations, position, a: int, b: int, s: int) -> tuple[int, ...] | None:
    """The automorphism taking vertex 0 to a and its first neighbour to b,
    turning rotations forwards (s = 1) or backwards (s = -1), if one does:
    each reached vertex's rotation is laid onto its image's from a
    neighbour whose image is known.  A map that lays every rotation onto
    its image's covers the connected graph, so it is onto, and one-to-one
    on as many vertices."""
    image = [-1] * len(rotations)
    image[0] = a
    stack = [(0, rotations[0][0], b)]
    while stack:
        v, u, w = stack.pop()
        rot, image_rot = rotations[v], rotations[image[v]]
        k, i, j = len(rot), position[v][u], position[image[v]][w]
        if len(image_rot) != k:
            return None
        for step in range(k):
            x, y = rot[(i + step) % k], image_rot[(j + s * step) % k]
            if image[x] < 0:
                image[x] = y
                stack.append((x, v, image[v]))
            elif image[x] != y:
                return None
    return tuple(image)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _is_connected(graph: RotationGraph) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in graph.rotations[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == graph.vertex_count


def _has_cut_vertex(rotations: tuple[tuple[int, ...], ...], skip: int) -> bool:
    """Whether the connected graph minus vertex ``skip`` (-1: none) has a cut
    vertex, by one iterative depth-first search with lowpoints."""
    depth = [-1] * len(rotations)
    low = [0] * len(rotations)
    if skip >= 0:
        depth[skip] = len(rotations)  # seen, and too deep to lower any lowpoint
    root = 1 if skip == 0 else 0
    depth[root] = 0
    stack = [(root, iter(rotations[root]))]
    while stack:
        v, rest = stack[-1]
        for u in rest:
            if depth[u] < 0:
                depth[u] = low[u] = len(stack)
                stack.append((u, iter(rotations[u])))
                break
            if depth[u] < low[v]:
                low[v] = depth[u]
        else:
            stack.pop()
            if len(stack) > 1:  # v's parent p is not the root
                p = stack[-1][0]
                if low[v] >= depth[p]:
                    return True
                if low[v] < low[p]:
                    low[p] = low[v]
    return depth.count(1) > 1  # the root is a cut vertex if it has two children


def connectivity_level(graph: RotationGraph) -> int:
    """The graph's connectivity level, computed once per graph (see
    :attr:`RotationGraph.connectivity`)."""
    return graph.connectivity


def require_target(t: DTarget) -> None:
    """Refuse input whose degree sums are not all d or whose faces fail the
    Euler check; connectivity is not needed, so it is not computed."""
    refusal = f"not a d-target with d = {t.d}: "
    off = [v for v, total in enumerate(t.degree_sums) if total != t.d]
    if off:
        raise DTargetError(refusal + f"degree sum is not {t.d} at vertices {off}")
    try:
        t.graph.faces
    except EulerViolation:
        raise DTargetError(refusal + "Euler check fails") from None


def validate(t: DTarget) -> ValidationReport:
    """Check the degree equations and the Euler face count; report connectivity."""
    violations: list[tuple[str, object]] = [
        ("degree", v) for v, total in enumerate(t.degree_sums) if total != t.d
    ]
    degree_ok = not violations
    try:
        t.graph.faces
        euler_ok = True
    except EulerViolation:
        euler_ok = False
        violations.append(("euler", None))
    return ValidationReport(
        degree_ok=degree_ok,
        euler_ok=euler_ok,
        connectivity_level=connectivity_level(t.graph),
        violations=tuple(violations),
    )
