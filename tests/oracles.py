"""Brute-force reference implementations used to cross-check the package.

Everything here is written straight from the definitions with exhaustive
enumeration: cut values by summing over explicit subsets, matchings by
scanning edge subsets, pattern matches by trying all tuples.  None of the
package's search, caching, or deduplication logic is reused; the only shared
inputs are the raw embedding data (faces, rotations) and multiplicities.
The one search here, ``lex_first_colouring``, is the package's earlier
colouring solver, kept as the reference for which colouring comes first.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, permutations


def norm(u, v):
    return (u, v) if u <= v else (v, u)


# ---------------------------------------------------------------------------
# Cuts
# ---------------------------------------------------------------------------


def cut_value(t, X):
    X = set(X)
    return sum(m for (u, v), m in t.mult_items if (u in X) != (v in X))


def odd_subsets(n):
    for size in range(1, n, 2):
        yield from combinations(range(n), size)


def min_odd_cut_value(t):
    return min(cut_value(t, X) for X in odd_subsets(t.vertex_count))


def oddly_connected(t):
    return min_odd_cut_value(t) >= t.d


def min_odd_cut_witness(t):
    """The least (value, X) over every odd X."""
    return min((cut_value(t, X), X) for X in odd_subsets(t.vertex_count))


def strengthened_violation(t):
    """The least (value, X) over odd X with both sides of at least two
    vertices and value below d + 2; None if there is none."""
    n = t.vertex_count
    violations = [
        (cut_value(t, X), X)
        for X in odd_subsets(n)
        if 2 <= len(X) <= n - 2 and cut_value(t, X) < t.d + 2
    ]
    return min(violations, default=None)


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------


def connectivity_level(graph):
    """0 if disconnected, else the least k in (1, 2) such that removing some
    k vertices disconnects the graph, else 3; by removing every vertex and
    every pair.  Removals that leave fewer than two vertices are skipped."""
    n = len(graph.rotations)

    def connected(removed):
        rest = [v for v in range(n) if v not in removed]
        seen = {rest[0]}
        stack = [rest[0]]
        while stack:
            for u in graph.rotations[stack.pop()]:
                if u not in removed and u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(rest)

    if not connected(()):
        return 0
    for k in (1, 2):
        if n - k >= 2:
            if any(not connected(set(cut)) for cut in combinations(range(n), k)):
                return k
    return 3


def rotation_automorphism(rotations, phi):
    """Whether the vertex map phi is a bijection that carries every rotation
    onto its image's rotation up to where it starts: every one read forwards
    (a plain map) or every one read backwards (a mirror map)."""
    n = len(rotations)
    if sorted(phi) != list(range(n)):
        return False

    def carried(backwards):
        for v in range(n):
            ring = [phi[u] for u in rotations[v]]
            if backwards:
                ring.reverse()
            target = list(rotations[phi[v]])
            shifts = [ring[i:] + ring[:i] for i in range(len(ring))] or [[]]
            if target not in shifts:
                return False
        return True

    return carried(False) or carried(True)


# ---------------------------------------------------------------------------
# Matchings and colourings
# ---------------------------------------------------------------------------


def perfect_matchings(t):
    """Every subset of n/2 edges covering each vertex exactly once."""
    return support_matchings(t.vertex_count, t.graph.edges)


def support_matchings(n, support):
    """Every subset of n/2 edges of ``support`` covering each of the n
    vertices exactly once, as sorted edge tuples in lexicographic order."""
    if n % 2:
        return []
    out = []
    for subset in combinations(sorted(support), n // 2):
        seen = set()
        for u, v in subset:
            seen.add(u)
            seen.add(v)
        if len(seen) == n:
            out.append(tuple(sorted(subset)))
    return sorted(out)


def colouring_exists(t):
    """Try all multisets of d perfect matchings against the coverage demand."""
    mult = dict(t.mult_items)
    matchings = perfect_matchings(t)
    for chosen in combinations_with_replacement(matchings, t.d):
        counts = {}
        for M in chosen:
            for e in M:
                counts[e] = counts.get(e, 0) + 1
        if all(counts.get(e, 0) == m for e, m in mult.items()):
            return True
    return False


def lex_first_colouring(t):
    """The colouring with the lexicographically greatest count vector over
    the graph's perfect matchings in lexicographic order, expanded into a
    tuple of d matchings; None if there is none.

    A depth-first search over matching multiplicities, each tried from the
    largest value its residual allows downward, pruned only edge by edge.
    """
    n = t.vertex_count
    rotations = t.graph.rotations
    matchings = []
    matched = [False] * n

    def extend(partial):
        free = next((v for v in range(n) if not matched[v]), None)
        if free is None:
            matchings.append(tuple(partial))
            return
        matched[free] = True
        for u in sorted(rotations[free]):
            if not matched[u]:
                matched[u] = True
                partial.append(norm(free, u))
                extend(partial)
                partial.pop()
                matched[u] = False
        matched[free] = False

    if n % 2 == 0:
        extend([])
    matchings.sort()
    residual = dict(t.mult_items)
    last = {e: i for i, M in enumerate(matchings) for e in M}
    counts = [0] * len(matchings)

    def unreachable(next_matching, budget):
        for e, res in residual.items():
            if res == 0:
                continue
            if res > budget:
                return True
            if last.get(e, -1) < next_matching:
                return True
        return False

    def search(next_matching, budget):
        if budget == 0:
            return all(res == 0 for res in residual.values())
        if next_matching == len(matchings) or unreachable(next_matching, budget):
            return False
        M = matchings[next_matching]
        for take in range(min(budget, min(residual[e] for e in M)), -1, -1):
            counts[next_matching] = take
            for e in M:
                residual[e] -= take
            if search(next_matching + 1, budget - take):
                return True
            for e in M:
                residual[e] += take
        counts[next_matching] = 0
        return False

    if not search(0, t.d):
        return None
    return tuple(M for M, k in zip(matchings, counts) for _ in range(k))


# ---------------------------------------------------------------------------
# Doors, m-plus, heaviness, toughness
# ---------------------------------------------------------------------------


def edge_faces(t, e):
    e = norm(*e)
    return [r for r in t.graph.faces if e in r.edge_set]


def other_face(t, e, r):
    """The face across e from r; None across a bridge, where r lies on both
    sides and there is no region across."""
    pair = [f for f in edge_faces(t, e) if f.id != r.id]
    return pair[0] if pair else None


def doors(t, r):
    out = []
    for e in r.edges:
        if t.m(*e) != 1:
            continue
        opp = other_face(t, e, r)
        if opp is not None and any(
            t.m(*f) == 1 and not (set(e) & set(f)) for f in opp.edges
        ):
            out.append(norm(*e))
    return sorted(set(out))


def big(t, r):
    return len(doors(t, r)) >= 4


def second_face(t, e, disc_ids):
    """The face of e outside the disc; None when that is ill-defined."""
    outside = [r for r in edge_faces(t, e) if r.id not in set(disc_ids)]
    return outside[0] if len(outside) == 1 else None


def m_plus(t, e, disc_ids):
    sec = second_face(t, e, disc_ids)
    if sec is None:
        return None
    return t.m(*e) + (0 if big(t, sec) else 1)


def heavy(t, e, r, i):
    e = norm(*e)
    if t.m(*e) >= i:
        return True
    far = other_face(t, e, r)
    if far is None or far.length != 3:
        return False
    (w,) = set(far.vertices) - set(e)
    u, v = e
    return t.m(*e) + min(t.m(u, w), t.m(v, w)) >= i


def tough(t, r):
    if r.length != 3:
        return False
    if sum(t.m(*e) for e in r.edges) < 5:
        return False
    if sorted(t.m(*e) for e in r.edges) == [1, 2, 2]:
        twos = [e for e in r.edges if t.m(*e) == 2]
        vals = [m_plus(t, e, {r.id}) for e in twos]
        if None in vals:
            return False
        return sum(vals) >= 5
    return True


# ---------------------------------------------------------------------------
# Pattern matchers: each returns True when ANY tuple satisfies the pattern.
# ---------------------------------------------------------------------------


def _degree(t, v):
    return len(t.graph.rotations[v])


def _triangles(t):
    return [r for r in t.graph.faces if r.length == 3]


def _squares(t):
    return [r for r in t.graph.faces if r.length == 4]


def _cycle_labelings(r):
    """All distinct-vertex tuples tracing the boundary cycle edge by edge."""
    out = []
    for tup in permutations(r.vertex_set):
        k = len(tup)
        if all(norm(tup[i], tup[(i + 1) % k]) in r.edge_set for i in range(k)):
            out.append(tup)
    return out


def _adjacent_triangle_pairs(t):
    """(first, second, u, v, w, x): triangles uvw, uwx glued along uw."""
    for e in t.graph.edges:
        pair = edge_faces(t, e)
        if len(pair) != 2:
            continue
        r1, r2 = pair
        if r1.length != 3 or r2.length != 3 or r1.id == r2.id:
            continue
        for first, second in ((r1, r2), (r2, r1)):
            for u, w in (e, e[::-1]):
                (v,) = set(first.vertices) - set(e)
                (x,) = set(second.vertices) - set(e)
                if len({u, v, w, x}) == 4:
                    yield first, second, u, v, w, x


def _square_triangle_tuples(t):
    for sq in _squares(t):
        for u, v, w, x in _cycle_labelings(sq):
            tri = other_face(t, norm(w, x), sq)
            if tri is None or tri.length != 3:
                continue
            (y,) = set(tri.vertices) - {w, x}
            if y in (u, v):
                continue
            yield sq, tri, u, v, w, x, y


def _region_triangle_tuples(t, min_length):
    for r in t.graph.faces:
        if r.length < min_length:
            continue
        for e in r.edges:
            tri = other_face(t, e, r)
            if tri is None or tri.length != 3:
                continue
            (w,) = set(tri.vertices) - set(e)
            if w in r.vertex_set:
                continue
            for u, v in (e, e[::-1]):
                yield r, tri, u, v, w


def _second_edge_at(r, u, first):
    others = [f for f in r.edges if u in f and f != first]
    return others[0] if len(others) == 1 else None


def conf1(t):
    return any(
        _degree(t, u) == 3 and _degree(t, v) == 3
        for tri in _triangles(t)
        for u, v in permutations(tri.vertex_set, 2)
    )


def conf2(t):
    for tri in _triangles(t):
        for u in tri.vertices:
            if _degree(t, u) != 3:
                continue
            outside = set(t.graph.rotations[u]) - tri.vertex_set
            if len(outside) != 1:
                continue
            (x,) = outside
            for v, w in permutations(tri.vertex_set - {u}):
                if t.m(u, x) < t.m(u, w) + t.m(v, w):
                    return True
    return False


def conf3(t):
    return any(
        t.m(u, v) + t.m(u, w) + t.m(v, w) + t.m(u, x) >= 8
        for _, _, u, v, w, x in _adjacent_triangle_pairs(t)
    )


def conf4(t):
    for sq in _squares(t):
        for u, v, w, x in _cycle_labelings(sq):
            if t.m(u, v) + t.m(v, w) + t.m(u, x) < 8:
                continue
            if (t.m(u, v), t.m(v, w), t.m(w, x), t.m(u, x)) == (4, 2, 1, 2):
                continue
            return True
    return False


def conf5(t):
    for first, second, u, v, w, x in _adjacent_triangle_pairs(t):
        disc = {first.id, second.id}
        a = m_plus(t, norm(u, v), disc)
        b = m_plus(t, norm(w, x), disc)
        if a is None or b is None:
            continue
        if a + t.m(u, w) + b >= 7:
            return True
    return False


def conf6(t):
    for sq in _squares(t):
        for u, v, w, x in _cycle_labelings(sq):
            a = m_plus(t, norm(u, v), {sq.id})
            b = m_plus(t, norm(w, x), {sq.id})
            if a is not None and b is not None and a + b >= 7:
                return True
    return False


def conf7(t):
    for tri in _triangles(t):
        for u in tri.vertices:
            v, w = tri.vertex_set - {u}
            a = m_plus(t, norm(u, v), {tri.id})
            b = m_plus(t, norm(u, w), {tri.id})
            if a is not None and b is not None and a + b >= 7:
                return True
    return False


def _door_disjoint(t, region, vertices):
    return any(not (set(d) & set(vertices)) for d in doors(t, region))


def conf8(t):
    for tri in _triangles(t):
        for u, v, w in permutations(tri.vertex_set):
            if (t.m(u, v), t.m(u, w), t.m(v, w)) != (3, 2, 2):
                continue
            for e in (norm(u, v), norm(u, w), norm(v, w)):
                if not _door_disjoint(t, other_face(t, e, tri), (u, v, w)):
                    return True
    return False


def conf9(t):
    for tri in _triangles(t):
        if any(t.m(*e) != 2 for e in tri.edges):
            continue
        for u in tri.vertices:
            if _degree(t, u) < 4:
                continue
            v, w = tri.vertex_set - {u}
            ok = True
            for e in (norm(u, v), norm(u, w)):
                far = other_face(t, e, tri)
                if len(doors(t, far)) > 1 or _door_disjoint(t, far, tri.vertices):
                    ok = False
                    break
            if ok:
                return True
    return False


def conf10(t):
    return any(
        t.m(u, v) == 2 and t.m(w, x) == 2 and t.m(x, y) == 2 and t.m(v, w) == 4
        for _, _, u, v, w, x, y in _square_triangle_tuples(t)
    )


def conf11(t):
    for sq, tri, u, v, w, x, y in _square_triangle_tuples(t):
        if not (t.m(u, v) >= 3 and t.m(w, y) >= 3 and t.m(w, x) == 1):
            continue
        if t.m(u, x) > 3:
            continue
        plus = m_plus(t, norm(x, y), {sq.id, tri.id})
        if plus is not None and plus >= 3:
            return True
    return False


def conf12(t):
    for sq, tri, u, v, w, x, y in _square_triangle_tuples(t):
        if not (t.m(v, w) >= 2 and t.m(w, x) == 2 and t.m(w, y) == 2):
            continue
        if t.m(u, x) > 3:
            continue
        disc = {sq.id, tri.id}
        a = m_plus(t, norm(u, v), disc)
        b = m_plus(t, norm(x, y), disc)
        if a is not None and b is not None and a >= 2 and b >= 3:
            return True
    return False


def conf13(t):
    for r in t.graph.faces:
        if r.length != 5:
            continue
        for vs in _cycle_labelings(r):
            e = [norm(vs[i], vs[(i + 1) % 5]) for i in range(5)]
            m = lambda e: t.m(*e)
            if m(e[0]) < max(m(e[1]), m(e[4])):
                continue
            if m(e[0]) + m(e[1]) + m(e[2]) < 8:
                continue
            a = m_plus(t, e[0], {r.id})
            b = m_plus(t, e[3], {r.id})
            if a is not None and b is not None and a + b >= 7:
                return True
    return False


def conf14(t):
    for r in t.graph.faces:
        for e in r.edges:
            plus = m_plus(t, e, {r.id})
            if plus is None or plus < 6:
                continue
            disjoint = [d for d in doors(t, r) if not (set(d) & set(e))]
            if len(disjoint) <= 6:
                return True
    return False


def conf15(t):
    for r in t.graph.faces:
        if r.length < 4:
            continue
        for e in r.edges:
            plus = m_plus(t, e, {r.id})
            if plus is None or plus < 4:
                continue
            others = [f for f in r.edges if not (set(f) & set(e))]
            if all(heavy(t, f, r, 3) for f in others):
                return True
    return False


def conf16(t):
    for r, tri, u, v, w in _region_triangle_tuples(t, 3):
        plus = m_plus(t, norm(u, w), {r.id, tri.id})
        if plus is None or t.m(u, v) + plus < 4:
            continue
        if t.m(v, w) > t.m(u, w):
            continue
        g = _second_edge_at(r, u, norm(u, v))
        if g is None or t.m(*g) > t.m(u, w):
            continue
        if all(heavy(t, f, r, 3) for f in r.edges if u not in f):
            return True
    return False


def conf17(t):
    for r in t.graph.faces:
        if r.length < 5:
            continue
        for e in r.edges:
            plus = m_plus(t, e, {r.id})
            if plus is None or plus < 5:
                continue
            others = [f for f in r.edges if not (set(f) & set(e))]
            plusses = [m_plus(t, f, {r.id}) for f in others]
            if any(p is None or p < 2 for p in plusses):
                continue
            if sum(1 for f in others if not heavy(t, f, r, 3)) <= 1:
                return True
    return False


def conf18(t):
    for r, tri, u, v, w in _region_triangle_tuples(t, 4):
        disc = {r.id, tri.id}
        plus = m_plus(t, norm(u, w), disc)
        if plus is None or plus + t.m(u, v) < 5:
            continue
        if t.m(v, w) > t.m(u, w):
            continue
        g = _second_edge_at(r, u, norm(u, v))
        if g is None or t.m(*g) > t.m(u, w):
            continue

        def edges_ok(edge_list):
            plusses = [m_plus(t, f, disc) for f in edge_list]
            if any(p is None or p < 2 for p in plusses):
                return False
            return sum(1 for f in edge_list if not heavy(t, f, r, 3)) <= 1

        uv = norm(u, v)
        branch_a = (
            t.m(u, v) == 3
            and heavy(t, uv, r, 5)
            and edges_ok([f for f in r.edges if not (set(f) & set(uv))])
        )
        branch_b = edges_ok([f for f in r.edges if u not in f])
        if branch_a or branch_b:
            return True
    return False


def conf19(t):
    for r in t.graph.faces:
        if r.length < 5:
            continue
        for e in r.edges:
            plus = m_plus(t, e, {r.id})
            if plus is None or plus < 5:
                continue
            others = [f for f in r.edges if not (set(f) & set(e))]
            if not all(heavy(t, f, r, 2) for f in others):
                continue
            if sum(1 for f in others if not heavy(t, f, r, 3)) <= 2:
                return True
    return False


CONF_MATCHERS = {
    1: conf1, 2: conf2, 3: conf3, 4: conf4, 5: conf5, 6: conf6, 7: conf7,
    8: conf8, 9: conf9, 10: conf10, 11: conf11, 12: conf12, 13: conf13,
    14: conf14, 15: conf15, 16: conf16, 17: conf17, 18: conf18, 19: conf19,
}


def conf_matches(t, k):
    return CONF_MATCHERS[k](t)


# ---------------------------------------------------------------------------
# The descent order, clause by clause
# ---------------------------------------------------------------------------


def smaller(vertices_a, seq_a, vertices_b, seq_b):
    if vertices_a != vertices_b:
        return vertices_a < vertices_b
    for i in range(len(seq_a) - 1, 0, -1):
        if seq_a[i] != seq_b[i]:
            return seq_a[i] > seq_b[i]
    return seq_a[0] < seq_b[0]
