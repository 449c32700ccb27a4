"""Independent re-checks of the package's verdicts, run outside the timed
region.

Each check reads only plain data off the returned objects (edge tuples,
multiplicities, report rows) and recomputes the property with its own code,
so a wrong answer from the code under test cannot vouch for itself.  The
one exception is a ``Conf(k)`` primality witness: re-deriving nineteen
patterns would duplicate ``config``, so those go through the package's own
``recheck`` on the named elements, after the names are checked here.

Every check returns an error message, or None when the verdict holds.
"""

from __future__ import annotations

import json
from itertools import combinations


def _mult(t) -> dict[tuple[int, int], int]:
    return dict(t.mult_items)


def cut_value(t, X) -> int:
    inside = set(X)
    return sum(m for (u, v), m in t.mult_items if (u in inside) != (v in inside))


def degree_sums(t) -> str | None:
    sums = [0] * t.vertex_count
    for (u, v), m in t.mult_items:
        sums[u] += m
        sums[v] += m
    bad = [v for v, s in enumerate(sums) if s != t.d]
    return f"degree sums off at {bad}" if bad else None


def colouring(t, result) -> str | None:
    """d perfect matchings of the graph whose coverage equals m."""
    if result is None:
        return "reported uncolourable, but the target is colourable by construction"
    matchings = result.matchings
    if len(matchings) != t.d:
        return f"{len(matchings)} matchings, expected {t.d}"
    n = t.vertex_count
    graph_edges = set(_mult(t))
    coverage: dict[tuple[int, int], int] = {}
    for M in matchings:
        covered = [0] * n
        for u, v in M:
            e = (min(u, v), max(u, v))
            if e not in graph_edges:
                return f"{e} is not an edge"
            covered[u] += 1
            covered[v] += 1
            coverage[e] = coverage.get(e, 0) + 1
        if covered != [1] * n:
            return f"matching {M} is not perfect"
    wrong = [e for e, m in t.mult_items if coverage.get(e, 0) != m]
    return f"coverage differs from m on {wrong[:3]}" if wrong else None


def ladder_cut(t, witness) -> str | None:
    """The k-prism ladder's minimum odd cut: value 8 at X = (0,)."""
    if tuple(witness.X) != (0,) or witness.value != 8:
        return f"min odd cut X={witness.X} value={witness.value}, expected (0,) / 8"
    if cut_value(t, witness.X) != witness.value:
        return "min odd cut value does not match its X"
    return None


def _connected(n: int, adj: list[set[int]], removed: set[int]) -> bool:
    rest = [v for v in range(n) if v not in removed]
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        for u in adj[stack.pop()]:
            if u not in removed and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(rest)


def connectivity(t) -> int:
    """0, 1, 2, or 3 for 'at least 3-connected', by removing <= 2 vertices."""
    n = t.vertex_count
    adj: list[set[int]] = [set() for _ in range(n)]
    for (u, v), _ in t.mult_items:
        adj[u].add(v)
        adj[v].add(u)
    if not _connected(n, adj, set()):
        return 0
    for k in (1, 2):
        for removed in combinations(range(n), k):
            if n - k >= 2 and not _connected(n, adj, set(removed)):
                return k
    return 3


def primality_witness(t, verdict, recheck) -> str | None:
    """A non-primality witness must re-verify; a prime verdict is wrong on
    every input the benchmark feeds."""
    if verdict.is_prime:
        return "reported prime"
    w = verdict.witness
    kind = type(w).__name__
    mult = _mult(t)
    n = t.vertex_count
    if kind == "ZeroMultEdge":
        ok = mult.get(tuple(w.edge)) == 0
    elif kind == "TooFewVertices":
        ok = w.vertex_count == n < 6
    elif kind == "MultiplicityOver6":
        ok = mult.get(tuple(w.edge), 0) > 6
    elif kind == "CutViolation":
        X = w.witness.X
        ok = (len(X) % 2 == 1 and 2 <= len(X) <= n - 2
              and cut_value(t, X) == w.witness.value < t.d + 2)
    elif kind == "NotThreeConnected":
        ok = connectivity(t) == w.level < 3
    elif kind == "ConfigMatch":
        vertices = [v for _, v in w.names]
        ok = (1 <= w.conf_index <= 19
              and len(set(vertices)) == len(vertices)
              and all(0 <= v < n for v in vertices)
              and recheck(t, w))
    else:
        return f"unknown witness kind {kind}"
    return None if ok else f"{kind} witness does not re-verify: {w}"


def charge_identities(report, region_count: int) -> str | None:
    """Sum alpha = 16 and sum beta = sum gamma = 0, re-summed from the rows."""
    rows = report.regions
    if len(rows) != region_count:
        return f"{len(rows)} report rows for {region_count} regions"
    alpha = sum(r.alpha for r in rows)
    beta = sum(r.beta for r in rows)
    gamma = sum(r.gamma for r in rows)
    if (alpha, beta, gamma) != (16, 0, 0):
        return f"charge totals alpha={alpha} beta={beta} gamma={gamma}"
    return None


def score_key(t):
    """The descent order as documented: fewer vertices first; then, from the
    top multiplicity down, more edges at the first differing multiplicity;
    then fewer multiplicity-0 edges."""
    counts = [0] * (t.d + 1)
    for _, m in t.mult_items:
        counts[m] += 1
    return (t.vertex_count, tuple(-counts[i] for i in range(t.d, 0, -1)), counts[0])


def switched(mult: dict, u: int, v: int, w: int, x: int) -> dict | None:
    """The square switch on plain data: one unit from {uv, wx} to {vw, xu},
    or None when it would push an edge below zero."""
    def e(a, b):
        return (min(a, b), max(a, b))
    if mult[e(u, v)] == 0 or mult[e(w, x)] == 0:
        return None
    out = dict(mult)
    out[e(u, v)] -= 1
    out[e(w, x)] -= 1
    out[e(v, w)] += 1
    out[e(x, u)] += 1
    return out


def merged_scan(outputs: list[dict]) -> str:
    """The machine output of one ``scan`` over every base, rebuilt from the
    machine outputs of one ``scan --bases <base>`` per base, in scan order."""
    details = {"items": 0, "per_base": {}, "prime": [], "uncolourable": []}
    for out in outputs:
        d = out["details"]
        details["items"] += d["items"]
        details["per_base"].update(d["per_base"])
        details["prime"] += d["prime"]
        details["uncolourable"] += d["uncolourable"]
    payload = {
        "command": "scan",
        "input": None,
        "verdict": (
            f"scanned {details['items']} targets: {len(details['prime'])} prime, "
            f"{len(details['uncolourable'])} uncolourable-but-oddly-connected"
        ),
        "exit_code": max(out["exit_code"] for out in outputs),
        "details": details,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
