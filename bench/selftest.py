"""Self-tests of the benchmark's own parts.

    python3 bench/selftest.py

Checks that every generated target is a valid 8-target on a planar
embedding (degree sums of 8, V - E + F = 2 by this file's own face tracer),
that the colouring checker rejects a broken colouring, that a deliberately
slow call is counted as undecided rather than dropped, and so is a timeout
carried from a run's first pass, that per-base scan outputs merge into the
scan's own output, and that span self times add up to the traced wall
time.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402


def euler(rot: list[list[int]]) -> int:
    """V - E + F, tracing faces with the package's convention: from dart
    (u, v) go to (v, w), w the predecessor of u in v's rotation."""
    darts = {(v, u) for v, r in enumerate(rot) for u in r}
    faces = 0
    while darts:
        start = cur = min(darts)
        while True:
            darts.discard(cur)
            u, v = cur
            r = rot[v]
            cur = (v, r[r.index(u) - 1])
            if cur == start:
                break
        faces += 1
    edges = sum(len(r) for r in rot) // 2
    return len(rot) - edges + faces


def parse(text: str) -> tuple[list[list[int]], dict]:
    rot, mult = [], {}
    for line in text.splitlines()[1:]:
        if line.startswith("vertex "):
            rot.append([int(u) for u in line.split(":")[1].split()])
        else:
            _, u, v, m = line.split()
            mult[(int(u), int(v))] = int(m)
    return rot, mult


def assert_target(text: str, what: str) -> None:
    rot, mult = parse(text)
    sums = [0] * len(rot)
    for (u, v), m in mult.items():
        assert v in rot[u] and u in rot[v], f"{what}: {u}-{v} not in the rotations"
        sums[u] += m
        sums[v] += m
    assert sums == [8] * len(rot), f"{what}: degree sums {sums}"
    assert euler(rot) == 2, f"{what}: V - E + F = {euler(rot)}"


def test_generated_targets() -> None:
    import worker

    for n in worker.LADDER_N:
        assert_target(gen.prism_text(n), f"prism n={n}")
    for n, seeds in worker.PANEL["cases"].items():
        for s in seeds:
            assert_target(gen.antiprism_case(int(n), s), f"antiprism n={n} case {s}")
    for name, text in worker.walk_starts():
        assert_target(text, name)
    rng = random.Random(7)
    for k in range(3, 13):
        rot, edges = gen.antiprism(k)
        for M in (gen.random_perfect_matching(rot, rng) for _ in range(3)):
            covered = sorted(v for e in M for v in e)
            assert covered == list(range(2 * k)), f"matching {M} is not perfect"
            assert all(e in edges for e in M)


def test_colouring_checker() -> None:
    import check
    from dtargets.planar import parse_dtarget

    rot, edges = gen.antiprism(5)
    mult, matchings = gen.matching_sum(rot, edges, 8, random.Random(3))
    t = parse_dtarget(gen.to_text(rot, mult))
    good = SimpleNamespace(matchings=[tuple(M) for M in matchings])
    assert check.colouring(t, good) is None
    other = next(M for M in (gen.random_perfect_matching(rot, random.Random(s))
                             for s in range(50)) if M != matchings[0])
    bad = SimpleNamespace(matchings=[tuple(other)] + good.matchings[1:])
    assert check.colouring(t, bad) is not None, "checker accepted a wrong coverage"
    assert check.colouring(t, None) is not None


def test_slow_call_is_undecided() -> None:
    import dtargets
    import worker

    worker.install_alarm()
    p = worker.Pass()
    t = dtargets.planar.parse_dtarget(gen.prism_text(24))
    status, _, elapsed = p.call(24, 0.05, dtargets.cuts.min_odd_cut, t)
    assert status == "timeout" and elapsed >= 0.05, (status, elapsed)
    big = dtargets.planar.parse_dtarget(gen.prism_text(26))
    status, _, elapsed = p.call(26, 0.05, dtargets.cuts.min_odd_cut, big)
    assert status == "refused" and elapsed < 0.05, (status, elapsed)
    # wall_s charges both undecided calls their full limit
    assert [c[2] for c in p.calls] == [0.05, 0.05], p.calls
    status, _, _ = p.call(6, 5.0, dtargets.cuts.min_odd_cut,
                          dtargets.planar.parse_dtarget(gen.prism_text(6)))
    assert status == "ok"
    out = p.result()
    assert (out["attempted"], out["decided"], out["failed"]) == (3, 1, 0), out
    assert out["max_n_decided"] == 6 and out["wall_s"] >= 0.1, out


def test_carried_timeout_is_undecided() -> None:
    import worker

    def never():
        raise AssertionError("a carried call must not run")

    p = worker.Pass(carried={0: 0.6})
    status, _, elapsed = p.call(22, 0.5, never)
    assert (status, elapsed) == ("timeout", 0.6), (status, elapsed)
    status, _, _ = p.call(6, 5.0, lambda: None)
    assert status == "ok"
    out = p.result()
    assert (out["attempted"], out["decided"]) == (2, 1), out
    assert out["calls_s"][0] == 0.5 and out["max_n_decided"] == 6, out


def test_merged_scan_is_the_scan_output() -> None:
    import contextlib
    import io

    import check
    import dtargets.cli

    def scan(bases: str) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            dtargets.cli.main(["scan", "--format", "machine", "--bases", bases])
        return out.getvalue()

    parts = [json.loads(scan(base)) for base in ("k4", "prism")]
    assert check.merged_scan(parts) == scan("k4,prism")


def test_span_self_times_add_up() -> None:
    from spans import Tracer

    def inner():
        time.sleep(0.02)

    tracer = Tracer()
    inner_w = tracer.wrap("cuts.min_odd_cut", inner)

    def outer():
        time.sleep(0.01)
        inner_w()
        inner_w()

    outer_w = tracer.wrap("config.is_prime", outer)
    tracer.active = True
    start = time.perf_counter()
    outer_w()
    wall = time.perf_counter() - start
    s = tracer.summary()
    assert s["cuts.min_odd_cut.calls"] == 2 and s["config.is_prime.calls"] == 1
    assert s["cuts.self_s"] >= 0.04 and 0.01 <= s["config.self_s"] < 0.04, s
    assert abs(s["trace.self_total_s"] - wall) < 0.005, (s, wall)


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(json.dumps({"selftests": len(tests), "failed": 0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
