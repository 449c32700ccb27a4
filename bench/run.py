"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Every measured pass runs in a fresh
interpreter (``child.py``), one at a time, because ``coloring`` keeps a
process-wide ``lru_cache`` of perfect matchings keyed by graph value: a
second pass in the same process would find it warm, which no CLI user does.
Passes repeat until ``--seconds`` have gone by and there are at least
``MIN_PASSES``, unless the next pass might overrun the run's deadline.
Children run with PYTHONHASHSEED=0, so set and dict orders, and with them
the work done, repeat exactly: every pass makes the same calls in the same
order.  Each call's time is its median over the passes (see ``per_call``);
every time is in reference seconds (see ``speed.py``).  ``setup_s`` is the median import time of ``dtargets.cli``
over the run's fresh interpreters: every pass's own, and one setup-only
interpreter after each pass, at least ``SETUP_PROBES`` in all.  One
discarded warm-up comes first and leaves the bytecode cache filled.

With ``--trace 1`` passes alternate between untraced and traced; the traced
ones give the per-layer metrics, and the ratio of their timed wall time to
the untraced ones is ``trace.overhead_ratio``.

Workload and metric names, and metric units, come from ``BENCHMARK.json``.  The last line of
standard output is the result; the line before it is a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 20
MIN_PASSES = 3
MIN_TRACED_PASSES = 4  # two untraced, two traced
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child(argv: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the run finished")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {argv} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"child {argv} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, str]:
    deadline = time.monotonic() + DEADLINE_S
    child([], deadline)  # warm-up: fills __pycache__, not a sample
    setup: list[float] = []
    passes: list[tuple[bool, dict]] = []
    carried = "{}"
    wanted, needed = (MIN_TRACED_PASSES, 2) if trace else (MIN_PASSES, 1)
    begin, longest, last = time.monotonic(), 0.0, 0.0
    # stop when the next pass, as long as the last one, would end past --seconds
    while len(passes) < needed or (
        (time.monotonic() - begin + last < seconds or len(passes) < wanted)
        and time.monotonic() + longest < deadline
    ):
        traced = trace and len(passes) % 2 == 1
        started = time.monotonic()
        record = child(
            [workload, str(seed), str(int(traced)), str(int(not passes)), carried], deadline
        )
        if not passes and not trace:
            carried = json.dumps(record["timeouts"])
        # one setup-only interpreter after each pass spreads the samples over the run
        setup += [record["import_s"], child([], deadline)["import_s"]]
        passes.append((traced, record))
        last = time.monotonic() - started
        longest = max(longest, last)
    while len(setup) < SETUP_PROBES:
        setup.append(child([], deadline)["import_s"])
    records = [r for _, r in passes]
    plain = [r for traced, r in passes if not traced]
    metrics = (per_layer(plain, [r for traced, r in passes if traced]) if trace
               else end_to_end(plain, setup))
    steps = len(records[0]["steps_ms"])
    census = {}
    for r in records:
        for key, count in r["census"].items():
            census[key] = census.get(key, 0) + count
    failures = [f for r in records for f in r["failures"]]
    failed = sum(r["failed"] for r in records)
    summary = (
        f"# {workload} seed={seed}: {len(records)} passes ({len(plain)} untraced), "
        f"{len(setup)} setup samples, {steps} steps, each the median of "
        f"{len(plain)} passes ({steps // 10} beyond p90), "
        f"census {json.dumps(census, sort_keys=True)}, "
        f"failures {failures[:3]}"
    )
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }
    return result, summary


def per_call(passes: list[dict], key: str) -> list[float]:
    """Each sample's median over the passes, which repeat the same calls in
    the same order."""
    if len({len(r[key]) for r in passes}) != 1:
        raise BenchError(f"passes recorded different numbers of {key}")
    return [statistics.median(values) for values in zip(*(r[key] for r in passes))]


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    wall = sum(per_call(passes, "calls_s"))
    steps = sorted(per_call(passes, "steps_ms"))
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "targets_per_s": statistics.median(r["targets"] for r in passes) / wall,
        "decided_share": sum(r["decided"] for r in passes) / sum(r["attempted"] for r in passes),
        "max_n_decided": min(r["max_n_decided"] for r in passes),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in passes),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p90": statistics.quantiles(steps, n=10, method="inclusive")[-1],
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    out = {
        key: statistics.median(r["trace"][key] for r in traced)
        for key in traced[0]["trace"]
    }
    out["trace.covered_ratio"] = statistics.median(
        r["trace"]["trace.self_total_s"] / r["measured_s"] for r in traced
    )
    out["trace.overhead_ratio"] = (
        statistics.median(r["elapsed_s"] for r in traced)
        / statistics.median(r["elapsed_s"] for r in plain)
    )
    return out


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in declared["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "dtargets" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'dtargets'}", file=sys.stderr)
        return 2
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    try:
        result, summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    measured = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    result["metrics"] = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted
    }
    print(summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
