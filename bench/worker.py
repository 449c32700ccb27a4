"""One measured pass of one workload; ``child.py`` runs it in a fresh
interpreter.

Every call into the package goes through :meth:`Pass.call`, which times it
under a per-call alarm on the process's CPU time (``ITIMER_PROF``): a call
that the shared host merely descheduled is not cut off early.  A call that
hits its limit is recorded as ``timeout`` and a ``TooLarge`` refusal as
``refused``; both are undecided, count their full limit in ``wall_s``, and
stay in the counts.  A call that timed out in the run's first pass is
carried into its later untraced passes as a timeout at its full limit,
with the time it took in the first pass, instead of being run again:
re-running it would only burn the same limit.
Step times are the time actually spent.  Every time, and every limit,
is in reference seconds (``speed.py``): a call's measured time is scaled by
the mean of probes of the machine's speed taken just before it and, in an
untraced pass, every ``PROBE_EVERY_S`` during it (from a timer signal; the
probes' own time is taken out of the call's).
Correctness checks (``check.py``) run between calls, outside the timed
region and outside any span.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import signal
import time
from pathlib import Path

import dtargets
import dtargets.cli
from dtargets.errors import TooLarge, WouldGoNegative

import check
import gen
from speed import PROBE_EVERY_S, Speed

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text())
PANEL = json.loads((HERE / "panel.json").read_text())

SCAN_ARGV = ["scan", "--limit-per-base", "1000000", "--format", "machine"]
SCAN_BASES = ("k4", "prism", "cube", "octahedron", "pentagonal_prism")  # the scan's order
SCAN_LIMIT_S = 30.0  # the largest base takes ~4 s on the reference machine
LADDER_N = tuple(range(6, 30, 2))  # past the cut cap of 24
LADDER_LIMIT_S = 0.5  # a cut scan takes ~0.26 s at n = 20 and ~0.9-1.0 s at n = 22
WALK_STEPS = 100
WALK_LIMIT_S = 2.0  # a step takes ~5-12 ms
REFERENCE_WALK_SEED = 0
REFERENCE_WALK_STEPS = 30


class CallTimeout(Exception):
    """Raised by the per-call alarm (``spans.py`` counts it by this name)."""


def _alarm(signum, frame):
    raise CallTimeout


_ticks: list[float] = []  # scales probed during the current call
_speed = Speed()


def _tick(signum, frame):
    _ticks.append(_speed.sample())


def install_alarm() -> None:
    signal.signal(signal.SIGPROF, _alarm)
    signal.signal(signal.SIGALRM, _tick)


class Pass:
    """Everything one pass records: timed calls, steps, failed checks."""

    def __init__(self, tracer=None, carried: dict[int, float] | None = None) -> None:
        self.tracer = tracer
        # call index -> elapsed seconds, for calls that timed out in the first pass
        self.carried = carried or {}
        self.calls: list[tuple[int, str, float, float]] = []  # n, status, counted, elapsed
        self.failures: list[str] = []
        self.targets = 0
        self.steps_ms: list[float] = []  # walk steps
        self.census: dict[str, int] = {}
        self.measured_s = 0.0  # unscaled time in calls, for the trace ratios
        install_alarm()

    def call(self, n: int, limit: float, fn, *args, expect=(), **kwargs):
        """Time fn(*args) under the limit: (status, result, elapsed seconds).

        status is ``ok`` (result is the return value or an exception in
        ``expect``, a verdict of its own), ``timeout``, ``refused`` or
        ``error`` (an unexpected exception, counted as a failure).
        """
        elapsed = self.carried.get(len(self.calls))
        if elapsed is not None:
            self.calls.append((n, "timeout", limit, elapsed))
            return "timeout", None, elapsed
        status, result, measured = "ok", None, 0.0
        scale = _speed.scale()
        probing = _speed.probing_s
        _ticks.clear()
        tracer = self.tracer
        try:
            if tracer is not None:
                tracer.active = True
            else:  # probes inside spans would count as the package's time
                signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
            signal.setitimer(signal.ITIMER_PROF, limit / scale)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                measured = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_PROF, 0)
                signal.setitimer(signal.ITIMER_REAL, 0)
        except CallTimeout:
            status = "timeout"
        except TooLarge as exc:
            status, result = "refused", exc
        except expect as exc:
            result = exc
        except Exception as exc:  # the pass must go on and report it
            status, result = "error", exc
            self.failures.append(f"n={n} {getattr(fn, '__name__', fn)}: {exc!r}")
        if tracer is not None:
            tracer.active = False
            tracer.unwind()
        if status != "timeout":
            # a timed-out call used its whole limit, probes included
            measured -= _speed.probing_s - probing
            scale = (scale + sum(_ticks)) / (1 + len(_ticks))
        self.measured_s += measured
        elapsed = measured * scale
        counted = elapsed if status in ("ok", "error") else limit
        self.calls.append((n, status, counted, elapsed))
        return status, result, elapsed

    def check(self, message: str | None) -> None:
        if message is not None:
            self.failures.append(message)

    def undecided(self, n: int, limit: float, count: int) -> None:
        """Calls that could not be attempted because their input was never
        produced: recorded as undecided at their full limit, never dropped."""
        for _ in range(count):
            self.calls.append((n, "skipped", limit, 0.0))

    def result(self) -> dict:
        decided_at: dict[int, bool] = {}
        for n, status, _, _ in self.calls:
            decided_at[n] = decided_at.get(n, True) and status == "ok"
        all_decided = [n for n, ok in decided_at.items() if ok]
        return {
            "wall_s": sum(c[2] for c in self.calls),
            "calls_s": [c[2] for c in self.calls],
            "timeouts": {i: c[3] for i, c in enumerate(self.calls) if c[1] == "timeout"},
            "elapsed_s": sum(c[3] for c in self.calls),
            "measured_s": self.measured_s,
            "attempted": len(self.calls),
            "decided": sum(1 for c in self.calls if c[1] == "ok"),
            "failed": len(self.failures),
            "failures": self.failures[:5],
            "targets": self.targets,
            "max_n_decided": max(all_decided, default=0),
            # a step is one call, unless the workload records its own steps
            "steps_ms": self.steps_ms or [c[3] * 1e3 for c in self.calls],
            "census": self.census,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def corpus_scan(p: Pass, seed: int) -> None:
    """The exhaustive fixture scan through the CLI, in-process, as one
    ``scan --bases <base>`` command per fixture graph (seed unused).  The
    five outputs, merged, must be the full scan's output byte for byte."""
    fixtures = Path(dtargets.cli.__file__).parent / "fixtures"
    outputs = []
    for base in SCAN_BASES:
        text = (fixtures / f"{base}.dtarget").read_text()
        n = sum(line.startswith("vertex ") for line in text.splitlines())
        out = io.StringIO()

        def scan():
            with contextlib.redirect_stdout(out):
                return dtargets.cli.main([*SCAN_ARGV, "--bases", base])

        status, rc, _ = p.call(n, SCAN_LIMIT_S, scan)
        if status != "ok":
            continue
        if rc != 0:
            p.check(f"scan of {base} exited {rc}")
            continue
        outputs.append(json.loads(out.getvalue()))
        p.targets += outputs[-1]["details"]["items"]
    if len(outputs) == len(SCAN_BASES):
        digest = hashlib.sha256(check.merged_scan(outputs).encode()).hexdigest()
        if digest != GOLDEN["corpus_scan_sha256"]:
            p.check(f"merged scan output sha256 {digest} differs from golden")


def prism_ladder(p: Pass, seed: int) -> None:
    """k-prisms, ring 2 / vertical 4, through every layer (seed unused)."""
    L = LADDER_LIMIT_S
    for n in LADDER_N:
        text = gen.prism_text(n)
        before = len(p.calls)
        status, t, _ = p.call(n, L, dtargets.planar.parse_dtarget, text)
        if status != "ok":
            p.undecided(n, L, 5)
            continue
        faces = len(t.mult_items) - n + 2
        status, rep, _ = p.call(n, L, dtargets.planar.validate, t)
        if status == "ok":
            p.check(check.degree_sums(t))
            if not (rep.degree_ok and rep.euler_ok
                    and rep.connectivity_level == check.connectivity(t) == 3):
                p.check(f"n={n}: validate reported {rep}")
        status, w, _ = p.call(n, L, dtargets.cuts.min_odd_cut, t)
        if status == "ok":
            p.check(check.ladder_cut(t, w))
        status, verdict, _ = p.call(n, L, dtargets.config.is_prime, t)
        if status == "ok":
            p.check(check.primality_witness(t, verdict, dtargets.config.recheck))
        status, report, _ = p.call(n, L, dtargets.discharge.charge_report, t)
        if status == "ok":
            p.check(check.charge_identities(report, faces))
        status, colouring, _ = p.call(n, L, dtargets.coloring.edge_colour, t)
        if status == "ok":
            p.check(check.colouring(t, colouring))
        p.targets += all(c[1] == "ok" for c in p.calls[before:])


def antiprism_colour(p: Pass, seed: int) -> None:
    """Sums of 8 random perfect matchings of antiprisms, coloured with a cap
    above n.  The cases are a fixed panel run in a fixed order (see README),
    so the seed is unused."""
    cases = [(int(n), s) for n, seeds in PANEL["cases"].items() for s in seeds]
    L, cap = PANEL["limit_s"], PANEL["cap"]
    for n, case_seed in cases:
        t = dtargets.planar.parse_dtarget(gen.antiprism_case(n, case_seed))
        status, colouring, _ = p.call(n, L, dtargets.coloring.edge_colour, t, cap=cap)
        if status == "ok":
            p.check(check.colouring(t, colouring))
            p.targets += 1


def walk_starts() -> list[tuple[str, str]]:
    return [
        ("octahedron", gen.uniform_text(*gen.antiprism(3), 2)),
        ("antiprism16", gen.uniform_text(*gen.antiprism(8), 2)),
        ("prism10", gen.prism_text(20)),
    ]


def walk(p: Pass, rng: random.Random, text: str, steps: int) -> str:
    """A random walk of square switches over every 4-cycle; returns the
    digest of its beta/gamma firing census and final target."""
    S, D, C = dtargets.switching, dtargets.discharge, dtargets.config
    L = WALK_LIMIT_S
    t = dtargets.planar.parse_dtarget(text)
    rot = [list(r) for r in t.graph.rotations]
    n = len(rot)
    cycles = gen.four_cycles(rot)
    mult = dict(t.mult_items)
    census: dict[str, int] = {}
    for _ in range(steps):
        step_s = 0.0
        while True:
            u, v, w, x = rng.choice(cycles)
            if rng.random() < 0.5:
                u, v, w, x = v, w, x, u
            expected = check.switched(mult, u, v, w, x)
            status, new, elapsed = p.call(
                n, L, S.switch_square, t, u, v, w, x, expect=WouldGoNegative
            )
            step_s += elapsed
            if status != "ok":
                return "walk ended undecided"
            refused = isinstance(new, Exception)
            if refused != (expected is None) or (
                not refused and dict(new.mult_items) != expected
            ):
                p.check(f"switch_square{(u, v, w, x)} gave {new!r}, expected {expected}")
                return "walk ended on a wrong switch"
            if not refused:
                break
        decided = True
        status, smaller, elapsed = p.call(n, L, S.is_smaller, new, t)
        step_s += elapsed
        decided &= status == "ok"
        if status == "ok" and smaller != (check.score_key(new) < check.score_key(t)):
            p.check(f"is_smaller gave {smaller} after switch {(u, v, w, x)}")
        status, report, elapsed = p.call(n, L, D.charge_report, new)
        step_s += elapsed
        decided &= status == "ok"
        if status == "ok":
            p.check(check.degree_sums(new) or check.charge_identities(
                report, len(expected) - n + 2))
            for kind, traces in (("beta", report.beta_traces), ("gamma", report.gamma_traces)):
                for tr in traces:
                    if tr.rule is not None and tr.value != 0:
                        key = f"{kind}{tr.rule}"
                        census[key] = census.get(key, 0) + 1
        status, matches, elapsed = p.call(n, L, C.detect_all, new)
        step_s += elapsed
        decided &= status == "ok"
        if status == "ok":
            bad = [m for m in matches if not C.recheck(new, m)]
            p.check(f"{len(bad)} detect_all matches fail recheck" if bad else None)
        p.steps_ms.append(step_s * 1e3)
        p.targets += decided
        t, mult = new, expected
    for key, count in census.items():
        p.census[key] = p.census.get(key, 0) + count
    final = gen.to_text(rot, mult)
    blob = json.dumps({"census": sorted(census.items()), "final": final})
    return hashlib.sha256(blob.encode()).hexdigest()


def switch_walk(p: Pass, seed: int) -> None:
    """Seeded square-switch walks from three start targets."""
    for i, (name, text) in enumerate(walk_starts()):
        walk(p, random.Random(seed * 101 + i), text, WALK_STEPS)


def reference_walks() -> list[str]:
    """Untimed walks at a fixed seed whose digests must match golden.json."""
    failures = []
    for i, (name, text) in enumerate(walk_starts()):
        ref = Pass()
        digest = walk(ref, random.Random(REFERENCE_WALK_SEED * 101 + i), text,
                      REFERENCE_WALK_STEPS)
        failures += ref.failures
        if digest != GOLDEN["reference_walks"][name]:
            failures.append(f"reference walk {name}: digest {digest} differs from golden")
    return failures


WORKLOADS = {
    "corpus_scan": corpus_scan,
    "prism_ladder": prism_ladder,
    "antiprism_colour": antiprism_colour,
    "switch_walk": switch_walk,
}


def run_pass(workload: str, seed: int, traced: bool, reference: bool,
             carried: dict[int, float] | None = None) -> dict:
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    p = Pass(tracer, carried)
    WORKLOADS[workload](p, seed)
    out = p.result()
    if reference and workload == "switch_walk":
        extra = reference_walks()
        out["failed"] += len(extra)
        out["failures"] = (out["failures"] + extra)[:5]
    if tracer is not None:
        out["trace"] = tracer.summary()
    return out
