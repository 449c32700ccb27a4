"""How fast the machine runs right now, from a fixed probe.

The reference machine is a shared virtual machine.  Its other tenants slow
every process on it, by up to about 2x, in phases that last from seconds to
minutes; CPU time slows with wall time, so it is contention for the cores
and caches, not descheduling.  A run of half a minute can fall wholly into
a slow phase, so no statistic over raw times makes runs minutes apart agree.

So every time the benchmark reports is in *reference seconds*: the measured
seconds, times ``REFERENCE_S`` over the time the probe took just then
(``worker.Pass.call`` probes before and during each call).  The
probe is a fixed piece of pure-Python graph code, owned by the benchmark and
independent of the package, so a change to the package cannot change it.  A
call that takes 1 s while the probe runs at half its reference speed counts
0.5 s: what it would take on the reference machine in a quiet phase.  The
probe tracks the package's code closely but not exactly; across phases the
ratio between the two moves by about 10 %, against 2x for raw times.
"""

from __future__ import annotations

import statistics
import time

# The probe's time on the reference machine in a quiet phase (median of three).
REFERENCE_S = 0.00055
PROBE_EVERY_S = 0.05  # the longest a call goes without a probe
WINDOW = 3  # the scale is the median of the last few probes


def _kernel() -> int:
    """Brute-force 3-connectivity of the 16-vertex antiprism: remove every
    pair of vertices and search what is left."""
    k = 8
    n = 2 * k
    adj = [set() for _ in range(n)]
    for i in range(k):
        for u, v in ((i, (i + 1) % k), (k + i, k + (i + 1) % k), (i, k + i),
                     (i, k + (i + 1) % k)):
            adj[u].add(v)
            adj[v].add(u)
    connected = 0
    for a in range(n):
        for b in range(a + 1, n):
            start = next(v for v in range(n) if v not in (a, b))
            seen = {start, a, b}
            stack = [start]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            connected += len(seen) == n
    return connected


def probe() -> float:
    """Seconds the probe takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class Speed:
    """The current scale from measured to reference seconds."""

    def __init__(self) -> None:
        self.recent: list[float] = []
        self.probed_at = float("-inf")
        self.probing_s = 0.0  # time spent in probes so far

    def sample(self) -> float:
        """Probe now; the scale over the last ``WINDOW`` probes."""
        took = probe()
        self.recent = (self.recent + [took])[-WINDOW:]
        self.probed_at = time.perf_counter()
        self.probing_s += took
        return REFERENCE_S / statistics.median(self.recent)

    def scale(self) -> float:
        """Reference seconds per measured second, probing first if the last
        probe is older than ``PROBE_EVERY_S``."""
        while len(self.recent) < WINDOW or time.perf_counter() - self.probed_at > PROBE_EVERY_S:
            self.sample()
        return REFERENCE_S / statistics.median(self.recent)
