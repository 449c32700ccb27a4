"""Rebuild ``panel.json``, the fixed case list of ``antiprism_colour``.

    PYTHONPATH=src python3 bench/panel.py > bench/panel.json

Colouring times on these targets are heavy-tailed: at one n, one seed
finishes in milliseconds and the next runs for minutes.  A case whose time
sits near the per-call limit would flip between decided and timed out from
run to run.  So for each n the case seeds 0, 1, 2, ... are tried in order
and a case is kept only when it is clearly on one side of the limit: done
in under a third of it, or still running at three times it.  Cases in
between are skipped, never the slow ones, so the cliff stays in the panel
as timeouts.  The first ``PER_N`` kept cases of each n form the panel.
"""

import json
import sys

import gen
import worker
from dtargets.coloring import edge_colour
from dtargets.planar import parse_dtarget

LIMIT_S = 0.5
CAP = 64
PER_N = 4
SIZES = range(6, 26, 2)


def main() -> None:
    worker.install_alarm()
    probe = worker.Pass()
    cases, skipped = {}, {}
    for n in SIZES:
        kept, case_seed = [], 0
        while len(kept) < PER_N:
            t = parse_dtarget(gen.antiprism_case(n, case_seed))
            status, _, s = probe.call(n, 3 * LIMIT_S, edge_colour, t, cap=CAP)
            if status == "timeout" or s < LIMIT_S / 3:
                kept.append(case_seed)
            else:
                skipped.setdefault(str(n), []).append(case_seed)
            print(f"n={n} case {case_seed}: {status} {s:.3f} s", file=sys.stderr)
            case_seed += 1
        cases[str(n)] = kept
    print(json.dumps({"limit_s": LIMIT_S, "cap": CAP, "cases": cases,
                      "skipped": skipped}, indent=2))


if __name__ == "__main__":
    main()
