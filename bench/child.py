"""Entry point of every fresh interpreter the benchmark starts.

The first thing it does is import ``dtargets.cli`` and time that import:
one ``setup_s`` sample, taken before anything else is loaded.  With no
arguments it prints just that sample; otherwise it runs one pass of a
workload (``worker.run_pass``) and prints the pass record as JSON.

    python3 bench/child.py [<workload> <seed> <traced 0|1> <reference 0|1> [<carried>]]

``carried`` is a JSON object mapping the index of each call that timed out
in the run's first pass to its elapsed seconds (see ``worker.Pass``).

``run.py`` sets PYTHONPATH to the checkout's ``src``.
"""

import sys
import time

_start = time.perf_counter()
import dtargets.cli  # noqa: E402

import_s = time.perf_counter() - _start

import json  # noqa: E402
from pathlib import Path  # noqa: E402

src = Path(__file__).resolve().parent.parent / "src"
if Path(dtargets.cli.__file__).resolve().parent.parent != src:
    sys.exit(f"dtargets was imported from {dtargets.cli.__file__}, not {src}")

from speed import Speed  # noqa: E402

record = {"import_s": import_s * Speed().scale()}  # in reference seconds
if len(sys.argv) > 1:
    import worker

    workload, seed, traced, reference = sys.argv[1:5]
    carried = {int(i): s for i, s in json.loads(sys.argv[5]).items()} if len(sys.argv) > 5 else {}
    record.update(worker.run_pass(workload, int(seed), traced == "1", reference == "1", carried))
print(json.dumps(record))
