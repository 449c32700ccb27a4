"""Golden gate: frozen digests of every report on the default corpus.

For each of the 213 default-corpus targets the test hashes

* the ``--format machine`` output of ``check``, ``classify``, ``discharge``
  and ``colour`` (the path-dependent ``input`` field dropped),
* the text output of the same four commands, and
* every ``detect_all`` match: pattern index, names, region ids, satisfied
  facts and branch, in the order reported.

It also hashes the ``--format machine`` output of the exhaustive scan
(every enumerated target of every fixture) and compares it with the
benchmark's ``corpus_scan_sha256`` in ``bench/golden.json``, and the
``detect_all`` match payloads and the ``charge_report`` rows and traces of
every enumerated target (oddly connected or not) and of the seeded
square-switch walk in ``gadgets.walk_targets``, and the machine and text
output of ``switch`` over the fixed moves in ``SWITCH_MOVES``.  Further
``charge_report`` digests cover one-shot prisms and uniform antiprisms with
6-40 vertices (each parsed fresh, as the benchmark's ladder meets them) and
every assignment with zero multiplicities allowed on k4, prism and cube.
The degenerate digest pins ``detect_all`` on every multiplicity vector in
1..4 over the five small graphs of ``gadgets.DEGENERATE_GRAPHS``, whose
faces share vertices or repeat them.
The faces digest pins targets whose faces are not all simple cycles: the
seeded spanning subgraphs in ``gadgets.spanning_subgraph_targets``, the
bowtie and the tree, through their door tables, ``detect_all``, charge
reports and every edge's beta and gamma traces; a second faces digest takes
the same rows over ``spanning_subgraph_targets(40, 2)``, whose doors include
some decided by the second flank at an end the far face visits twice.

A refactor of detection, charging or reporting must leave every digest
unchanged.  When a deliberate change of output is made, regenerate the
digests with ``python tests/test_golden.py`` and say why in the change log.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from itertools import product
from pathlib import Path

from dtargets.cli import main
from dtargets.config import detect_all, door_table
from dtargets.corpus import build_corpus
from dtargets.discharge import beta_trace, charge_report, gamma_trace
from dtargets.errors import DTargetError
from dtargets.planar import DTarget, RotationGraph, parse_dtarget, serialize_dtarget

from gadgets import (
    DEGENERATE_GRAPHS,
    one_shot_targets,
    spanning_subgraph_targets,
    unfiltered_corpus,
    walk_targets,
    zero_mult_targets,
)

BENCH_GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"
DATA = Path(__file__).resolve().parent / "data"
FIXTURES = Path(__file__).resolve().parents[1] / "src" / "dtargets" / "fixtures"

COMMANDS = ("check", "classify", "discharge", "colour")

GOLDEN = {
    "targets": 213,
    "check": "4ebc43a26173b420662d623c03da459cb4b0969328e6c0c35fb3d51104224df1",
    "classify": "72685030bf4b0f2c92111eac7641e29b3045e8431773c94120b6691118458582",
    "discharge": "e5798bd95bd045b01386fe654e85244ebdcb44716e7210c62d5278579ba2d800",
    "colour": "ad52c58911d3b33f35c24d568536d226a03032dc769ce332dfcfa07339bfe9c3",
    "check_text": "880b62d1a11d87136b88cce245dcb7499668f77e424ad370f537ff46fa327a2b",
    "classify_text": "3aab6947c3b3b75bd6e4cb84ed716b4598455643a98f41daa2851428f89386ad",
    "discharge_text": "bad0fdcc7482b49f3e38b82f15bb91119263a7fed15b546d44454dabd2cf6154",
    "colour_text": "8d8dfefa9cf06411f030670b345c3def7791f8369d353e0cc0183ee18d27e574",
    "detect_all": "3e66c422b7fcfc4bab60ba9c3f8bbc3705c7e62a54a121f078113c66c03eb5b0",
}

SWITCH_GOLDEN = {
    "switch": "bfa5aaf88e8ba7ac8ca3e0493aea657c663415df9bf585fb3a637f0c52e62fae",
    "switch_text": "8e5c1e029be414ecb505e73f5b2d37ffed3f695e97a51750636cc04445bd1587",
}

DETECT_ALL_GOLDEN = {
    "enumerated": "75e1286f5aa861a97687a176abf87b53749315038e48c476e45a546f83980eac",
    "walked": "fc85047b6f4ca186a2a0d75e83708da5c5af73f04c29b0813ad1a3f0ba05898b",
}

CHARGE_REPORT_GOLDEN = {
    "enumerated": "135d4ca0e7e6df7ad7752dbe0374ee16e41784f9fd8944ab5b24ad330126945a",
    "walked": "17043bef3ad29f2c4cbedc43308580e23dfaef33b14f433af16b959022c6be66",
    "bowtie": "18b04012f9801d65f5629d955a9934cb3dfddc159b02bbee24f1cdcaca4e3809",
    "tree": "NotTwoConnected: edge (0, 1) borders region 0 twice",
    "prisms": "3f9f62bf9189c0d5bc3023721fdcc06073b309c8b5edefc026c3d6fa70370592",
    "antiprisms": "5c9f2602ce9cc6267d346ed530f16d24ccdc969394371230c356415b37426af6",
    "zero_mult": "023a06507bc4f705c7e3af45a1d0060191f894f1f71969d49ddfc2e94697c80f",
}

FACES_GOLDEN = "d86026c470f5fd2e39744fe259d73535540e9840907f67fd013f8da6e1c4194e"

FACES_SEED_2_GOLDEN = "a9abd765696948ed43868257230479eb913d5fc90e2cf0643f77bf637b53c6da"

DEGENERATE_GOLDEN = "beba5a5ba1dfea7a2385ff5a611a6720e7be405ad2725dfb1296bd12227163bf"


# (file, the four vertices, and --path when the move is a path switch): square
# and path moves on every fixture and the bowtie, a path whose closing edge is
# fresh (pentagonal prism, bowtie), and refusals (no common region, not a
# four-cycle, out of range, a mismatched --d).
SWITCH_MOVES = (
    ("k4", "0 1 2 3"),
    ("k4", "0 2 1 3"),
    ("k4", "0 1 2 3 --path"),
    ("k4", "0 1 2 9"),
    ("prism", "0 1 4 3"),
    ("prism", "3 0 1 4 --path"),
    ("prism", "0 1 2 4"),
    ("cube", "0 1 5 4"),
    ("cube", "3 0 1 2 --path"),
    ("cube", "4 0 1 2 --path"),
    ("cube", "0 1 5 4 --d 6"),
    ("octahedron", "0 1 4 5"),
    ("octahedron", "0 1 2 4 --path"),
    ("pentagonal_prism", "0 1 6 5"),
    ("pentagonal_prism", "0 4 3 2 --path"),
    ("bowtie", "1 0 3 4 --path"),
    ("bowtie", "2 1 0 3 --path"),
    ("bowtie", "1 0 3 4"),
)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _machine_output(argv: list[str]) -> str:
    """The ``--format machine`` output with its path-dependent ``input``
    field dropped, or the exit code and stderr of a refusal."""
    code, out, err = _run([*argv, "--format", "machine"])
    if not out:
        return json.dumps({"exit_code": code, "stderr": err})
    payload = json.loads(out)
    assert payload.pop("exit_code") == code
    payload.pop("input")
    return json.dumps({"exit_code": code, **payload}, sort_keys=True)


def _matches(t) -> str:
    rows = [
        [m.conf_index, list(map(list, m.names)), list(m.region_ids),
         list(m.satisfied), m.branch]
        for m in detect_all(t)
    ]
    return json.dumps(rows)


def digests() -> dict:
    keys = (*COMMANDS, *(f"{c}_text" for c in COMMANDS), "detect_all")
    hashes = {key: hashlib.sha256() for key in keys}
    corpus = build_corpus()
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "target.dtarget")
        for item in corpus:
            Path(path).write_text(serialize_dtarget(item.target))
            for command in COMMANDS:
                line = f"{item.name}\t{_machine_output([command, path])}\n"
                hashes[command].update(line.encode())
                code, out, _ = _run([command, path])
                hashes[f"{command}_text"].update(f"{item.name}\t{code}\t{out}".encode())
            hashes["detect_all"].update(f"{item.name}\t{_matches(item.target)}\n".encode())
    return {"targets": len(corpus), **{key: h.hexdigest() for key, h in hashes.items()}}


def test_reports_match_golden_digests():
    assert digests() == GOLDEN


def test_exhaustive_scan_matches_the_benchmark_digest():
    code, out, _ = _run(["scan", "--limit-per-base", "1000000", "--format", "machine"])
    assert code == 0
    expected = json.loads(BENCH_GOLDEN.read_text())["corpus_scan_sha256"]
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def switch_digests() -> dict:
    """The digests of ``switch``'s machine and text output (with the exit
    code and stderr) over ``SWITCH_MOVES``, one line per move."""
    hashes = {"switch": hashlib.sha256(), "switch_text": hashlib.sha256()}
    for name, move in SWITCH_MOVES:
        path = str((DATA if name == "bowtie" else FIXTURES) / f"{name}.dtarget")
        argv = ["switch", path, *move.split()]
        hashes["switch"].update(f"{name} {move}\t{_machine_output(argv)}\n".encode())
        code, out, err = _run(argv)
        hashes["switch_text"].update(f"{name} {move}\t{code}\t{out}\t{err}\n".encode())
    return {key: h.hexdigest() for key, h in hashes.items()}


def test_switch_reports_match_golden_digests():
    assert switch_digests() == SWITCH_GOLDEN


def detect_all_digests() -> dict:
    """The digest of ``[m.payload() for m in detect_all(t)]``, one line per
    target, over each set of targets."""
    items = unfiltered_corpus()
    sets = {
        "enumerated": [item.target for item in items],
        "walked": walk_targets(),
    }
    out = {}
    for key, targets in sets.items():
        h = hashlib.sha256()
        for t in targets:
            h.update(json.dumps([m.payload() for m in detect_all(t)]).encode() + b"\n")
        out[key] = h.hexdigest()
    return out


def test_detect_all_payloads_match_golden_digests():
    assert detect_all_digests() == DETECT_ALL_GOLDEN


def _charges(t) -> str:
    """Every region row and both trace lists of ``charge_report(t)``, or the
    refusal's type and message."""
    try:
        report = charge_report(t)
    except DTargetError as err:
        return f"{type(err).__name__}: {err}"
    groups = (report.regions, report.beta_traces, report.gamma_traces)
    return json.dumps([[list(vars(row).values()) for row in g] for g in groups], default=str)


def charge_report_digests() -> dict:
    """The digest of ``_charges(t)``, one line per target, over each set of
    targets; the bowtie's outer face visits its cut vertex twice.  The tree
    has bridges, so its refusal is recorded as it reads."""
    items = unfiltered_corpus()
    sets = {
        "enumerated": [item.target for item in items],
        "walked": walk_targets(),
        "bowtie": [parse_dtarget((DATA / "bowtie.dtarget").read_text())],
        **one_shot_targets(),
        "zero_mult": zero_mult_targets(),
    }
    out = {}
    for key, targets in sets.items():
        h = hashlib.sha256()
        for t in targets:
            h.update(_charges(t).encode() + b"\n")
        out[key] = h.hexdigest()
    out["tree"] = _charges(parse_dtarget((DATA / "tree.dtarget").read_text()))
    return out


def test_charge_reports_match_golden_digests():
    assert charge_report_digests() == CHARGE_REPORT_GOLDEN


def _outcome(compute, *args) -> str:
    """compute(*args) as JSON, or the refusal's type and message."""
    try:
        return json.dumps(compute(*args), default=str)
    except DTargetError as err:
        return f"{type(err).__name__}: {err}"


def faces_digest(targets) -> str:
    """The digest of each target's door table, ``detect_all`` payloads,
    ``_charges`` and the beta and gamma traces of every edge, one line per
    target."""
    h = hashlib.sha256()
    for t in targets:
        rows = [
            _outcome(door_table, t),
            _outcome(lambda: [m.payload() for m in detect_all(t)]),
            _charges(t),
            *(_outcome(lambda e: vars(trace(t, e)), e)
              for e in t.graph.edges for trace in (beta_trace, gamma_trace)),
        ]
        h.update("\t".join(rows).encode() + b"\n")
    return h.hexdigest()


def faces_targets() -> list:
    """Targets whose faces are not all simple cycles (and some whose faces
    are, drawn alike): the default spanning subgraphs, the bowtie and the
    tree."""
    return [
        *spanning_subgraph_targets(),
        *(parse_dtarget((DATA / f"{name}.dtarget").read_text()) for name in ("bowtie", "tree")),
    ]


def test_non_simple_faces_match_golden_digest():
    assert faces_digest(faces_targets()) == FACES_GOLDEN


def test_second_spanning_seed_matches_golden_digest():
    # The default set has no door decided by a second flank at a twice-visited
    # end; this one has five, so a door test that reads only the first flank
    # at each end changes the digest.
    assert faces_digest(spanning_subgraph_targets(40, 2)) == FACES_SEED_2_GOLDEN


def degenerate_digest() -> str:
    """The digest of the ``detect_all`` payloads, or the refusal, for every
    multiplicity vector in 1..4 on each graph of ``DEGENERATE_GRAPHS``, one
    line per target."""
    h = hashlib.sha256()
    for name, rotations in DEGENERATE_GRAPHS.items():
        graph = RotationGraph(rotations)
        for vector in product(range(1, 5), repeat=len(graph.edges)):
            t = DTarget(graph, 8, vector)
            row = _outcome(lambda: [m.payload() for m in detect_all(t)])
            h.update(f"{name}\t{list(vector)}\t{row}\n".encode())
    return h.hexdigest()


def test_degenerate_graphs_match_golden_digest():
    assert degenerate_digest() == DEGENERATE_GOLDEN


if __name__ == "__main__":
    golden = {
        "GOLDEN": digests(),
        "SWITCH_GOLDEN": switch_digests(),
        "DETECT_ALL_GOLDEN": detect_all_digests(),
        "CHARGE_REPORT_GOLDEN": charge_report_digests(),
        "FACES_GOLDEN": faces_digest(faces_targets()),
        "FACES_SEED_2_GOLDEN": faces_digest(spanning_subgraph_targets(40, 2)),
        "DEGENERATE_GOLDEN": degenerate_digest(),
    }
    json.dump(golden, sys.stdout, indent=4)
    print()
