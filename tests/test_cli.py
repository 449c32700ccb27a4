"""End-to-end runs of the command-line entry point."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from dtargets import cli, coloring, cuts
from dtargets.cli import main
from dtargets.config import PrimalityVerdict
from dtargets.corpus import FIXTURE_NAMES, build_corpus, load_fixture
from dtargets.errors import IdentityViolation
from dtargets.planar import DTarget, RotationGraph, parse_dtarget, serialize_dtarget

from gadgets import _bench_gen, orbit, prism

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "src" / "dtargets" / "fixtures"
DATA = Path(__file__).resolve().parent / "data"


def fixture_path(name: str) -> str:
    return str(FIXTURE_DIR / f"{name}.dtarget")


def write_target(tmp_path, t, name="case.dtarget") -> str:
    path = tmp_path / name
    path.write_text(serialize_dtarget(t) + "\n")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv + ["--format", "machine"])
    return code, json.loads(out)


def test_check_fixture_passes(capsys):
    code, out, err = run(capsys, ["check", fixture_path("prism")])
    assert code == 0
    assert out.startswith("check:")
    assert err == ""


def test_module_run_matches_main(capsys):
    # ``python -m dtargets.cli`` and ``main`` print the same bytes and exit
    # with the same code, here a nonzero one.
    argv = ["classify", fixture_path("octahedron")]
    code, out, _ = run(capsys, argv)
    assert code == cli.EXIT_NEGATIVE
    done = subprocess.run(
        [sys.executable, "-m", "dtargets.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(FIXTURE_DIR.parents[1])},
    )
    assert (done.returncode, done.stdout, done.stderr) == (code, out, "")


def test_check_machine_payload(capsys):
    code, payload = run_json(capsys, ["check", fixture_path("prism")])
    assert code == 0
    assert payload["command"] == "check"
    assert payload["exit_code"] == 0
    assert payload["input"]["path"].endswith("prism.dtarget")
    assert len(payload["input"]["sha256"]) == 64
    assert payload["details"]["oddly_connected"] is True
    assert payload["details"]["min_odd_cut"]["value"] >= 8


def test_check_fails_odd_cut(tmp_path, capsys):
    path = write_target(tmp_path, prism(3, 2))
    code, payload = run_json(capsys, ["check", path])
    assert code == 1
    assert payload["details"]["oddly_connected"] is False
    assert payload["details"]["min_odd_cut"]["value"] == 6


def test_check_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "garbage.dtarget"
    path.write_text("not a target\n")
    code, out, err = run(capsys, ["check", str(path)])
    assert code == 2
    assert "error" in err


def test_check_missing_file(capsys):
    code, out, err = run(capsys, ["check", "/nonexistent/nowhere.dtarget"])
    assert code == 2


def test_check_d_mismatch(capsys):
    code, out, err = run(capsys, ["check", fixture_path("prism"), "--d", "6"])
    assert code == 2


def test_classify_reports_witness(capsys):
    code, payload = run_json(capsys, ["classify", fixture_path("octahedron")])
    assert code == 1  # an honest negative: the target is not prime
    assert payload["verdict"] == "not prime: Conf(3)"
    assert payload["details"]["prime"] is False
    witness = payload["details"]["witness"]
    assert witness["kind"] == "Conf(3)"
    assert witness["conf"] == 3
    assert set(witness["names"]) == {"u", "v", "w", "x"}


def test_classify_zero_mult_witness(tmp_path, capsys):
    t = DTarget.of(
        load_fixture("k4").graph,
        8,
        {(0, 1): 0, (2, 3): 0, (0, 2): 4, (0, 3): 4, (1, 2): 4, (1, 3): 4},
    )
    path = write_target(tmp_path, t)
    code, payload = run_json(capsys, ["classify", path])
    assert code == 1
    assert payload["details"]["witness"]["kind"] == "ZeroMultEdge"
    assert payload["details"]["witness"]["edge"] == [0, 1]


def test_discharge_totals(capsys):
    code, payload = run_json(capsys, ["discharge", fixture_path("prism")])
    assert code == 0
    totals = payload["details"]["totals"]
    assert totals["alpha"] == 16
    assert totals["beta"] == "0/2"
    assert totals["gamma"] == "0/2"
    assert totals["grand"] == "32/2"
    gamma_rules = {row["rule"] for row in payload["details"]["gamma_traces"]}
    assert gamma_rules == {4}


def test_discharge_text_mentions_grand_total(capsys):
    code, out, err = run(capsys, ["discharge", fixture_path("octahedron")])
    assert code == 0
    assert "grand=16" in out


def test_colour_reports_matchings(capsys):
    code, payload = run_json(capsys, ["colour", fixture_path("k4")])
    assert code == 0
    assert payload["details"]["colourable"] is True
    rows = payload["details"]["matchings"]
    assert sum(row["multiplicity"] for row in rows) == 8
    assert sorted(row["multiplicity"] for row in rows) == [2, 2, 4]


def test_colour_fails_honestly(tmp_path, capsys):
    path = write_target(tmp_path, prism(3, 2))
    code, payload = run_json(capsys, ["colour", path])
    assert code == 1
    assert payload["details"]["colourable"] is False


def ladder_path(tmp_path, n=22) -> str:
    path = tmp_path / f"prism{n}.dtarget"
    path.write_text(_bench_gen().prism_text(n))
    return str(path)


def test_colour_has_no_default_vertex_cap(tmp_path, capsys):
    code, payload = run_json(capsys, ["colour", ladder_path(tmp_path)])
    assert code == 0
    assert payload["details"]["colourable"] is True


def test_colour_refuses_past_the_matching_limit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(coloring, "MATCHING_LIMIT", 8)
    for path in (fixture_path("cube"), ladder_path(tmp_path)):
        code, out, err = run(capsys, ["colour", path])
        assert code == cli.EXIT_INPUT == 2
        assert out == "" and "more than 8 perfect matchings" in err


def test_colour_refuses_the_160_vertex_uniform_antiprism_within_a_second(tmp_path, capsys):
    # Every m = 2: the support has far more than MATCHING_LIMIT matchings,
    # and the table walk must reach its limit fast (ROADMAP item 3's bound).
    gen = _bench_gen()
    path = tmp_path / "antiprism160.dtarget"
    path.write_text(gen.uniform_text(*gen.antiprism(80), 2))
    start = time.perf_counter()
    code, out, err = run(capsys, ["colour", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_INPUT == 2
    assert out == "" and "more than 16384 perfect matchings" in err


def test_classify_decides_the_26_vertex_ladder_that_check_refuses(tmp_path, capsys):
    # classify's strengthened cut check searches the planar dual, with no
    # cap; check's minimum odd cut still walks the odd sets and is refused
    # past 24 vertices.  A not-prime verdict is an honest negative: exit 1.
    path = tmp_path / "prism26.dtarget"
    path.write_text(_bench_gen().prism_text(26))
    code, report = run_json(capsys, ["classify", str(path)])
    assert code == cli.EXIT_NEGATIVE == 1
    assert report["verdict"] == "not prime: Conf(4)"
    assert report["details"]["witness"]["kind"] == "Conf(4)"
    code, out, err = run(capsys, ["check", str(path)])
    assert code == cli.EXIT_INPUT == 2
    assert out == "" and "exceeds the cut enumeration cap 24" in err


def test_colour_answers_an_off_degree_target_before_its_matchings(tmp_path, capsys):
    # A degree sum other than d is an honest negative, answered before the
    # support's matchings are listed: the uniform antiprism above with one
    # multiplicity raised to 3 exits 1, as k4 with m(0, 1) = 7 does, instead
    # of being refused at the matching limit.
    gen = _bench_gen()
    rot, edges = gen.antiprism(80)
    antiprism = tmp_path / "antiprism160.dtarget"
    antiprism.write_text(gen.to_text(rot, {**dict.fromkeys(edges, 2), edges[0]: 3}))
    k4 = load_fixture("k4")
    seven = DTarget.of(k4.graph, k4.d, {**dict(k4.mult_items), (0, 1): 7})
    k4_path = write_target(tmp_path, seven)
    for path in (str(antiprism), k4_path):
        start = time.perf_counter()
        code, out, err = run(capsys, ["colour", path])
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (cli.EXIT_NEGATIVE, "")
        assert out.splitlines() == [
            "colour: not colourable",
            "no decomposition into 8 perfect matchings exists",
        ]


def test_switch_square_roundtrips(capsys):
    code, payload = run_json(
        capsys, ["switch", fixture_path("octahedron"), "0", "1", "4", "5"]
    )
    assert code == 0
    assert payload["details"]["operation"] == "square"
    assert payload["details"]["smaller"] is True
    switched = parse_dtarget(payload["details"]["result"])
    assert switched.m(0, 1) == 1
    assert switched.m(1, 4) == 3
    assert switched.m(4, 5) == 1
    assert switched.m(0, 5) == 3


def test_switch_rejects_non_cycle(capsys):
    code, out, err = run(
        capsys, ["switch", fixture_path("prism"), "0", "1", "2", "4"]
    )
    assert code == 2
    assert "error" in err


def test_switch_path_flag(capsys):
    code, payload = run_json(
        capsys, ["switch", fixture_path("prism"), "3", "0", "1", "4", "--path"]
    )
    assert code == 0
    assert payload["details"]["operation"] == "path"
    switched = parse_dtarget(payload["details"]["result"])
    assert switched.m(0, 3) == 3
    assert switched.m(0, 1) == 3
    assert switched.m(1, 4) == 3
    assert switched.m(3, 4) == 3


def test_check_rejects_disconnected_input(capsys):
    code, payload = run_json(capsys, ["check", str(DATA / "two_k4.dtarget")])
    assert code == 1
    assert payload["verdict"] == "violations found"
    assert payload["details"]["euler_ok"] is False
    assert payload["details"]["connectivity_level"] == 0
    code, out, _ = run(capsys, ["check", str(DATA / "two_k4.dtarget")])
    assert code == 1
    assert "planarity (Euler): VIOLATED" in out


def test_switch_path_through_repeated_boundary_vertex(capsys):
    # Every region at a cut vertex visits it more than once; the path switch
    # still has a corner to put its closing edge in.
    path = DATA / "bowtie.dtarget"
    code, out, err = run(capsys, ["switch", str(path), "1", "0", "3", "4", "--path"])
    assert code == 0
    assert "Traceback" not in out + err
    code, payload = run_json(
        capsys, ["switch", str(path), "1", "0", "3", "4", "--path"]
    )
    assert code == 0
    before = parse_dtarget(path.read_text())
    after = parse_dtarget(payload["details"]["result"])
    graph = after.graph
    assert graph.vertex_count - len(graph.edges) + len(graph.faces) == 2
    assert after.degree_sums == before.degree_sums


@pytest.mark.parametrize("name", ["tree", "two_k4"])
def test_switch_rejects_a_non_target(capsys, name):
    # tree.dtarget breaks every degree sum; two_k4.dtarget fails Euler.
    code, out, err = run(
        capsys, ["switch", str(DATA / f"{name}.dtarget"), "1", "0", "2", "3", "--path"]
    )
    assert code == 2
    assert out == ""
    assert "not a d-target" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "classify", "discharge", "colour", "switch"])
def test_off_degree_input_is_never_an_internal_fault(tmp_path, capsys, command):
    # k4 with m(01) = 7: the degree sums are 11, 11, 8, 8.
    k4 = load_fixture("k4")
    path = write_target(tmp_path, DTarget.of(k4.graph, k4.d, {**dict(k4.mult_items), (0, 1): 7}))
    cycle = ["0", "1", "2", "3"] if command == "switch" else []
    code, out, err = run(capsys, [command, path, *cycle])
    assert code in (1, 2)
    assert "Traceback" not in err
    if command in ("classify", "discharge", "switch"):
        assert code == 2
        assert out == ""
        assert "not a d-target" in err


def test_classify_refuses_a_non_target_that_looks_prime(tmp_path, capsys):
    # The cube with every multiplicity 2 has degree sums 6; it passes every
    # structural bullet and matches no pattern, so only the target check,
    # which makes is_prime raise DTargetError, keeps it from a prime verdict.
    cube = load_fixture("cube")
    twos = DTarget.of(cube.graph, cube.d, dict.fromkeys(cube.graph.edges, 2))
    path = write_target(tmp_path, twos)
    code, out, err = run(capsys, ["classify", path])
    assert code == 2
    assert "not a d-target" in err


def test_internal_fault_exits_4(capsys, monkeypatch):
    def broken(t):
        raise ValueError("simulated fault")

    monkeypatch.setattr(cli, "charge_report", broken)
    code, out, err = run(capsys, ["discharge", fixture_path("prism")])
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert "internal error" in err and "simulated fault" in err


# Exit 3 is a violation of the paper's claims: each case below stubs the
# layer that would have to be wrong for the command to report one.


def test_colour_exits_3_when_its_colouring_fails_verification(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_colouring", lambda t, c: False)
    code, out, err = run(capsys, ["colour", fixture_path("prism")])
    assert code == cli.EXIT_VIOLATION == 3
    assert out == ""
    assert "violation: produced colouring failed verification" in err


def test_scan_exits_3_and_lists_the_targets_it_could_not_colour(capsys, monkeypatch):
    # The safety net for a wrong None from the colouring search.
    monkeypatch.setattr(cli, "edge_colour", lambda t: None)
    code, payload = run_json(capsys, ["scan", "--bases", "k4", "--limit-per-base", "5"])
    names = [item.name for item in build_corpus(bases=("k4",), limit_per_base=5)]
    assert code == payload["exit_code"] == cli.EXIT_VIOLATION
    assert names and payload["details"]["uncolourable"] == names
    assert payload["details"]["prime"] == []


def _a_k4_orbit():
    """The k4 scan items k4/0002 and k4/0003, one automorphism orbit: the
    scan judges the first and carries its verdicts to the second."""
    items = build_corpus(bases=("k4",), limit_per_base=5)
    first = items[3]
    members = [i.name for i in items if i.target.mult_vector in orbit(first.target)]
    assert members == ["k4/0002", "k4/0003"]
    return first, members


def test_scan_exits_3_and_names_a_target_read_as_prime(capsys, monkeypatch):
    # The safety net for a wrong prime verdict: one k4 orbit reads prime.
    # The scan judges the orbit's first target alone and names every member.
    prime, members = _a_k4_orbit()
    is_prime = cli.is_prime
    monkeypatch.setattr(
        cli,
        "is_prime",
        lambda t: PrimalityVerdict(True, None)
        if t.mult_vector == prime.target.mult_vector
        else is_prime(t),
    )
    argv = ["scan", "--bases", "k4", "--limit-per-base", "5"]
    code, out, _ = run(capsys, argv)
    assert code == cli.EXIT_VIOLATION == 3
    assert [f"  PRIME: {name}" for name in members] == [
        line for line in out.splitlines() if line.startswith("  PRIME:")
    ]
    code, payload = run_json(capsys, argv)
    assert code == payload["exit_code"] == cli.EXIT_VIOLATION
    assert payload["details"]["prime"] == members
    assert payload["details"]["uncolourable"] == []


def test_scan_exits_3_and_names_the_orbit_of_a_target_it_could_not_colour(capsys, monkeypatch):
    # The colouring search fails on one k4 orbit's first target alone: every
    # member of that orbit is listed, and no other target.
    uncoloured, members = _a_k4_orbit()
    edge_colour = cli.edge_colour
    monkeypatch.setattr(
        cli,
        "edge_colour",
        lambda t: None if t.mult_vector == uncoloured.target.mult_vector else edge_colour(t),
    )
    argv = ["scan", "--bases", "k4", "--limit-per-base", "5"]
    code, out, _ = run(capsys, argv)
    assert code == cli.EXIT_VIOLATION == 3
    assert [f"  UNCOLOURABLE: {name}" for name in members] == [
        line for line in out.splitlines() if line.startswith("  UNCOLOURABLE:")
    ]
    code, payload = run_json(capsys, argv)
    assert code == payload["exit_code"] == cli.EXIT_VIOLATION
    assert payload["details"]["uncolourable"] == members
    assert payload["details"]["prime"] == []


def test_the_exhaustive_scan_judges_each_orbit_once_and_verifies_every_colouring(
    capsys, monkeypatch
):
    calls = Counter()
    for name in ("is_prime", "edge_colour", "verify_colouring"):
        def counted(*args, _call=getattr(cli, name), _name=name):
            calls[_name] += 1
            return _call(*args)

        monkeypatch.setattr(cli, name, counted)
    code, payload = run_json(capsys, ["scan", "--limit-per-base", "1000000"])
    assert code == 0 and payload["details"]["items"] == 2_527
    assert calls == {"is_prime": 248, "edge_colour": 248, "verify_colouring": 2_527}


def test_classify_exits_3_on_a_prime_verdict(capsys, monkeypatch):
    monkeypatch.setattr(cli, "is_prime", lambda t: PrimalityVerdict(True, None))
    code, payload = run_json(capsys, ["classify", fixture_path("prism")])
    assert code == payload["exit_code"] == cli.EXIT_VIOLATION
    assert payload["verdict"].startswith("PRIME")
    assert payload["details"] == {"prime": True, "witness": None}


def test_discharge_exits_3_on_an_identity_violation(capsys, monkeypatch):
    def violated(t):
        raise IdentityViolation("simulated total 15")

    monkeypatch.setattr(cli, "charge_report", violated)
    code, out, err = run(capsys, ["discharge", fixture_path("prism")])
    assert code == cli.EXIT_VIOLATION
    assert out == ""
    assert "violation: simulated total 15" in err


def test_discharge_exits_3_on_a_charge_that_is_not_half_integral(capsys, monkeypatch):
    # Every rule moves 0, 1/2 or 1, so a third in a region's beta is a fault.
    charge_report = cli.charge_report

    def thirds(t):
        report = charge_report(t)
        first = dataclasses.replace(report.regions[0], beta=Fraction(1, 3))
        return dataclasses.replace(report, regions=(first, *report.regions[1:]))

    monkeypatch.setattr(cli, "charge_report", thirds)
    code, out, err = run(capsys, ["discharge", fixture_path("prism")])
    assert code == cli.EXIT_VIOLATION
    assert out == ""
    assert "violation: charge 1/3 is not half-integral" in err


def test_scan_whole_corpus(capsys):
    code, payload = run_json(capsys, ["scan"])
    assert code == 0
    assert payload["details"]["items"] == 213
    assert payload["details"]["prime"] == []
    assert payload["details"]["uncolourable"] == []


def test_scan_restricted_base(capsys):
    code, payload = run_json(
        capsys, ["scan", "--bases", "k4", "--limit-per-base", "5"]
    )
    assert code == 0
    assert payload["details"]["items"] <= 5
    assert payload["details"]["prime"] == []


def test_scan_reports_a_cut_cap_refusal(capsys, monkeypatch):
    # The cube's 8 vertices exceed a cut cap of 6: the scan stops with the
    # refusal instead of reading it as "not oddly connected".
    monkeypatch.setattr(cuts, "CUT_CAP", 6)
    code, out, err = run(capsys, ["scan", "--bases", "cube,prism"])
    assert code == cli.EXIT_INPUT == 2
    assert out == ""
    assert "exceeds the cut enumeration cap 6" in err


def test_check_reports_a_cut_cap_refusal(capsys, monkeypatch):
    # A refused cut walk is unusable input, not the negative verdict that an
    # odd vertex count (V itself an odd set with cut 0) gives.
    monkeypatch.setattr(cuts, "CUT_CAP", 4)
    code, out, err = run(capsys, ["check", fixture_path("prism")])
    assert code == cli.EXIT_INPUT == 2
    assert out == ""
    assert "exceeds the cut enumeration cap 4" in err


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_scan_refuses_a_limit_below_one(capsys, limit):
    code, out, err = run(capsys, ["scan", "--limit-per-base", limit])
    assert code == cli.EXIT_INPUT == 2
    assert out == ""
    assert f"--limit-per-base {limit} is below 1" in err


def test_out_writes_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, payload = run_json(
        capsys,
        ["check", fixture_path("k4"), "--out", str(out_file)],
    )
    assert code == 0
    on_disk = json.loads(out_file.read_text())
    assert on_disk == payload


def test_out_into_a_missing_directory_is_an_input_error(tmp_path, capsys):
    out_file = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, ["check", fixture_path("k4"), "--out", str(out_file)])
    assert code == cli.EXIT_INPUT == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out_file.exists()


def test_check_reads_an_odd_vertex_count_as_a_negative(tmp_path, capsys):
    triangle = RotationGraph(((1, 2), (2, 0), (0, 1)))
    t = DTarget.of(triangle, 2, {(0, 1): 1, (1, 2): 1, (0, 2): 1})
    code, payload = run_json(capsys, ["check", write_target(tmp_path, t)])
    assert code == cli.EXIT_NEGATIVE == 1
    assert payload["details"]["min_odd_cut"] is None
    assert payload["details"]["oddly_connected"] is False


def test_colour_reads_an_odd_vertex_count_as_not_colourable(tmp_path, capsys):
    # V itself is an odd set with cut 0, so no colouring exists: an honest
    # negative, as in check, not unusable input.
    triangle = RotationGraph(((1, 2), (2, 0), (0, 1)))
    t = DTarget.of(triangle, 2, {(0, 1): 1, (1, 2): 1, (0, 2): 1})
    for path, n in ((str(DATA / "bowtie.dtarget"), 5), (write_target(tmp_path, t), 3)):
        code, payload = run_json(capsys, ["colour", path])
        assert code == cli.EXIT_NEGATIVE == 1
        assert payload["verdict"] == "not colourable"
        assert payload["details"] == {"colourable": False}
        code, out, err = run(capsys, ["colour", path])
        assert code == 1 and err == ""
        assert out.splitlines() == [
            "colour: not colourable",
            f"|V| = {n} is odd; no perfect matchings exist",
        ]


# (check, classify, discharge, colour) exit codes on each file.
EXIT_CODES = {
    **dict.fromkeys(FIXTURE_NAMES, (0, 1, 0, 0)),
    "bowtie": (1, 1, 0, 1),
    "petersen": (1, 2, 2, 1),
    "petersen_8": (1, 2, 2, 1),
    "tree": (1, 2, 2, 1),
    "two_k4": (1, 2, 2, 0),
}


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_exit_codes_of_the_fixtures_and_data_files(capsys, name):
    path = fixture_path(name) if name in FIXTURE_NAMES else str(DATA / f"{name}.dtarget")
    codes = []
    for command in ("check", "classify", "discharge", "colour"):
        code, _, err = run(capsys, [command, path])
        assert "Traceback" not in err, (command, err)
        codes.append(code)
    assert tuple(codes) == EXIT_CODES[name]


@pytest.mark.parametrize(
    "bases, message",
    [("k4,k4", "a base is named twice in k4,k4"), ("", "unknown fixture ''")],
)
def test_scan_refuses_a_repeated_or_empty_base(capsys, bases, message):
    code, out, err = run(capsys, ["scan", "--bases", bases, "--limit-per-base", "2"])
    assert code == cli.EXIT_INPUT == 2
    assert out == ""
    assert message in err


def test_scan_refuses_a_d_other_than_8(capsys):
    # The corpus holds d = 8 targets only, so --d 9 cannot be honoured.
    argv = ["scan", "--bases", "k4", "--limit-per-base", "2"]
    code, out, err = run(capsys, [*argv, "--d", "9"])
    assert code == cli.EXIT_INPUT == 2
    assert out == ""
    assert "the corpus has d = 8, expected d = 9" in err
    code, out, err = run(capsys, [*argv, "--d", "8"])
    assert code == cli.EXIT_OK == 0
    assert out.startswith("scan: scanned 2 targets")
