"""End-to-end runs of the command-line entry point."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from dtargets import cli
from dtargets.cli import main
from dtargets.corpus import load_fixture
from dtargets.planar import parse_dtarget, serialize_dtarget

from gadgets import prism

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
    t = load_fixture("k4").with_mult(
        {(0, 1): 0, (2, 3): 0, (0, 2): 4, (0, 3): 4, (1, 2): 4, (1, 3): 4}
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
    assert [after.degree_sum(v) for v in range(5)] == [
        before.degree_sum(v) for v in range(5)
    ]


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
    path = write_target(tmp_path, k4.with_mult({**k4.mult, (0, 1): 7}))
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
    # structural bullet and matches no pattern, so is_prime finds no witness.
    cube = load_fixture("cube")
    path = write_target(tmp_path, cube.with_mult(dict.fromkeys(cube.edges, 2)))
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


def test_out_writes_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, payload = run_json(
        capsys,
        ["check", fixture_path("k4"), "--out", str(out_file)],
    )
    assert code == 0
    on_disk = json.loads(out_file.read_text())
    assert on_disk == payload
