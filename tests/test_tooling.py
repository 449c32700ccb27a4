"""The benchmark's own self-tests, the names it wraps, and the independence
of the brute-force oracles."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_every_traced_name_is_a_callable_of_its_layer():
    for layer, names in _bench_module("spans").WRAPPED.items():
        module = importlib.import_module(f"dtargets.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"dtargets.{layer}.{name}"


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert not [m for m in imported if m.split(".")[0] in ("dtargets", "")], imported


def test_no_module_reaches_into_an_instance_dict():
    # Per-target state lives in the fields a class declares (DTarget.facts),
    # never in another module's writes to an instance __dict__.
    offenders = [
        path.name
        for path in sorted((ROOT / "src" / "dtargets").glob("*.py"))
        if "__dict__" in path.read_text()
    ]
    assert offenders == []


def test_no_module_keeps_a_process_wide_cache():
    # A module-level cache keyed on a graph's value grows with every distinct
    # graph a scan meets; graph facts live in RotationGraph.facts instead.
    pattern = re.compile(r"lru_cache|functools\.cache\b|from functools import .*\bcache\b")
    offenders = [
        path.name
        for path in sorted((ROOT / "src" / "dtargets").glob("*.py"))
        if pattern.search(path.read_text())
    ]
    assert offenders == []


def test_only_planar_touches_the_facts_stores():
    # Every cached fact goes through planar.fact, so the way facts are keyed
    # and stored is known in one module.
    offenders = [
        path.name
        for path in sorted((ROOT / "src" / "dtargets").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "facts"
    ]
    assert set(offenders) <= {"planar.py"}, offenders


def test_only_cli_main_reads_the_input_file():
    # main reads, hashes and parses the input once and hands the target to
    # the command, so no command re-reads it or carries its path or digest.
    import dataclasses

    from dtargets import cli

    readers = {"open", "read_bytes", "read_text", "sha256", "parse_dtarget"}

    def calls(node):
        return Counter(
            name
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            for name in [getattr(call.func, "attr", getattr(call.func, "id", None))]
            if name in readers
        )

    tree = ast.parse((ROOT / "src" / "dtargets" / "cli.py").read_text())
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    assert calls(main) == Counter(read_bytes=1, sha256=1, parse_dtarget=1)
    assert calls(tree) == calls(main)
    assert [f.name for f in dataclasses.fields(cli.Report)] == [
        "verdict", "exit_code", "details", "text_lines",
    ]


def test_discharge_reads_multiplicities_only_through_the_vector():
    # The rules read mult_vector against the graph's charge program; the
    # per-edge route (a multiplicity by edge, m+ by edge, boundary scans)
    # stays out of discharge.
    source = (ROOT / "src" / "dtargets" / "discharge.py").read_text()
    assert "mult_vector" in source
    routes = re.findall(r"\.mult\[|\b(?:m_edge|m_plus|boundary_edges_at)\(", source)
    assert routes == []


def test_colouring_search_reads_multiplicities_only_through_the_vector():
    # edge_colour packs mult_vector into lanes and checks degree_sums; the
    # tables are built from the graph and a support's zero set alone.
    from dtargets import coloring

    search = "".join(
        inspect.getsource(fn)
        for fn in (
            coloring.edge_colour,
            coloring._width,
            coloring._support_tables,
            coloring._build_tables,
        )
    )
    assert "mult_vector" in search and "degree_sums" in search
    assert re.findall(r"\.mult\[|\.mult_items|\bnorm_edge\b", search) == []


def test_placement_generators_take_the_graph_only():
    # Placements are facts of the embedding, kept per graph; a generator that
    # took the target could read multiplicities into them.
    from dtargets import config

    for k, pattern in config._PATTERNS.items():
        params = list(inspect.signature(pattern.placements).parameters)
        assert params == ["graph"], (k, params)


def test_each_pattern_states_its_structure_in_its_generator_alone():
    # A pattern is its labels, its placement generator, its compile step, its
    # door flag and its symmetries: the generator alone states the pattern's
    # structure, and the table row alone its symmetries, which compiling
    # folds; no generator filters orbits.
    from dtargets import config

    assert config._Pattern._fields == ("labels", "placements", "compile", "doors", "symmetries")
    assert config._Pattern._field_defaults == {}
    assert not hasattr(config, "_region_cycle")
    assert [name for name in vars(config) if name.endswith("_shape")] == []
    for name in ("_triangle_edges", "_triangle_corners", "_triangle_pair_orbits", "_square_orbits"):
        assert not hasattr(config, name), name
    assert len({pattern.placements for pattern in config._PATTERNS.values()}) == 8
    tree = ast.parse((ROOT / "src" / "dtargets" / "config.py").read_text())
    imported = {
        alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "itertools" not in imported
    # Only the compile step reads a pattern's symmetries: the orbit test is
    # made there alone.
    readers = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for inner in ast.walk(node)
        if isinstance(inner, ast.Attribute) and inner.attr == "symmetries"
    }
    assert readers == {"_compile_placements"}


def test_primality_witnesses_are_the_four_the_checks_can_give():
    # The strengthened cut also decides 3-connectivity and m(e) <= 6, so
    # is_prime has no witness of its own for either and reads no
    # connectivity level.
    from dtargets import config

    witnesses = {
        name
        for name, obj in vars(config).items()
        if isinstance(obj, type) and obj.__module__ == config.__name__ and hasattr(obj, "payload")
    }
    assert witnesses == {"ConfigMatch", "ZeroMultEdge", "TooFewVertices", "CutViolation"}
    assert all(hasattr(config.__dict__[name], "text") for name in witnesses)
    imported = [
        alias.name
        for node in ast.walk(ast.parse((ROOT / "src" / "dtargets" / "config.py").read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert "connectivity_level" not in imported and "connectivity_level" not in vars(config)


def test_compile_steps_format_facts_only_inside_renderers():
    # A judge runs on every target of a switch walk, so each fact's f-string
    # lies inside the lambda its judge returns and is formatted only when read.
    tree = ast.parse((ROOT / "src" / "dtargets" / "config.py").read_text())
    steps = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_compile")
    ]
    names = {step.name for step in steps}
    assert {f"_compile_conf{k}" for k in range(1, 20)} <= names
    for step in steps:
        deferred = {
            id(node)
            for renderer in ast.walk(step)
            if isinstance(renderer, ast.Lambda)
            for node in ast.walk(renderer)
        }
        eager = [
            node.lineno
            for node in ast.walk(step)
            if isinstance(node, ast.JoinedStr) and id(node) not in deferred
        ]
        assert eager == [], f"{step.name} formats at line(s) {eager}"


def test_recheck_reads_the_compiled_judges(monkeypatch):
    # recheck finds a match among the judges detect compiled for its graph,
    # so rechecking compiles no placement a second time.
    from dtargets import config
    from dtargets.corpus import FIXTURE_NAMES, load_fixture
    from dtargets.planar import parse_dtarget

    targets = [load_fixture(name) for name in FIXTURE_NAMES]
    targets.append(parse_dtarget(_bench_module("gen").prism_text(12)))
    matches = [(t, match) for t in targets for match in config.detect_all(t)]
    assert matches
    calls = []
    for k, pattern in list(config._PATTERNS.items()):
        def counted(*args, compile_=pattern.compile):
            calls.append(args)
            return compile_(*args)

        monkeypatch.setitem(config._PATTERNS, k, pattern._replace(compile=counted))
    assert all(config.recheck(t, match) for t, match in matches)
    assert calls == []


def test_every_public_function_has_a_caller_or_is_an_entry_point():
    # A public module-level function is referenced, as a name or an
    # attribute, somewhere in src/ or bench/, or wrapped by name by bench's
    # tracer; the rest are the entry points the README lists for checking a
    # witness or a rule by hand.  A wrapper only tests call fails here.
    entry_points = {
        ("cuts", "m_delta"),
        ("config", "doors"),
        ("config", "is_big"),
        ("config", "m_plus"),
        ("discharge", "alpha"),
        ("discharge", "beta_trace"),
        ("discharge", "gamma_trace"),
    }
    sources = sorted((ROOT / "src" / "dtargets").glob("*.py"))
    referenced = {
        getattr(node, "id", getattr(node, "attr", None))
        for path in sources + sorted((ROOT / "bench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    referenced |= {name for names in _bench_module("spans").WRAPPED.values() for name in names}
    public = {
        (path.stem, node.name)
        for path in sources
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert entry_points <= public
    assert {(module, name) for module, name in public if name not in referenced} <= entry_points


def test_the_package_exposes_its_modules_only():
    # The modules are the API: __init__ binds the library modules and the
    # version, and importing the package leaves the command line unloaded.
    modules = ["coloring", "config", "corpus", "cuts", "discharge", "errors", "planar", "switching"]
    tree = ast.parse((ROOT / "src" / "dtargets" / "__init__.py").read_text())
    assert ast.get_docstring(tree)
    bound = []
    for node in tree.body[1:]:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            bound += [alias.asname or alias.name for alias in node.names]
        else:
            stores = [n for n in ast.walk(node) if isinstance(getattr(n, "ctx", None), ast.Store)]
            bound += [getattr(n, "id", ast.dump(n)) for n in stores] or [ast.dump(node)]
    assert sorted(bound) == sorted(modules + ["__version__"])
    probe = (
        "import sys, dtargets; "
        f"print(all(getattr(dtargets, m) is sys.modules['dtargets.' + m] for m in {modules}), "
        "'dtargets.cli' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.stdout.split() == ["True", "False"], done.stdout + done.stderr


def test_size_refusals_are_constants_not_knobs():
    # Each exhaustive layer refuses past one module constant; a new option
    # that would override it has to change this test.
    import argparse

    from dtargets import cli, coloring, config, corpus, cuts
    from dtargets.corpus import load_fixture

    assert (cuts.CUT_CAP, corpus.ENUM_CAP) == (24, 16)
    capped = []
    for module in (cuts, config, corpus, coloring):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__ and not name.startswith("_"):
                params = set(inspect.signature(fn).parameters)
                if params & {"cap", "cap_edges"}:
                    capped.append((module.__name__, name))
    # bench passes edge_colour a cap; it is the one public function with one.
    assert capped == [("dtargets.coloring", "edge_colour")]
    assert inspect.signature(coloring.edge_colour).parameters["cap"].default is None
    # bench/spans.py wraps coloring.perfect_matchings by name.
    assert list(inspect.signature(coloring.perfect_matchings).parameters) == ["t"]
    assert len(coloring.perfect_matchings(load_fixture("cube"))) == 9
    assert list(inspect.signature(corpus.build_corpus).parameters) == [
        "bases", "limit_per_base",
    ]
    assert not hasattr(corpus, "CorpusSpec")
    common = {"--format", "--d", "--out"}
    expected = {
        "check": common,
        "classify": common,
        "discharge": common,
        "colour": common,
        "switch": common | {"--path"},
        "scan": common | {"--limit-per-base", "--bases"},
    }
    subs = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        command: {
            option
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings
        }
        for command, sub in subs.choices.items()
    }
    assert options == expected


def test_a_target_stores_only_its_multiplicity_vector():
    # The graph owns the edge list; a target keeps m(e) in graph.edges order,
    # and every other form of its multiplicities is derived from that.
    import dataclasses

    from dtargets.planar import DTarget, RotationGraph

    assert [f.name for f in dataclasses.fields(DTarget)] == [
        "graph", "d", "mult_vector", "facts",
    ]
    assert not hasattr(DTarget, "mult") and not hasattr(DTarget, "edges")
    assert not hasattr(RotationGraph, "edge_set")
    # DTarget.of is the one constructor from a mapping and DTarget.m the one
    # accessor by edge; face tracing keeps its rotation positions local.
    assert not hasattr(DTarget, "with_mult") and not hasattr(DTarget, "m_edge")
    assert not hasattr(RotationGraph, "_position")
    # The (edge, m) pairs are a view: reading them stores nothing.
    from dtargets.corpus import load_fixture

    t = load_fixture("prism")
    assert t.mult_items == tuple(zip(t.graph.edges, t.mult_vector))
    assert "mult_items" not in vars(t)


def test_long_region_conditions_read_one_record_form():
    # Conf 15-19 read r's other edges as rim records (f, s, g, h) built from
    # the charge program; no per-edge heavy record or disc-relative light
    # record remains, and each Conf 14-19 compile step takes the graph and
    # the placement alone.
    from dtargets import config
    from dtargets.planar import parse_dtarget

    assert not hasattr(config, "_heavy_record") and not hasattr(config, "_light_record")
    graph = parse_dtarget(_bench_module("gen").prism_text(6)).graph
    for k in range(14, 20):
        pattern = config._PATTERNS[k]
        placement = config._placements(graph, pattern)[0]
        params = list(inspect.signature(pattern.compile).parameters.values())
        assert len(params) == 1 + len(placement), k
        assert params[0].name == "graph", k
        assert [p.name for p in params[-len(pattern.labels):]] == list(pattern.labels), k
        assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}, k
        assert all(p.default is inspect.Parameter.empty for p in params), k
