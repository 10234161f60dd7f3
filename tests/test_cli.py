"""Command-line interface: exit codes, first-line verdicts, file outputs."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import proxigraph
from proxigraph import FiniteSemimetricSpace, build_graph, build_space, path_proximinal, proximinal
from proxigraph.cli import main
from proxigraph.fileio import (
    graph_to_obj,
    load_graph,
    load_partition,
    load_space,
    partition_to_obj,
    save_json,
    space_to_obj,
)
from proxigraph.instances import (
    MAX_ENUMERATION_VERTICES,
    TruncationParams,
    example_3_1,
    example_3_2,
    example_3_7,
    example_3_12_truncation,
)
from proxigraph.path_proximinal import build_threshold_graph, verify_path_proximinal


@pytest.fixture
def bundle(tmp_path):
    """Write the worked-example files once per test."""
    paths = {}

    def write(name, obj):
        path = tmp_path / f"{name}.json"
        save_json(path, obj)
        paths[name] = str(path)
        return paths[name]

    graph31, parts31 = example_3_1()
    write("g31", graph_to_obj(graph31))
    write("p31", partition_to_obj(parts31))
    space32, parts32 = example_3_2()
    write("s32", space_to_obj(space32))
    write("g32", graph_to_obj(build_threshold_graph(space32, parts32)))
    graph37, parts37 = example_3_7()
    write("g37", graph_to_obj(graph37))
    write("p37", partition_to_obj(parts37))
    paths["dir"] = str(tmp_path)
    return paths


def first_line(capsys):
    out = capsys.readouterr().out
    return out.splitlines()[0] if out else "", out


def test_classify_metric(bundle, capsys):
    assert main(["classify", bundle["s32"]]) == 0
    line, _ = first_line(capsys)
    assert line == "Metric"


def test_classify_ultrametric(tmp_path, capsys):
    path = tmp_path / "eq.json"
    save_json(path, space_to_obj(build_space(["a", "b", "c"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])))
    assert main(["classify", str(path)]) == 0
    line, _ = first_line(capsys)
    assert line == "Ultrametric"


def test_classify_malformed_space_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    save_json(path, {"points": ["a", "b"], "distances": [[0, 1], [2, 0]]})
    assert main(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "asymmetric" in err and "(a, b)" in err


def test_classify_rejects_exponent_entry_exits_2(tmp_path, capsys):
    path = tmp_path / "exp.json"
    save_json(path, {"points": ["a", "b"], "distances": [[0, "1e3"], ["1e3", 0]]})
    assert main(["classify", str(path)]) == 2
    assert "malformed rational '1e3'" in capsys.readouterr().err


def test_check_path_bipartite_true(bundle, capsys):
    assert main(["check", "path-bipartite", bundle["g31"], bundle["p31"]]) == 0
    line, _ = first_line(capsys)
    assert line == "true"


def test_check_path_complete_false_with_reason(bundle, capsys):
    assert main(["check", "path-complete", bundle["g37"], bundle["p37"]]) == 1
    line, out = first_line(capsys)
    assert line == "false"
    assert "('a1', 'b2')" in out


def test_check_path_proximinal_true(bundle, capsys):
    assert main(["check", "path-proximinal", bundle["g32"], bundle["p31"], bundle["s32"]]) == 0
    line, _ = first_line(capsys)
    assert line == "true"


def test_check_proximinal_requires_space(bundle, capsys):
    assert main(["check", "proximinal", bundle["g31"], bundle["p31"]]) == 2
    assert "requires a space file" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["proximinal", "path-proximinal"])
def test_check_names_the_uncovered_vertex(kind, tmp_path, capsys):
    # edge a-b plus an isolated c; the parts leave c out
    files = {
        "g": graph_to_obj(build_graph(["a", "b", "c"], [["a", "b"]])),
        "p": {"A": ["a"], "B": ["b"]},
        "s": space_to_obj(build_space(["a", "b", "c"], [[0, 1, 2], [1, 0, 2], [2, 2, 0]])),
    }
    for name, obj in files.items():
        save_json(tmp_path / f"{name}.json", obj)
    assert main(["check", kind, *(str(tmp_path / f"{name}.json") for name in files)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "false", "reason: A and B do not cover the vertex set; uncovered: ['c']"
    ]


@pytest.mark.parametrize("kind", ["proximinal", "path-proximinal", "path-bipartite"])
def test_check_partition_with_an_unknown_vertex_exits_2(kind, tmp_path, capsys):
    files = {
        "g": graph_to_obj(build_graph(["a", "b"], [["a", "b"]])),
        "p": {"A": ["a"], "B": ["b", "zz"]},
        "s": space_to_obj(build_space(["a", "b"], [[0, 1], [1, 0]])),
    }
    for name, obj in files.items():
        save_json(tmp_path / f"{name}.json", obj)
    assert main(["check", kind, *(str(tmp_path / f"{name}.json") for name in files)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: partition mentions unknown vertices: ['zz']\n"


def test_check_vertex_mismatch_exits_2(bundle, tmp_path, capsys):
    other = tmp_path / "k2.json"
    save_json(other, graph_to_obj(build_graph(["a", "b"], [["a", "b"]])))
    assert main(["check", "path-proximinal", str(other), bundle["p31"], bundle["s32"]]) == 2
    assert "mismatch" in capsys.readouterr().err


def test_bpath_pair_list(bundle, capsys):
    assert main(["bpath", bundle["g37"], bundle["p37"]]) == 0
    line, _ = first_line(capsys)
    assert json.loads(line) == [["a1", "b1"], ["a2", "b1"], ["a2", "b2"]]


def test_bpath_witness_found(bundle, capsys):
    assert main(["bpath", bundle["g31"], bundle["p31"], "--witness", "x4", "x15"]) == 0
    line, out = first_line(capsys)
    path = json.loads(line)
    assert path[0] == "x4" and path[-1] == "x15"
    assert "crossing-edge" in out


def test_bpath_witness_excluded_pair_exits_1(bundle, capsys):
    assert main(["bpath", bundle["g37"], bundle["p37"], "--witness", "a1", "b2"]) == 1
    line, out = first_line(capsys)
    assert line == "false"
    assert "not joined" in out


def test_bpath_witness_wrong_side_exits_2(bundle, capsys):
    assert main(["bpath", bundle["g37"], bundle["p37"], "--witness", "b1", "b2"]) == 2
    assert "in A" in capsys.readouterr().err


def test_bpath_quotient_dot(bundle, capsys):
    assert main(["bpath", bundle["g37"], bundle["p37"], "--quotient"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph Q {")
    assert out.count("--") == 3


def test_witness_metric_writes_and_verifies(bundle, tmp_path, capsys):
    prefix = tmp_path / "w"
    assert main(["witness", "metric", bundle["g37"], bundle["p37"], "-o", str(prefix)]) == 0
    line, out = first_line(capsys)
    assert line == "true"
    space = load_space(f"{prefix}.space.json")
    graph, parts = example_3_7()
    assert verify_path_proximinal(graph, parts, space)


def test_witness_metric_non_path_bipartite_exits_1(tmp_path, capsys):
    graph = build_graph(["a", "b", "c"], [["a", "b"]])
    gpath, ppath = tmp_path / "g.json", tmp_path / "p.json"
    save_json(gpath, graph_to_obj(graph))
    save_json(ppath, {"A": ["a"], "B": ["b", "c"]})
    assert main(["witness", "metric", str(gpath), str(ppath)]) == 1
    line, out = first_line(capsys)
    assert line == "false"
    assert "not-path-bipartite" in out


def test_witness_ultrametric_writes_partition(tmp_path, capsys):
    graph = build_graph(["a", "b", "c", "d"], [["a", "b"], ["c", "d"]])
    gpath = tmp_path / "m.json"
    save_json(gpath, graph_to_obj(graph))
    prefix = tmp_path / "u"
    assert main(["witness", "ultrametric", str(gpath), "-o", str(prefix)]) == 0
    parts = load_partition(f"{prefix}.partition.json")
    space = load_space(f"{prefix}.space.json")
    assert parts.a == {"a", "c"}
    assert space.d("a", "b") == 1


def test_witness_ultrametric_rejects_p3(tmp_path, capsys):
    graph = build_graph(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    gpath = tmp_path / "p3.json"
    save_json(gpath, graph_to_obj(graph))
    assert main(["witness", "ultrametric", str(gpath)]) == 1
    line, out = first_line(capsys)
    assert line == "false"
    assert "not-degree-one" in out


def _matching_files(tmp_path, parts):
    """The 2K2 graph a-b, c-d and a partition file; their paths."""
    gpath, ppath = tmp_path / "m.json", tmp_path / "p.json"
    save_json(gpath, graph_to_obj(build_graph(["a", "b", "c", "d"], [["a", "b"], ["c", "d"]])))
    if parts is not None:
        save_json(ppath, parts)
    return str(gpath), str(ppath)


def test_witness_ultrametric_certifies_given_parts(tmp_path, capsys):
    gpath, ppath = _matching_files(tmp_path, {"A": ["a", "d"], "B": ["b", "c"]})
    prefix = tmp_path / "u"
    assert main(["witness", "ultrametric", gpath, ppath, "-o", str(prefix)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "true"
    parts = load_partition(f"{prefix}.partition.json")
    assert (parts.a, parts.b) == ({"a", "d"}, {"b", "c"})
    assert verify_path_proximinal(load_graph(gpath), parts, load_space(f"{prefix}.space.json"))


def test_witness_ultrametric_rejects_parts_with_an_inner_edge(tmp_path, capsys):
    gpath, ppath = _matching_files(tmp_path, {"A": ["a", "b"], "B": ["c", "d"]})
    assert main(["witness", "ultrametric", gpath, ppath, "-o", str(tmp_path / "u")]) == 1
    assert capsys.readouterr().out == "false\nreason: not-bipartite-with-parts: some edge stays inside one part\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["m.json", "p.json"]


@pytest.mark.parametrize("parts, message", [
    (None, "No such file"),
    ({"A": ["a"], "B": "b"}, '"B" must be a list of strings'),
    ({"A": ["a"], "B": ["b", "c"]}, "uncovered=['d']"),
], ids=["missing", "malformed", "not-covering"])
def test_witness_ultrametric_bad_partition_exits_2(parts, message, tmp_path, capsys):
    gpath, ppath = _matching_files(tmp_path, parts)
    assert main(["witness", "ultrametric", gpath, ppath, "-o", str(tmp_path / "u")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and message in err
    assert not list(tmp_path.glob("u.*"))


def test_witness_proximinal_metric(tmp_path, capsys):
    graph = build_graph(["a", "b"], [["a", "b"]])
    gpath, ppath = tmp_path / "g.json", tmp_path / "p.json"
    save_json(gpath, graph_to_obj(graph))
    save_json(ppath, {"A": ["a"], "B": ["b"]})
    assert main(["witness", "proximinal-metric", str(gpath), str(ppath), "-o", str(tmp_path / "x")]) == 0
    space = load_space(tmp_path / "x.space.json")
    assert space.d("a", "b") == 1


def test_witness_proximinal_metric_empty_graph_exits_1(tmp_path, capsys):
    gpath, ppath = tmp_path / "g.json", tmp_path / "p.json"
    save_json(gpath, {"vertices": ["a", "b"], "edges": []})
    save_json(ppath, {"A": ["a"], "B": ["b"]})
    assert main(["witness", "proximinal-metric", str(gpath), str(ppath)]) == 1
    line, out = first_line(capsys)
    assert line == "false"
    assert "empty-graph" in out


def _all_ones_table(graph):
    """A wrong witness table: every distinct pair at distance 1, edge or not."""
    pts = tuple(graph.sorted_vertices())
    return FiniteSemimetricSpace(pts, tuple(tuple(Fraction(p != q) for q in pts) for p in pts))


@pytest.mark.parametrize("kind, module", [
    ("ultrametric", path_proximinal), ("metric", path_proximinal), ("proximinal-metric", proximinal),
], ids=["ultrametric", "metric", "proximinal-metric"])
def test_witness_failing_verification_exits_1_and_writes_nothing(kind, module, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(module, "adjacency_metric", _all_ones_table)
    gpath, ppath = tmp_path / "g.json", tmp_path / "p.json"
    save_json(gpath, {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["c", "d"]]})
    save_json(ppath, {"A": ["a", "c"], "B": ["b", "d"]})
    prefix = tmp_path / "w"
    assert main(["witness", kind, str(gpath), str(ppath), "-o", str(prefix)]) == 1
    assert capsys.readouterr().out == f"false\nreason: the {kind} witness fails its verification\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["g.json", "p.json"]


def test_verify_small_sweep(capsys):
    assert main(["verify", "t3.9", "--max-n", "3"]) == 0
    line, out = first_line(capsys)
    assert line == "true"
    assert "counterexamples: 0" in out


def test_verify_randomized_flags(capsys):
    assert main(["verify", "t2.1", "--count", "20", "--seed", "9"]) == 0
    line, _ = first_line(capsys)
    assert line == "true"


def test_verify_unknown_theorem_exits_2(capsys):
    assert main(["verify", "t9.9"]) == 2


def test_verify_bound_cap(capsys):
    assert main(["verify", "t3.9", "--max-n", "9"]) == 2
    assert f"outside 1..{MAX_ENUMERATION_VERTICES}" in capsys.readouterr().err


def test_verify_bound_past_enumeration_fails_before_any_work(capsys):
    assert main(["verify", "c3.12", "--max-n", str(MAX_ENUMERATION_VERTICES + 1)]) == 2
    err = capsys.readouterr().err
    assert f"outside 1..{MAX_ENUMERATION_VERTICES}" in err
    assert "instances checked" not in err


@pytest.mark.parametrize("argv, message", [
    (["verify", "t2.1", "--max-n", "99", "--count", "2"], "sweep t2.1 takes no --max-n"),
    (["verify", "t3.9", "--count", "5", "--max-n", "2"], "sweep t3.9 takes no --count"),
    (["verify", "t2.1", "--count", "-5"], "--count must be at least 1, got -5"),
    (["verify", "t3.5", "--count", "0"], "--count must be at least 1, got 0"),
    (["verify", "p3.9", "--count", "-1"], "--count must be at least 1, got -1"),
    *((["verify", sweep, "--max-n", "1"], f"sweep {sweep} has no instances within these bounds")
      for sweep in ("t3.9", "t3.4", "t3.6", "c2.9", "p3.22", "p3.9")),
], ids=["t2.1-max-n", "t3.9-count", "t2.1-count-negative", "t3.5-count-zero", "p3.9-count-negative",
        *(f"{sweep}-empty-family" for sweep in ("t3.9", "t3.4", "t3.6", "c2.9", "p3.22", "p3.9"))])
def test_verify_rejects_flag_the_sweep_does_not_take(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "instances checked" not in captured.err
    assert captured.out == ""


def test_verify_env_bound_only_reaches_sweeps_with_max_n(monkeypatch, capsys):
    monkeypatch.setenv("PROXIGRAPH_MAX_N", "99")
    assert main(["verify", "t2.1", "--count", "2", "--seed", "1"]) == 0
    assert first_line(capsys)[0] == "true"


def test_verify_env_override(monkeypatch, capsys):
    monkeypatch.setenv("PROXIGRAPH_MAX_N", "3")
    assert main(["verify", "t3.9"]) == 0
    out = capsys.readouterr().out
    assert "checked 52 instances" in out  # 4 + 48


def test_verify_env_invalid(monkeypatch, capsys):
    monkeypatch.setenv("PROXIGRAPH_MAX_N", "many")
    assert main(["verify", "t3.9"]) == 2


def test_example_bundles(tmp_path, capsys):
    for name in ("ex3.1", "ex3.2", "ex3.7", "ex3.16"):
        assert main(["example", name, "--out-dir", str(tmp_path)]) == 0
        line, _ = first_line(capsys)
        assert line == "true"
    assert (tmp_path / "ex3.1.graph.json").exists()
    assert (tmp_path / "ex3.2.space.json").exists()


def test_example_truncation_with_params(tmp_path, capsys):
    assert main(["example", "ex3.12", "--out-dir", str(tmp_path), "--N", "3", "--M", "2", "--K", "2"]) == 0
    line, out = first_line(capsys)
    assert line == "true"
    assert "dist(A, B) = 2: True" in out
    space = load_space(tmp_path / "ex3.12.space.json")
    params_space, _ = example_3_12_truncation(TruncationParams(3, 2, 2))
    assert space == params_space


def test_example_reports_erratum(tmp_path, capsys):
    assert main(["example", "ex3.2", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "46" in out and "64" in out
    assert "witness be-path for omitted pair (x2, x5)" in out


def test_export_dot_stdout(bundle, capsys):
    assert main(["export-dot", bundle["g37"]]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph G {")
    assert '"a1" -- "b1";' in out


def test_export_dot_to_file(bundle, tmp_path, capsys):
    target = tmp_path / "out.dot"
    assert main(["export-dot", bundle["g37"], "-o", str(target)]) == 0
    assert target.read_text().startswith("graph G {")


@pytest.mark.parametrize("command", ["classify", "export-dot"])
def test_deeply_nested_json_exits_2(command, tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "nesting too deep" in err


@pytest.mark.parametrize("data", [
    b'{"points": ["a"], "distances": [[' + b"1" * 5000 + b"]]}",
    b'{"points": ["a"]\xff}',
], ids=["integer-past-digit-limit", "byte-0xff"])
def test_undecodable_file_exits_2_naming_it(data, tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_bytes(data)
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON: ")


def test_missing_file_exits_2(capsys):
    assert main(["classify", "/nonexistent/space.json"]) == 2


def test_python_dash_m_runs_the_cli():
    src = str(Path(proxigraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "proxigraph", "verify", "t3.9", "--max-n", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "true"
