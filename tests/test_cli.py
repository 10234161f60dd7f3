"""Command-line interface: exit codes, first-line verdicts, file outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import proxigraph
from proxigraph import Bipartition, FiniteSemimetricSpace, build_graph, build_space, path_proximinal, proximinal
from proxigraph.bepaths import bpath_pairs
from proxigraph.cli import build_parser, main
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
    random_graph,
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


def test_check_path_complete_reason_matches_the_sorted_missing_pairs(tmp_path, capsys):
    cases = [example_3_7()]
    for seed in range(4):
        graph = random_graph(40, "1/20", seed)
        odd = {v for v in graph.vertices if int(v[1:]) % 2}
        cases.append((graph, Bipartition(frozenset(odd), graph.vertices - odd)))
    cases.append((build_graph(["a", "b", "c"], [["a", "b"]]), Bipartition.of(["a"], ["b", "c"])))
    for k, (graph, parts) in enumerate(cases):
        pairs = bpath_pairs(graph, parts)
        missing = sorted((a, b) for a in parts.a for b in parts.b if (a, b) not in pairs)
        assert missing
        save_json(tmp_path / f"g{k}.json", graph_to_obj(graph))
        save_json(tmp_path / f"p{k}.json", partition_to_obj(parts))
        assert main(["check", "path-complete", str(tmp_path / f"g{k}.json"), str(tmp_path / f"p{k}.json")]) == 1
        assert capsys.readouterr().out == f"false\nreason: {len(missing)} pairs not joinable, e.g. {missing[0]}\n"


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
    if kind == "path-bipartite":
        del files["s"]  # a kind that reads no space file rejects one
    for name, obj in files.items():
        save_json(tmp_path / f"{name}.json", obj)
    assert main(["check", kind, *(str(tmp_path / f"{name}.json") for name in files)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: partition mentions unknown vertices: ['zz']\n"


def test_check_partition_with_a_repeated_label_exits_2(tmp_path, capsys):
    save_json(tmp_path / "g.json", graph_to_obj(build_graph(["a", "b"], [["a", "b"]])))
    save_json(tmp_path / "p.json", {"A": ["a", "a"], "B": ["b"]})
    assert main(["check", "path-bipartite", str(tmp_path / "g.json"), str(tmp_path / "p.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == 'error: duplicate vertex \'a\' in "A"\n'


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


@pytest.mark.parametrize("kind", ["metric", "proximinal-metric"])
def test_witness_without_a_partition_file_exits_2(kind, bundle, tmp_path, capsys):
    assert main(["witness", kind, bundle["g37"], "-o", str(tmp_path / "w")]) == 2
    assert capsys.readouterr() == ("", f"error: witness {kind} requires a partition file\n")
    assert not list(tmp_path.glob("w.*"))


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
    return FiniteSemimetricSpace(pts, 1, tuple(tuple(int(p != q) for q in pts) for p in pts))


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


# Full stdout of three randomized sweeps at seed 7, recorded before threshold graphs,
# row indices and components were memoised: a memo must not move a count or the note.
PINNED_SWEEPS = {
    "t3.10": (["--max-n", "4", "--count", "40"], [
        "sweep t3.10: checked 1975 instances",
        "note: backward direction fired on 26 (space, partition) instances",
    ]),
    "t3.5": (["--count", "40"], ["sweep t3.5: checked 1344 instances"]),
    "t2.1": (["--count", "40"], ["sweep t2.1: checked 1900 instances"]),
}


@pytest.mark.parametrize("sweep", sorted(PINNED_SWEEPS))
def test_verify_randomized_sweep_stdout_is_pinned(sweep, capsys):
    flags, report = PINNED_SWEEPS[sweep]
    assert main(["verify", sweep, *flags, "--seed", "7"]) == 0
    assert capsys.readouterr().out == "\n".join(["true", *report, "counterexamples: 0", ""])


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


@pytest.mark.parametrize("argv, message", [
    (["check", "path-complete", "G", "P", "/nonexistent.json"], "check path-complete takes no space file"),
    (["check", "path-bipartite", "G", "P", "/nonexistent.json"], "check path-bipartite takes no space file"),
    (["example", "ex3.2", "--N", "50"], "example ex3.2 takes no --N"),
    (["example", "ex3.1", "--M", "3"], "example ex3.1 takes no --M"),
    (["example", "ex3.16", "--K", "2"], "example ex3.16 takes no --K"),
], ids=["check-path-complete-space", "check-path-bipartite-space", "example-N", "example-M", "example-K"])
def test_command_rejects_an_argument_it_does_not_read(argv, message, bundle, tmp_path, capsys):
    words = [{"G": bundle["g37"], "P": bundle["p37"]}.get(word, word) for word in argv]
    out_dir = tmp_path / "out"
    if words[0] == "example":
        words += ["--out-dir", str(out_dir)]
    assert main(words) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out_dir.exists()


def test_bpath_takes_a_witness_or_the_quotient_not_both(bundle, capsys):
    assert main(["bpath", bundle["g37"], bundle["p37"], "--witness", "a1", "b1", "--quotient"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with argument --witness" in err


def test_example_truncation_defaults_are_two(tmp_path, capsys):
    outputs = []
    for extra in ([], ["--N", "2", "--M", "2", "--K", "2"]):
        assert main(["example", "ex3.12", "--out-dir", str(tmp_path), *extra]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "satisfies the triangle inequality: True" in outputs[0]


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


def run_python(*args):
    """Python in a fresh process that imports this proxigraph, with `args`: (exit code, stdout, stderr)."""
    src = str(Path(proxigraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_python_dash_m_runs_the_cli():
    code, out, err = run_python("-m", "proxigraph", "verify", "t3.9", "--max-n", "2")
    assert code == 0, err
    assert out.splitlines()[0] == "true"


@pytest.mark.parametrize("points, distances", [([], []), (["a"], [[0]]), (["a", "b"], [[0, "1/2"], ["1/2", 0]])])
def test_classify_spaces_without_three_points_exits_0(points, distances, tmp_path):
    path = tmp_path / "small.space.json"
    save_json(path, {"points": points, "distances": distances})
    assert run_python("-m", "proxigraph", "classify", str(path)) == (0, "Ultrametric\n", "")


def test_one_process_answers_as_fresh_processes_do(bundle):
    graph, parts = example_3_1()
    a, b = sorted(bpath_pairs(graph, parts))[0]
    calls = [
        ["check", "path-bipartite", bundle["g31"], bundle["p31"]],
        ["check", "no-such-kind", bundle["g31"], bundle["p31"]],
        ["bpath", bundle["g31"], bundle["p31"], "--witness", a, b],
        ["bpath", bundle["g31"], bundle["p31"]],
        ["verify", "t3.9", "--max-n", "3"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from proxigraph.cli import main\n"
        "answers = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
        "        answers.append([main(argv), out.getvalue()])\n"
        "print(json.dumps(answers))\n"
    )
    code, out, err = run_python("-c", script, json.dumps(calls))
    assert code == 0, err
    fresh = [list(run_python("-m", "proxigraph", *argv)[:2]) for argv in calls]
    assert json.loads(out) == fresh
    assert [code for code, _ in fresh] == [0, 2, 0, 0, 0]


@pytest.mark.parametrize("command", [[], ["classify"], ["check"], ["bpath"], ["witness"], ["verify"], ["example"],
                                     ["export-dot"]])
def test_help_from_the_one_parser_matches_a_fresh_parser(command, capsys):
    assert build_parser() is build_parser()
    assert main([*command, "--help"]) == 0
    kept = capsys.readouterr().out
    with pytest.raises(SystemExit):
        build_parser.__wrapped__().parse_args([*command, "--help"])
    assert capsys.readouterr().out == kept and kept.startswith("usage: proxigraph")


# Inputs for every verdict branch of `check` and every false reason of `witness`.
_TRIAD = [[0, 1, 2], [1, 0, 2], [2, 2, 0]]
_TWO_PAIRS = [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]]  # a-b and c-d at 1, the rest at 2
GOLDEN_FILES = {
    "k2": {"vertices": ["a", "b"], "edges": [["a", "b"]]},
    "e2": {"vertices": ["a", "b"], "edges": []},
    "k2+c": {"vertices": ["a", "b", "c"], "edges": [["a", "b"]]},
    "p3": {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]},
    "2k2": {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["c", "d"]]},
    "k2+cd": {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"]]},
    "a|b": {"A": ["a"], "B": ["b"]},
    "a|bc": {"A": ["a"], "B": ["b", "c"]},
    "ac|b": {"A": ["a", "c"], "B": ["b"]},
    "a|bcd": {"A": ["a"], "B": ["b", "c", "d"]},
    "bcd|a": {"A": ["b", "c", "d"], "B": ["a"]},
    "ab|cd": {"A": ["a", "b"], "B": ["c", "d"]},
    "ac|bd": {"A": ["a", "c"], "B": ["b", "d"]},
    "s2": {"points": ["a", "b"], "distances": [[0, 1], [1, 0]]},
    "s3": {"points": ["a", "b", "c"], "distances": _TRIAD},
    "s4": {"points": ["a", "b", "c", "d"], "distances": _TWO_PAIRS},
}


@pytest.fixture
def golden_files(tmp_path):
    """Each input of the golden cases written as `<name>.json` in `tmp_path`; their paths by name."""
    objs = dict(GOLDEN_FILES)
    for name, (graph, parts) in {"ex3.1": example_3_1(), "ex3.7": example_3_7()}.items():
        objs[f"{name}.g"], objs[f"{name}.p"] = graph_to_obj(graph), partition_to_obj(parts)
    space, parts = example_3_2()
    objs["ex3.2.s"], objs["ex3.2.p"] = space_to_obj(space), partition_to_obj(parts)
    objs["ex3.2.g"] = graph_to_obj(build_threshold_graph(space, parts))
    objs["ex3.2.best"] = graph_to_obj(proximinal.build_proximinal_graph(space, parts))
    for seed in range(4):
        graph = random_graph(40, "1/20", seed)
        odd = {v for v in graph.vertices if int(v[1:]) % 2}
        objs[f"rand{seed}.g"] = graph_to_obj(graph)
        objs[f"rand{seed}.p"] = partition_to_obj(Bipartition(frozenset(odd), graph.vertices - odd))
    paths = {}
    for name, obj in objs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        save_json(paths[name], obj)
    return paths


# argv with file names, exit code and reason line, recorded before each verdict's
# reason came from the routine that decided it; exit 2 prints nothing on stdout.
GOLDEN_CASES = {
    "path-bipartite-true": ("check path-bipartite ex3.1.g ex3.1.p", 0, "all components meet both parts"),
    "path-bipartite-uncovered": ("check path-bipartite k2+c a|b", 1,
                                 "A and B do not cover the vertex set; uncovered: ['c']"),
    "path-bipartite-misses-a": ("check path-bipartite k2+c a|bc", 1, "component ['c'] does not meet part A"),
    "path-bipartite-misses-b": ("check path-bipartite 2k2 ab|cd", 1, "component ['a', 'b'] does not meet part B"),
    "path-complete-true": ("check path-complete ex3.2.g ex3.2.p", 0, "all 64 pairs of A x B are joined by be-paths"),
    "path-complete-ex3.7": ("check path-complete ex3.7.g ex3.7.p", 1, "1 pairs not joinable, e.g. ('a1', 'b2')"),
    "path-complete-rand0": ("check path-complete rand0.g rand0.p", 1, "236 pairs not joinable, e.g. ('v1', 'v10')"),
    "path-complete-rand1": ("check path-complete rand1.g rand1.p", 1, "139 pairs not joinable, e.g. ('v1', 'v12')"),
    "path-complete-rand2": ("check path-complete rand2.g rand2.p", 1, "221 pairs not joinable, e.g. ('v1', 'v10')"),
    "path-complete-rand3": ("check path-complete rand3.g rand3.p", 1, "258 pairs not joinable, e.g. ('v1', 'v10')"),
    "path-complete-k2+c": ("check path-complete k2+c a|bc", 1, "1 pairs not joinable, e.g. ('a', 'c')"),
    "path-proximinal-true": ("check path-proximinal ex3.2.g ex3.2.p ex3.2.s", 0,
                             "threshold graph matches and is path-bipartite of (A, B)"),
    "path-proximinal-uncovered": ("check path-proximinal k2+c a|b s3", 1,
                                  "A and B do not cover the vertex set; uncovered: ['c']"),
    "path-proximinal-inner-edge": ("check path-proximinal 2k2 ab|cd s4", 1,
                                   "edges differ from the threshold graph of the space"),
    "path-proximinal-edges-differ": ("check path-proximinal k2+cd a|bcd s4", 1,
                                     "edges differ from the threshold graph of the space"),
    "path-proximinal-misses-a": ("check path-proximinal 2k2 a|bcd s4", 1,
                                 "component ['c', 'd'] does not meet part A"),
    "path-proximinal-misses-b": ("check path-proximinal 2k2 bcd|a s4", 1,
                                 "component ['c', 'd'] does not meet part B"),
    "path-proximinal-vertex-mismatch": ("check path-proximinal k2 ex3.2.p ex3.2.s", 2, None),
    "proximinal-true": ("check proximinal ex3.2.best ex3.2.p ex3.2.s", 0, "edges are exactly the best proximity pairs"),
    "proximinal-k2": ("check proximinal k2 a|b s2", 0, "edges are exactly the best proximity pairs"),
    "proximinal-uncovered": ("check proximinal k2+c a|b s3", 1, "A and B do not cover the vertex set; uncovered: ['c']"),
    "proximinal-inner-edge": ("check proximinal 2k2 ab|cd s4", 1,
                              "graph is not the best-proximity-pair graph of (A, B) in this space"),
    "proximinal-edges-differ": ("check proximinal k2+cd ac|bd s4", 1,
                                "graph is not the best-proximity-pair graph of (A, B) in this space"),
    "proximinal-vertex-mismatch": ("check proximinal k2 ex3.2.p ex3.2.s", 2, None),
    "witness-ultrametric-inner-edge": ("witness ultrametric 2k2 ab|cd", 1,
                                       "not-bipartite-with-parts: some edge stays inside one part"),
    "witness-proximinal-metric-inner-edge": ("witness proximinal-metric 2k2 ab|cd", 1,
                                             "not-bipartite-with-parts: some edge stays inside one part"),
    "witness-ultrametric-not-degree-one": ("witness ultrametric p3", 1,
                                           "not-degree-one: some vertex does not have exactly one neighbor"),
    "witness-metric-misses-a": ("witness metric k2+c a|bc", 1,
                                "not-path-bipartite: component ['c'] does not meet part A"),
    "witness-metric-misses-b": ("witness metric k2+c ac|b", 1,
                                "not-path-bipartite: component ['c'] does not meet part B"),
    "witness-proximinal-metric-empty": ("witness proximinal-metric e2 a|b", 1,
                                        "empty-graph: an empty bipartite graph has no proximinal witness"),
    **{f"witness-{kind}-fails": (f"witness {kind} 2k2 ac|bd", 1, f"the {kind} witness fails its verification")
       for kind in ("ultrametric", "metric", "proximinal-metric")},
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_verdict_stdout_and_exit_code_are_pinned(case, golden_files, monkeypatch, tmp_path, capsys):
    argv, code, reason = GOLDEN_CASES[case]
    if case.endswith("-fails"):  # a wrong witness table, so that its verification fails
        for module in (path_proximinal, proximinal):
            monkeypatch.setattr(module, "adjacency_metric", _all_ones_table)
    words = [golden_files.get(word, word) for word in argv.split()]
    if words[0] == "witness":
        words += ["-o", str(tmp_path / "w")]
    stdout = "" if code == 2 else f"{'true' if code == 0 else 'false'}\nreason: {reason}\n"
    assert (main(words), capsys.readouterr().out) == (code, stdout)
