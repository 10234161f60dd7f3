"""File formats: round trips, rejection of malformed input, the writer's bytes, DOT export."""

import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from proxigraph import Bipartition, build_graph
from proxigraph.bepaths import quotient_graph
from proxigraph.cli import main
from proxigraph.fileio import (
    FormatError,
    graph_from_obj,
    graph_to_dot,
    graph_to_obj,
    load_graph,
    load_json,
    partition_from_obj,
    partition_to_obj,
    quotient_to_dot,
    save_json,
    space_from_obj,
    space_to_obj,
)
from proxigraph.instances import example_3_1, example_3_12_truncation, hypercube_space, TruncationParams


def test_graph_round_trip():
    graph, _ = example_3_1()
    assert graph_from_obj(graph_to_obj(graph)) == graph


def test_partition_round_trip():
    _, parts = example_3_1()
    assert partition_from_obj(partition_to_obj(parts)) == parts


def test_space_round_trip_integer_and_fractional():
    space, _ = example_3_12_truncation(TruncationParams(2, 1, 1))
    obj = space_to_obj(space)
    assert space_from_obj(obj) == space
    flattened = [v for row in obj["distances"] for v in row]
    assert "3/2" in flattened  # fractional entries are p/q strings


def test_file_round_trip(tmp_path):
    graph, _ = example_3_1()
    path = tmp_path / "g.json"
    save_json(path, graph_to_obj(graph))
    assert load_graph(path) == graph


def test_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(FormatError, match="invalid JSON"):
        load_json(path)


def test_graph_obj_validation():
    with pytest.raises(FormatError, match="mapping"):
        graph_from_obj([1, 2])
    with pytest.raises(FormatError, match="list of strings"):
        graph_from_obj({"vertices": [1], "edges": []})
    with pytest.raises(FormatError, match="bad edge entry"):
        graph_from_obj({"vertices": ["a", "b"], "edges": [["a"]]})
    with pytest.raises(FormatError, match="loop edge"):
        graph_from_obj({"vertices": ["a"], "edges": [["a", "a"]]})


@pytest.mark.parametrize("vertices, edges, message", [
    (["a", "b", "a"], [["a", "b"], ["b"]], "bad edge entry ['b']: expected a 2-element string list"),
    (["a", "b"], [["a", "z"], ["a", "b", "a"]], "bad edge entry ['a', 'b', 'a']: expected a 2-element string list"),
    (["a", "b"], [["a", "b"], ["a", 1], "ab"], "bad edge entry ['a', 1]: expected a 2-element string list"),
    (["a", "b"], [("a", "b"), ["a", "b"], None], "bad edge entry ('a', 'b'): expected a 2-element string list"),
    (["a", "b", "a"], [["a", "z"]], "duplicate vertex 'a'"),
    (["a", "b"], [["a", "z"], ["b", "b"]], "unknown edge endpoint 'z'"),
])
def test_graph_obj_names_the_first_of_two_defects(vertices, edges, message):
    # every bad edge shape, in list order, is named before a bad vertex list or an unknown endpoint
    with pytest.raises(FormatError) as info:
        graph_from_obj({"vertices": vertices, "edges": edges})
    assert str(info.value) == message


def test_partition_obj_validation():
    with pytest.raises(FormatError, match='"A" must be'):
        partition_from_obj({"A": "a", "B": ["b"]})
    with pytest.raises(FormatError, match="overlap"):
        partition_from_obj({"A": ["a"], "B": ["a"]})


@pytest.mark.parametrize("obj, message", [
    ({"A": ["a", "a"], "B": ["b"]}, "duplicate vertex 'a' in \"A\""),
    ({"A": ["a"], "B": ["b", "c", "d", "c", "b"]}, "duplicate vertex 'c' in \"B\""),
])
def test_partition_obj_rejects_a_repeated_label(obj, message):
    with pytest.raises(FormatError) as info:
        partition_from_obj(obj)
    assert str(info.value) == message


def test_space_obj_validation():
    with pytest.raises(FormatError, match="row-major"):
        space_from_obj({"points": ["a"], "distances": "x"})
    with pytest.raises(FormatError, match="rows"):
        space_from_obj({"points": ["a", "b"], "distances": [[0, 1]]})
    with pytest.raises(FormatError, match="bad distance entry 0.5"):
        space_from_obj({"points": ["a", "b"], "distances": [[0, 0.5], [0.5, 0]]})
    with pytest.raises(FormatError, match="bad distance entry True"):
        space_from_obj({"points": ["a", "b"], "distances": [[0, True], [True, 0]]})
    with pytest.raises(FormatError, match="malformed rational"):
        space_from_obj({"points": ["a", "b"], "distances": [[0, "x/y"], ["x/y", 0]]})
    with pytest.raises(FormatError, match="malformed rational"):
        space_from_obj({"points": ["a", "b"], "distances": [[0, "1/0"], ["1/0", 0]]})
    with pytest.raises(FormatError, match="asymmetric"):
        space_from_obj({"points": ["a", "b"], "distances": [[0, 1], [2, 0]]})
    with pytest.raises(FormatError, match="bad vertex label 'a b'"):
        space_from_obj({"points": ["a b"], "distances": [[0]]})
    with pytest.raises(FormatError, match="bad vertex label ''"):
        space_from_obj({"points": [""], "distances": [[0]]})


@pytest.mark.parametrize("distances, message", [
    ([[0, "x/y", True], ["x/y", 0, 1.5], [True, 1.5, 0]], "bad distance entry True: expected int or 'p/q' string"),
    ([[0, 1, None], [1, 0, 0.5], [None, 0.5, 0]], "bad distance entry None: expected int or 'p/q' string"),
    ([[0, 1, 2], [1, 0, [3]], [2, {"a": 1}, 0]], "bad distance entry [3]: expected int or 'p/q' string"),
    ([[0, "1/0", "x"], ["1/0", 0, "x"], ["x", "x", 0]],
     "malformed rational '1/0': expected an integer or 'p/q' with q > 0"),
    ([[0, 1, 2], [1, 0, "x"], [2, 1.5, 0]], "bad distance entry 1.5: expected int or 'p/q' string"),
    ([[0, "-1", 2], [1, 0, 3], [2, 3, 0]], "negative entry at (a, b): -1"),
])
def test_space_obj_names_the_first_of_several_bad_entries(distances, message):
    with pytest.raises(FormatError) as info:
        space_from_obj({"points": ["a", "b", "c"], "distances": distances})
    assert str(info.value) == message


def test_space_obj_reads_its_int_rows_at_the_scale():
    space, _ = example_3_12_truncation(TruncationParams(3, 2, 2))
    obj = space_to_obj(space)
    assert obj["distances"] == [[str(v) if v.denominator > 1 else int(v) for v in row] for row in space.table]
    cube = hypercube_space(4)
    assert space_to_obj(cube)["distances"] == [[int(v) for v in row] for row in cube.table]


# Text a writer must escape or keep: the item separator, quotes, backslashes, non-ASCII, control characters.
json_text = st.sampled_from(["", "a", ", ", "a, b", '"', "\\", "\u00e9", "\u2028", "\n", "[1, 2]"]) | st.text(max_size=5)
json_leaves = st.none() | st.booleans() | st.integers() | st.floats() | json_text
json_trees = st.recursive(
    json_leaves,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(st.integers() | json_text, max_size=6)  # the flat rows the writer takes in one call
        | st.dictionaries(json_text, inner, max_size=4)
        | st.dictionaries(st.integers(), inner, max_size=2)
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(json_trees)
def test_save_json_writes_the_bytes_of_json_dump(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("json") / "obj.json"
    save_json(path, obj)
    assert path.read_bytes() == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


# sha256 of each file written by `example ex3.12 --N 20 --M 8 --K 20`, `witness metric` on its graph and
# partition, and `witness ultrametric` on the 7-cube's first-bit matching, as json.dump wrote them
GOLDEN_SHA256 = {
    "ex3.12.graph.json": "a874f32ee628f45b5734755db7d0717d9bd64ca45ec9bf4a505d8be128ea554f",
    "ex3.12.partition.json": "4a35bdd176220b5881ff3c5bce8bd7cc75ea791231cbec76673131fc2d515a5c",
    "ex3.12.space.json": "33cc84230ef0bb4a48bed0f293d44dedc44ff4b1472c04cf7e352761e5b48b44",
    "trunc.metric.space.json": "60bdb732c37afbdbb925068bac00c8ab99ec42d85e7f054a19e700abbc371889",
    "cube.ultra.space.json": "be8587b3d3a445021d6f6bddeb0a631d00325aa19c19a65d836237d6a73003a1",
    "cube.ultra.partition.json": "f5bbe0e9f80c08bdc6e68bc7ca8c3b544e28ab8df925eb8283e6cab5ea549832",
}


def test_written_certificates_match_their_golden_bytes(tmp_path):
    points = [format(i, "07b") for i in range(128)]
    a = [p for p in points if p[0] == "0"]
    graph, parts = tmp_path / "m7.graph.json", tmp_path / "m7.partition.json"
    graph.write_text(json.dumps({"vertices": points, "edges": [[p, "1" + p[1:]] for p in a]}), encoding="utf-8")
    parts.write_text(json.dumps({"A": a, "B": [p for p in points if p[0] == "1"]}), encoding="utf-8")
    out = tmp_path / "out"
    for argv in (
        ["example", "ex3.12", "--N", "20", "--M", "8", "--K", "20", "--out-dir", str(out)],
        ["witness", "metric", str(out / "ex3.12.graph.json"), str(out / "ex3.12.partition.json"),
         "-o", str(out / "trunc.metric")],
        ["witness", "ultrametric", str(graph), str(parts), "-o", str(out / "cube.ultra")],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert written == GOLDEN_SHA256


def test_graph_to_dot_vertices_in_label_order():
    g = build_graph(["b", "a"], [["b", "a"]])
    assert graph_to_dot(g) == 'graph G {\n  "a";\n  "b";\n  "a" -- "b";\n}\n'


def test_quotient_to_dot_uses_representatives():
    g = build_graph(["a1", "b1", "a2", "b2"], [["a1", "b1"], ["b1", "a2"], ["a2", "b2"]])
    q = quotient_graph(g, Bipartition.of(["a1", "a2"], ["b1", "b2"]))
    assert quotient_to_dot(q) == (
        'graph Q {\n  "A:a1";\n  "A:a2";\n  "B:b1";\n  "B:b2";\n'
        '  "A:a1" -- "B:b1";\n  "A:a2" -- "B:b1";\n  "A:a2" -- "B:b2";\n}\n'
    )
