"""File formats: round trips, rejection of malformed input, DOT export."""

import pytest

from proxigraph import Bipartition, build_graph
from proxigraph.bepaths import quotient_graph
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
from proxigraph.instances import example_3_1, example_3_12_truncation, TruncationParams


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


def test_partition_obj_validation():
    with pytest.raises(FormatError, match='"A" must be'):
        partition_from_obj({"A": "a", "B": ["b"]})
    with pytest.raises(FormatError, match="overlap"):
        partition_from_obj({"A": ["a"], "B": ["a"]})


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


def test_graph_to_dot_vertices_in_label_order():
    g = build_graph(["b", "a"], [["b", "a"]])
    assert graph_to_dot(g) == 'graph G {\n  "a";\n  "b";\n  "a" -- "b";\n}\n'


def test_quotient_to_dot_uses_representatives():
    g = build_graph(["a1", "b1", "a2", "b2"], [["a1", "b1"], ["b1", "a2"], ["a2", "b2"]])
    q = quotient_graph(g, Bipartition.of(["a1", "a2"], ["b1", "b2"]))
    text = quotient_to_dot(q)
    assert '"A:a1"' in text and '"B:b2"' in text
    assert text.count("--") == 3
