"""Fuzzed JSON inputs: the readers raise only FormatError, and the CLI exits 0, 1 or 2."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from proxigraph.cli import main
from proxigraph.fileio import FormatError, graph_from_obj, load_json, partition_from_obj, space_from_obj

FUZZ_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

GRAPH = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}
PARTITION = {"A": ["a"], "B": ["b", "c"]}
SPACE = {"points": ["a", "b", "c"], "distances": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}
NESTED = "[" * 100_000 + "]" * 100_000
LONG_INTEGER = b'{"points": ["a"], "distances": [[' + b"1" * 5000 + b"]]}"  # past the int-digit limit
BAD_UTF8 = b'{"points": ["a"]\xff}'

# Strings a reader must judge: labels with and without whitespace, rationals well and badly formed.
leaf_text = st.sampled_from(["", "a", "b", "z", "a b", "\t", "0", "1", "-1", "3/2", "1/0", "x/y"]) | st.text(max_size=4)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | leaf_text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(leaf_text, inner, max_size=3),
    max_leaves=8,
)


def _slots(obj, path=()):
    """Every path to a value inside `obj`: mapping keys and list positions, at any depth."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _slots(value, path + (key,))


def _replaced(obj, path, value):
    """A deep copy of `obj` with the entry at `path` replaced by `value`."""
    result = copy.deepcopy(obj)
    holder = result
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return result


def near_misses(base):
    """The valid object `base` with one key or entry replaced by a string or JSON value."""
    replacements = st.tuples(st.sampled_from(list(_slots(base))), leaf_text | json_values)
    return replacements.map(lambda replacement: _replaced(base, *replacement))


@FUZZ_SETTINGS
@given(near_misses(GRAPH), near_misses(PARTITION), near_misses(SPACE), json_values)
def test_readers_return_or_raise_format_error(graph, partition, space, value):
    for reader, obj in (
        (graph_from_obj, graph), (partition_from_obj, partition), (space_from_obj, space),
        (graph_from_obj, value), (partition_from_obj, value), (space_from_obj, value),
    ):
        try:
            reader(obj)
        except FormatError:
            pass


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    """A directory holding the valid graph and partition files the fuzzed file is paired with."""
    path = tmp_path_factory.mktemp("fuzz")
    (path / "graph.json").write_text(json.dumps(GRAPH), encoding="utf-8")
    (path / "parts.json").write_text(json.dumps(PARTITION), encoding="utf-8")
    return path


@FUZZ_SETTINGS
@given(text=st.one_of(json_values, *map(near_misses, (GRAPH, PARTITION, SPACE))).map(json.dumps)
      | st.text(max_size=12))
@example(text=NESTED)
def test_cli_exits_0_1_or_2_on_fuzzed_files(directory, text):
    fuzzed, graph, parts = directory / "fuzzed.json", directory / "graph.json", directory / "parts.json"
    fuzzed.write_text(text, encoding="utf-8")
    for argv in (
        ["classify", fuzzed],
        ["export-dot", fuzzed],
        ["check", "path-bipartite", fuzzed, parts],
        ["check", "path-bipartite", graph, fuzzed],
    ):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(arg) for arg in argv])
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.getvalue().startswith("error:"), (argv, err.getvalue())


@FUZZ_SETTINGS
@given(data=st.binary(max_size=24) | st.one_of(json_values, near_misses(SPACE)).map(
    lambda value: json.dumps(value).encode()))
@example(data=LONG_INTEGER)
@example(data=BAD_UTF8)
def test_load_json_raises_only_format_error_naming_the_file(directory, data):
    path = directory / "fuzzed-bytes.json"
    path.write_bytes(data)
    try:
        load_json(path)
    except FormatError as exc:
        assert str(exc).startswith(f"{path}: invalid JSON: ")
