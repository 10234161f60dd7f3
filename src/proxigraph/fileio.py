"""JSON file formats for graphs, partitions and spaces, and DOT export.

Formats:
  graph      {"vertices": [str, ...], "edges": [[str, str], ...]}
  partition  {"A": [str, ...], "B": [str, ...]}
  space      {"points": [str, ...], "distances": [[int | "p/q", ...], ...]}

Distance entries are integers or exact "p/q" strings; anything else
(floats, booleans, malformed strings, non-square tables) is rejected.
A space is read through `build_space` and written from its scaled int rows,
each distinct entry converted once; `save_json` streams the bytes of
`json.dump(obj, fh, indent=2, sort_keys=True)` and a newline.  Repeated labels
are rejected in every format.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Iterator, Union

from .bepaths import QuotientGraph
from .graphs import Bipartition, GraphError, SimpleGraph, build_graph
from .spaces import FiniteSemimetricSpace, SpaceError, build_space

PathLike = Union[str, Path]


class FormatError(ValueError):
    """Structurally invalid graph/partition/space object."""


def _string_list(obj: Any, what: str) -> list[str]:
    if not isinstance(obj, list) or not all(isinstance(x, str) for x in obj):
        raise FormatError(f"{what} must be a list of strings")
    return obj


def graph_to_obj(graph: SimpleGraph) -> dict:
    return {
        "vertices": graph.sorted_vertices(),
        "edges": [list(e) for e in graph.sorted_edges()],
    }


def graph_from_obj(obj: Any) -> SimpleGraph:
    if not isinstance(obj, dict):
        raise FormatError("graph object must be a mapping")
    vertices = _string_list(obj.get("vertices"), '"vertices"')
    edges = obj.get("edges")
    if not isinstance(edges, list):
        raise FormatError('"edges" must be a list of 2-element string lists')
    shaped = {*map(type, edges)} <= {list} and {*map(len, edges)} <= {2} and {*map(type, chain(*edges))} <= {str}
    for e in () if shaped else edges:  # a failing list is rescanned in order: its first bad entry is named
        if not isinstance(e, list) or len(e) != 2 or not all(isinstance(x, str) for x in e):
            raise FormatError(f'bad edge entry {e!r}: expected a 2-element string list')
    try:
        return build_graph(vertices, edges)
    except GraphError as exc:
        raise FormatError(str(exc)) from None


def partition_to_obj(parts: Bipartition) -> dict:
    return {"A": sorted(parts.a), "B": sorted(parts.b)}


def partition_from_obj(obj: Any) -> Bipartition:
    if not isinstance(obj, dict):
        raise FormatError("partition object must be a mapping")
    a = _string_list(obj.get("A"), '"A"')
    b = _string_list(obj.get("B"), '"B"')
    try:
        parts = Bipartition.of(a, b)
    except GraphError as exc:
        raise FormatError(str(exc)) from None
    for name, labels, part in (("A", a, parts.a), ("B", b, parts.b)):
        if len(labels) != len(part):
            repeated = next(x for i, x in enumerate(labels) if x in labels[:i])
            raise FormatError(f'duplicate vertex {repeated!r} in "{name}"')
    return parts


def _rational_to_entry(value: Fraction) -> Union[int, str]:
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def space_to_obj(space: FiniteSemimetricSpace) -> dict:
    """The file object of a space, read from its scaled rows: one conversion per distinct entry."""
    scale, rows = space.scale, space.rows
    entry = {v: _rational_to_entry(Fraction(v, scale)) for v in set(chain.from_iterable(rows))}
    return {"points": list(space.points), "distances": [list(map(entry.__getitem__, row)) for row in rows]}


def space_from_obj(obj: Any) -> FiniteSemimetricSpace:
    if not isinstance(obj, dict):
        raise FormatError("space object must be a mapping")
    points = _string_list(obj.get("points"), '"points"')
    distances = obj.get("distances")
    if not isinstance(distances, list) or not all(isinstance(row, list) for row in distances):
        raise FormatError('"distances" must be a row-major list of lists')
    try:
        return build_space(points, distances)
    except (GraphError, SpaceError) as exc:
        for entry in chain.from_iterable(distances):  # a bad entry type, first in row-major order, is named first
            if isinstance(entry, bool) or not isinstance(entry, (int, str)):
                raise FormatError(f"bad distance entry {entry!r}: expected int or 'p/q' string") from None
        raise FormatError(str(exc)) from None


def load_json(path: PathLike) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # bad syntax, bad UTF-8, or an integer past the digit limit
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise FormatError(f"{path}: invalid JSON: nesting too deep") from None


def _json_chunks(obj: Any, indent: str) -> Iterator[str]:
    """The text of `json.dumps(obj, indent=2, sort_keys=True)` nested at `indent`, in chunks.

    A list of plain ints and strs is one C-level `json.dumps`, its ", " separators made
    line breaks unless an item holds ", ".  Other values than lists and str-keyed mappings
    are left to `json.dumps`, lines shifted by `indent` (its every newline is structural).
    """
    inner = indent + "  "
    if type(obj) is list and obj:
        if set(map(type, obj)) <= {int, str}:
            text = json.dumps(obj)
            if text.count(", ") == len(obj) - 1:
                yield f"[\n{inner}" + text[1:-1].replace(", ", f",\n{inner}") + f"\n{indent}]"
                return
        items, brackets = (("", item) for item in obj), "[]"
    elif type(obj) is dict and obj and all(type(key) is str for key in obj):
        items, brackets = ((json.dumps(key) + ": ", obj[key]) for key in sorted(obj)), "{}"
    else:
        yield json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + indent)
        return
    separator = brackets[0] + "\n" + inner
    for key, item in items:
        yield separator + key
        yield from _json_chunks(item, inner)
        separator = ",\n" + inner
    yield "\n" + indent + brackets[1]


def save_json(path: PathLike, obj: Any) -> None:
    """Write the bytes of `json.dump(obj, fh, indent=2, sort_keys=True)` and a newline, chunk by chunk."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks(obj, ""))
        fh.write("\n")


def load_graph(path: PathLike) -> SimpleGraph:
    return graph_from_obj(load_json(path))


def load_partition(path: PathLike) -> Bipartition:
    return partition_from_obj(load_json(path))


def load_space(path: PathLike) -> FiniteSemimetricSpace:
    return space_from_obj(load_json(path))


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(name: str, nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> str:
    """DOT text of an undirected graph: its nodes, then its edges, each as given."""
    lines = [f"graph {name} {{"]
    lines.extend(f"  {_dot_quote(v)};" for v in nodes)
    lines.extend(f"  {_dot_quote(u)} -- {_dot_quote(v)};" for u, v in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_dot(graph: SimpleGraph) -> str:
    """DOT text with vertices in label order."""
    return _dot("G", graph.sorted_vertices(), graph.sorted_edges())


def quotient_to_dot(quotient: QuotientGraph) -> str:
    """DOT text for a component quotient, nodes named by representatives."""
    a_names = [f"A:{rep}" for rep in quotient.a_representatives]
    b_names = [f"B:{rep}" for rep in quotient.b_representatives]
    return _dot("Q", a_names + b_names, [(a_names[i], b_names[j]) for i, j in sorted(quotient.edges)])
