"""JSON file formats for graphs, partitions, spaces, and certificates.

Formats:
  graph      {"vertices": [str, ...], "edges": [[str, str], ...]}
  partition  {"A": [str, ...], "B": [str, ...]}
  space      {"points": [str, ...], "distances": [[int | "p/q", ...], ...]}
  certificate {"graph": ..., "partition": ..., "space": ...}

Distance entries are integers or exact "p/q" strings; anything else
(floats, booleans, malformed strings, non-square tables) is rejected.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Union

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
    for e in edges:
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
        return Bipartition.of(a, b)
    except GraphError as exc:
        raise FormatError(str(exc)) from None


def _rational_to_entry(value: Fraction) -> Union[int, str]:
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def space_to_obj(space: FiniteSemimetricSpace) -> dict:
    return {
        "points": list(space.points),
        "distances": [[_rational_to_entry(v) for v in row] for row in space.table],
    }


def space_from_obj(obj: Any) -> FiniteSemimetricSpace:
    if not isinstance(obj, dict):
        raise FormatError("space object must be a mapping")
    points = _string_list(obj.get("points"), '"points"')
    distances = obj.get("distances")
    if not isinstance(distances, list) or not all(isinstance(row, list) for row in distances):
        raise FormatError('"distances" must be a row-major list of lists')
    for row in distances:
        for entry in row:
            if isinstance(entry, bool) or not isinstance(entry, (int, str)):
                raise FormatError(f"bad distance entry {entry!r}: expected int or 'p/q' string")
    try:
        return build_space(points, distances)
    except (GraphError, SpaceError) as exc:
        raise FormatError(str(exc)) from None


def certificate_to_obj(graph: SimpleGraph, parts: Bipartition, space: FiniteSemimetricSpace) -> dict:
    return {
        "graph": graph_to_obj(graph),
        "partition": partition_to_obj(parts),
        "space": space_to_obj(space),
    }


def certificate_from_obj(obj: Any) -> tuple[SimpleGraph, Bipartition, FiniteSemimetricSpace]:
    if not isinstance(obj, dict):
        raise FormatError("certificate object must be a mapping")
    return (
        graph_from_obj(obj.get("graph")),
        partition_from_obj(obj.get("partition")),
        space_from_obj(obj.get("space")),
    )


def load_json(path: PathLike) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # bad syntax, bad UTF-8, or an integer past the digit limit
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise FormatError(f"{path}: invalid JSON: nesting too deep") from None


def save_json(path: PathLike, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_graph(path: PathLike) -> SimpleGraph:
    return graph_from_obj(load_json(path))


def load_partition(path: PathLike) -> Bipartition:
    return partition_from_obj(load_json(path))


def load_space(path: PathLike) -> FiniteSemimetricSpace:
    return space_from_obj(load_json(path))


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(graph: SimpleGraph, name: str = "G") -> str:
    """DOT text with vertices in label order."""
    lines = [f"graph {name} {{"]
    for v in graph.sorted_vertices():
        lines.append(f"  {_dot_quote(v)};")
    for u, v in graph.sorted_edges():
        lines.append(f"  {_dot_quote(u)} -- {_dot_quote(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def quotient_to_dot(quotient: QuotientGraph, name: str = "Q") -> str:
    """DOT text for a component quotient, nodes named by representatives."""
    a_names = [f"A:{rep}" for rep in quotient.a_representatives]
    b_names = [f"B:{rep}" for rep in quotient.b_representatives]
    lines = [f"graph {name} {{"]
    for label in a_names + b_names:
        lines.append(f"  {_dot_quote(label)};")
    for i, j in sorted(quotient.edges):
        lines.append(f"  {_dot_quote(a_names[i])} -- {_dot_quote(b_names[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
