"""Proximinal bipartite graphs: construction, verification, witness metric.

A bipartite graph with fixed parts (A, B) is proximinal for a space when A
and B are disjoint proximinal subsets and the edges are exactly the cross
pairs realizing dist(A, B).  The {0, 1, 2} witness metric is built directly
as the space's int rows at scale 1.
"""

from __future__ import annotations

from typing import Optional

from .bepaths import path_bipartite_defect
from .graphs import Bipartition, GraphError, SimpleGraph, edge_key, require_cover
from .spaces import FiniteSemimetricSpace, is_proximinal, proximity_report, set_distance


def adjacency_metric(graph: SimpleGraph) -> FiniteSemimetricSpace:
    """The {0,1,2}-valued space on the vertices: 1 on edges, 2 on other distinct pairs, as int rows at scale 1."""
    pts = tuple(graph.sorted_vertices())
    n, index = len(pts), {p: i for i, p in enumerate(pts)}
    rows = [[2] * i + [0] + [2] * (n - 1 - i) for i in range(n)]
    for u, v in graph.edges:
        i, j = index[u], index[v]
        rows[i][j] = rows[j][i] = 1
    return FiniteSemimetricSpace(pts, 1, tuple(map(tuple, rows)))


def is_bipartite_with_parts(graph: SimpleGraph, parts: Bipartition) -> bool:
    """True iff V(G) = A ∪ B and every edge joins A to B."""
    return graph.vertices == parts.union and all((u in parts.a) != (v in parts.a) for u, v in graph.edges)


def build_proximinal_graph(space: FiniteSemimetricSpace, parts: Bipartition) -> SimpleGraph:
    """Graph on A ∪ B whose edges are the cross pairs at distance dist(A, B)."""
    require_cover(space.point_set(), parts, "point set")
    edges = frozenset(edge_key(x, y) for x, y in proximity_report(space, parts).pairs)
    return SimpleGraph(parts.union, edges)


def require_same_points(graph: SimpleGraph, parts: Bipartition, space: FiniteSemimetricSpace) -> None:
    """Raise GraphError unless the graph's vertices are the space's points and A ∪ B lies among them."""
    points = space.point_set()
    if graph.vertices != points:
        raise GraphError(f"vertex-set mismatch: graph vertices and space points differ; graph-only="
                         f"{sorted(graph.vertices - points)}, space-only={sorted(points - graph.vertices)}")
    require_cover(points, parts, exact=False)


def proximinal_graph_defect(graph: SimpleGraph, parts: Bipartition, space: FiniteSemimetricSpace) -> Optional[tuple]:
    """None iff (graph, parts) is the proximinal graph of the space, else the first failing condition:
    A ∪ B leaves vertices out (as `path_bipartite_defect` names them), or ("best-pairs",) when the
    edges are not exactly the cross pairs at dist(A, B) of two proximinal parts."""
    require_same_points(graph, parts, space)
    if parts.union != graph.vertices:
        return path_bipartite_defect(graph, parts)
    if is_bipartite_with_parts(graph, parts) and is_proximinal(space, parts.a) and is_proximinal(space, parts.b):
        dist = set_distance(space, parts.a, parts.b)
        if all(graph.has_edge(x, y) == (space.d(x, y) == dist) for x in parts.a for y in parts.b):
            return None
    return ("best-pairs",)


def verify_proximinal_graph(graph: SimpleGraph, parts: Bipartition, space: FiniteSemimetricSpace) -> bool:
    """Check the proximinal-graph property of (graph, parts) against a space."""
    return proximinal_graph_defect(graph, parts, space) is None


def witness_proximinal_metric(graph: SimpleGraph, parts: Bipartition) -> FiniteSemimetricSpace:
    """A metric realizing a nonempty bipartite graph as proximinal.

    Adjacent vertices sit at distance 1, all other distinct pairs at 2, so
    dist(A, B) = 1 and the edges are exactly the best proximity pairs.
    """
    if not is_bipartite_with_parts(graph, parts):
        raise GraphError("graph is not bipartite with the given parts")
    if not graph.edges:
        raise GraphError("an empty bipartite graph has no proximinal witness metric")
    return adjacency_metric(graph)
