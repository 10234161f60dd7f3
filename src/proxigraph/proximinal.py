"""Proximinal bipartite graphs: construction, verification, witness metric.

A bipartite graph with fixed parts (A, B) is proximinal for a space when A
and B are disjoint proximinal subsets and the edges are exactly the cross
pairs realizing dist(A, B).
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import Bipartition, GraphError, SimpleGraph, edge_key, require_cover
from .spaces import FiniteSemimetricSpace, is_proximinal, proximity_report, set_distance


def adjacency_metric(graph: SimpleGraph) -> FiniteSemimetricSpace:
    """The {0,1,2}-valued space on the vertices: 1 on edges, 2 on other distinct pairs."""
    pts = tuple(graph.sorted_vertices())
    zero, one, two = Fraction(0), Fraction(1), Fraction(2)
    table = tuple(
        tuple(zero if p == q else (one if graph.has_edge(p, q) else two) for q in pts)
        for p in pts
    )
    return FiniteSemimetricSpace(pts, table)


def is_bipartite_with_parts(graph: SimpleGraph, parts: Bipartition) -> bool:
    """True iff V(G) = A ∪ B and every edge joins A to B."""
    if graph.vertices != parts.union:
        return False
    return all((u in parts.a) != (v in parts.a) for u, v in graph.edges)


def build_proximinal_graph(space: FiniteSemimetricSpace, parts: Bipartition) -> SimpleGraph:
    """Graph on A ∪ B whose edges are the cross pairs at distance dist(A, B)."""
    require_cover(space.point_set(), parts, "point set")
    edges = frozenset(edge_key(x, y) for x, y in proximity_report(space, parts).pairs)
    return SimpleGraph(parts.union, edges)


def verify_proximinal_graph(
    graph: SimpleGraph, parts: Bipartition, space: FiniteSemimetricSpace
) -> bool:
    """Check the proximinal-graph property of (graph, parts) against a space."""
    if graph.vertices != space.point_set():
        raise GraphError("graph vertices and space points differ")
    if not is_bipartite_with_parts(graph, parts):
        return False
    if not (is_proximinal(space, parts.a) and is_proximinal(space, parts.b)):
        return False
    dist = set_distance(space, parts.a, parts.b)
    return all(
        graph.has_edge(x, y) == (space.d(x, y) == dist) for x in parts.a for y in parts.b
    )


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
