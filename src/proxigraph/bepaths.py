"""Be-paths, path-bipartite graphs, B_path, and the component quotient.

A be-path of disjoint sets (A, B) is a simple path inside A ∪ B containing
exactly one edge that meets both parts.  A graph is path-bipartite of
(A, B) when it is the union of such paths; equivalently, when A ∪ B covers
the vertices and every connected component meets both parts.

`bpath_pairs` reads the joinable cross pairs off the component quotient:
a block A1 of G[A] and a block B1 of G[B] are joinable exactly when G[A1 ∪ B1]
is connected, and since both blocks are connected that holds exactly when
some crossing edge joins them, so B_path costs O(V + E + |B_path|).  Two
independent routes check it: `enumerate_be_paths`, the exponential
brute-force oracle of sweep t3.4, and the induced-connectivity criterion
itself, kept in `theorems` as the oracle of sweep t3.6.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .graphs import (
    Bipartition,
    EMPTY_GRAPH,
    GraphError,
    SimpleGraph,
    connected_components,
    edge_key,
    find_path,
    induced_subgraph,
    require_cover,
    validate_path,
)

DEFAULT_ENUMERATION_BOUND = 10


@dataclass(frozen=True)
class BePathWitness:
    """A be-path plus the index of its unique part-crossing edge.

    `crossing_index` = i means the crossing edge is (path[i], path[i+1]).
    """

    path: tuple[str, ...]
    crossing_index: int

    @property
    def crossing_edge(self) -> tuple[str, str]:
        return edge_key(self.path[self.crossing_index], self.path[self.crossing_index + 1])


def is_be_path(
    graph: SimpleGraph, seq: tuple[str, ...] | list[str], parts: Bipartition
) -> Optional[BePathWitness]:
    """Witness if `seq` is a be-path of (A, B) in `graph`, else None.

    Raises GraphError when `seq` is not a simple path of the graph at all
    (repeated vertices or non-adjacent consecutive vertices).
    """
    path = validate_path(graph, seq)
    if not set(path) <= parts.union:
        return None
    crossings = [
        i for i in range(len(path) - 1) if (path[i] in parts.a) != (path[i + 1] in parts.a)
    ]
    if len(crossings) != 1:
        return None
    return BePathWitness(path, crossings[0])


def is_path_bipartite(graph: SimpleGraph, parts: Bipartition) -> bool:
    """True iff A ∪ B = V(G) and every component meets both parts."""
    if parts.union != graph.vertices or not graph.vertices:
        return False
    return all(block & parts.a and block & parts.b for block in connected_components(graph))


def bpath_pairs(graph: SimpleGraph, parts: Bipartition) -> frozenset[tuple[str, str]]:
    """All (a, b) in A × B joined by some be-path.

    Expands the quotient edges: (a, b) is joinable iff a crossing edge
    joins A1 and B1, where A1 is the component of a in G[A] and B1 the
    component of b in G[B].  Whole blocks A1 × B1 enter together.  The
    induced form of the criterion (G[A1 ∪ B1] connected) is the oracle of
    sweep t3.6, and `enumerate_be_paths` that of sweep t3.4.
    """
    quotient = quotient_graph(graph, parts)
    return frozenset(
        (a, b)
        for i, j in quotient.edges
        for a in quotient.a_components[i]
        for b in quotient.b_components[j]
    )


def be_path_witness(
    graph: SimpleGraph, parts: Bipartition, a: str, b: str
) -> Optional[BePathWitness]:
    """A concrete canonical be-path joining a ∈ A and b ∈ B, if one exists.

    Built as shortest-path segments inside G[A] and G[B] around the
    lexicographically smallest crossing edge between the two host
    components; always re-validates under `is_be_path`.
    """
    if a not in parts.a:
        raise GraphError(f"{a!r} is not in part A")
    if b not in parts.b:
        raise GraphError(f"{b!r} is not in part B")
    require_cover(graph.vertices, parts)
    g_a = induced_subgraph(graph, parts.a)
    g_b = induced_subgraph(graph, parts.b)
    a_block = next(blk for blk in connected_components(g_a) if a in blk)
    b_block = next(blk for blk in connected_components(g_b) if b in blk)
    crossing = sorted(
        e
        for e in graph.edges
        if (e[0] in a_block and e[1] in b_block) or (e[0] in b_block and e[1] in a_block)
    )
    if not crossing:
        return None
    edge = crossing[0]
    a0, b0 = (edge[0], edge[1]) if edge[0] in a_block else (edge[1], edge[0])
    seg_a = (a,) if a == a0 else find_path(induced_subgraph(graph, a_block), a, a0)
    seg_b = (b0,) if b == b0 else find_path(induced_subgraph(graph, b_block), b0, b)
    assert seg_a is not None and seg_b is not None  # same component by construction
    witness = is_be_path(graph, seg_a + seg_b, parts)
    assert witness is not None
    return witness


def enumerate_be_paths(
    graph: SimpleGraph, parts: Bipartition, max_vertices: int = DEFAULT_ENUMERATION_BOUND
) -> list[BePathWitness]:
    """Brute-force oracle: every be-path of (A, B), by depth-first extension.

    Reversed sequences count as distinct witnesses.  The search prunes any
    branch that already used two crossing edges, but is still exponential;
    `max_vertices` guards against oversized inputs.
    """
    if len(graph.vertices) > max_vertices:
        raise GraphError(
            f"graph has {len(graph.vertices)} vertices; enumeration is limited to {max_vertices}"
        )
    require_cover(graph.vertices, parts)
    adjacency = graph.adjacency
    in_a = parts.a
    out: list[BePathWitness] = []

    def extend(path: list[str], used: set[str], crossings: int, crossing_at: int) -> None:
        tip = path[-1]
        tip_in_a = tip in in_a
        for nxt in adjacency[tip]:
            if nxt in used:
                continue
            crossed = tip_in_a != (nxt in in_a)
            if crossings == 1 and crossed:
                continue
            path.append(nxt)
            used.add(nxt)
            if crossed:
                out.append(BePathWitness(tuple(path), len(path) - 2))
                extend(path, used, 1, len(path) - 2)
            else:
                if crossings == 1:
                    out.append(BePathWitness(tuple(path), crossing_at))
                extend(path, used, crossings, crossing_at)
            used.discard(nxt)
            path.pop()

    for start in sorted(graph.vertices):
        extend([start], {start}, 0, -1)
    return out


def union_of_be_paths(
    graph: SimpleGraph, parts: Bipartition, max_vertices: int = DEFAULT_ENUMERATION_BOUND
) -> SimpleGraph:
    """Union of all enumerated be-paths; equals the graph iff path-bipartite."""
    witnesses = enumerate_be_paths(graph, parts, max_vertices)
    if not witnesses:
        return EMPTY_GRAPH
    vertices: set[str] = set()
    edges: set[tuple[str, str]] = set()
    for w in witnesses:
        vertices.update(w.path)
        edges.update(edge_key(w.path[i], w.path[i + 1]) for i in range(len(w.path) - 1))
    return SimpleGraph(frozenset(vertices), frozenset(edges))


def pairs_from_witnesses(witnesses: list[BePathWitness], parts: Bipartition) -> frozenset[tuple[str, str]]:
    """Deduplicated (a, b) ∈ A × B endpoint pairs of enumerated be-paths."""
    pairs: set[tuple[str, str]] = set()
    for w in witnesses:
        u, v = w.path[0], w.path[-1]
        pairs.add((u, v) if u in parts.a else (v, u))
    return frozenset(pairs)


def is_path_complete(graph: SimpleGraph, parts: Bipartition) -> bool:
    """True iff every pair of A × B is joined by a be-path."""
    return is_quotient_complete_bipartite(quotient_graph(graph, parts))


@dataclass(frozen=True)
class QuotientGraph:
    """Bipartite graph on the components of G[A] and G[B].

    Component lists are ordered by smallest label; `edges` holds index
    pairs (i, j) joined whenever some cross pair of the two blocks lies in
    B_path, equivalently whenever a crossing edge of G joins the blocks.
    """

    a_components: tuple[frozenset[str], ...]
    b_components: tuple[frozenset[str], ...]
    edges: frozenset[tuple[int, int]]

    @cached_property
    def a_representatives(self) -> tuple[str, ...]:
        return tuple(min(block) for block in self.a_components)

    @cached_property
    def b_representatives(self) -> tuple[str, ...]:
        return tuple(min(block) for block in self.b_components)


def quotient_graph(graph: SimpleGraph, parts: Bipartition) -> QuotientGraph:
    """Contract the components of G[A] and G[B] and keep the B_path relation."""
    require_cover(graph.vertices, parts)
    a_comps = tuple(connected_components(induced_subgraph(graph, parts.a)))
    b_comps = tuple(connected_components(induced_subgraph(graph, parts.b)))
    a_of = {v: i for i, block in enumerate(a_comps) for v in block}
    b_of = {v: j for j, block in enumerate(b_comps) for v in block}
    edges = set()
    for u, v in graph.edges:
        if (u in parts.a) != (v in parts.a):
            x, y = (u, v) if u in parts.a else (v, u)
            edges.add((a_of[x], b_of[y]))
    return QuotientGraph(a_comps, b_comps, frozenset(edges))


def is_quotient_complete_bipartite(quotient: QuotientGraph) -> bool:
    """True iff every component pair is joined in the quotient."""
    return len(quotient.edges) == len(quotient.a_components) * len(quotient.b_components)


def find_path_bipartite_partition(graph: SimpleGraph) -> Optional[Bipartition]:
    """A canonical partition making the graph path-bipartite, if any exists.

    Exists iff the graph has at least one vertex and no isolated vertex:
    part A collects the smallest label of each component, part B the rest.
    """
    if not graph.vertices or graph.isolated_vertices():
        return None
    blocks = connected_components(graph)
    a = frozenset(min(block) for block in blocks)
    return Bipartition(a, graph.vertices - a)
