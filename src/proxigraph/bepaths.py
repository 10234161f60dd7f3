"""Be-paths, path-bipartite graphs, B_path, and the component quotient.

A be-path of disjoint sets (A, B) is a simple path inside A ∪ B containing
exactly one edge that meets both parts.  A graph is path-bipartite of
(A, B) when it is the union of such paths; equivalently, when A ∪ B covers
the vertices and every connected component meets both parts.

`bpath_pairs` reads the joinable cross pairs off the component quotient:
a block of G[A] and a block of G[B] are joinable exactly when some
crossing edge joins them, so B_path costs O(V + E + |B_path|).  It is
checked against the induced-connectivity criterion, kept in `theorems` for
sweep t3.6, and against brute force for sweeps t3.4 and t3.9: a lazy
depth-first search that sees each be-path once, from its end in A, read
only until the pair set or the union of paths is settled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .graphs import (
    Bipartition,
    GraphError,
    SimpleGraph,
    cached_attribute,
    component_roots,
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


def path_bipartite_defect(graph: SimpleGraph, parts: Bipartition) -> Optional[tuple]:
    """None iff path-bipartite, else ("uncovered", the vertices A ∪ B leaves out),
    or else ("A" or "B", the first component by smallest label that misses that part)."""
    if parts.union != graph.vertices:
        return "uncovered", graph.vertices - parts.union
    for block in graph._blocks.values():
        if block.isdisjoint(parts.a):
            return "A", block
        if block.isdisjoint(parts.b):
            return "B", block
    return None


def is_path_bipartite(graph: SimpleGraph, parts: Bipartition) -> bool:
    """True iff A ∪ B = V(G) and every component meets both parts."""
    return path_bipartite_defect(graph, parts) is None


def bpath_pairs(graph: SimpleGraph, parts: Bipartition) -> frozenset[tuple[str, str]]:
    """All (a, b) in A × B joined by some be-path.

    Expands the quotient edges: (a, b) is joinable iff a crossing edge
    joins A1 and B1, where A1 is the component of a in G[A] and B1 the
    component of b in G[B].  Whole blocks A1 × B1 enter together.  The
    induced form of the criterion (G[A1 ∪ B1] connected) is the oracle of
    sweep t3.6, and `pairs_from_witnesses` over `be_paths_from_a` that of
    sweep t3.4.
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
    quotient = quotient_graph(graph, parts)
    a_block = next(blk for blk in quotient.a_components if a in blk)
    b_block = next(blk for blk in quotient.b_components if b in blk)
    crossing = [e for e in graph.edges
                if len(a_block.intersection(e)) == len(b_block.intersection(e)) == 1]
    if not crossing:
        return None
    edge = min(crossing)
    a0, b0 = (edge[0], edge[1]) if edge[0] in a_block else (edge[1], edge[0])
    seg_a = (a,) if a == a0 else find_path(induced_subgraph(graph, a_block), a, a0)
    seg_b = (b0,) if b == b0 else find_path(induced_subgraph(graph, b_block), b0, b)
    assert seg_a is not None and seg_b is not None  # same component by construction
    witness = is_be_path(graph, seg_a + seg_b, parts)
    assert witness is not None
    return witness


def _be_path_search(
    graph: SimpleGraph, parts: Bipartition, starts: list[str]
) -> Iterator[BePathWitness]:
    """Lazy depth-first core: every be-path from each start in turn, neighbors in label order.

    Prunes a branch that would cross twice; checks bound and cover at the call.
    """
    if len(graph.vertices) > DEFAULT_ENUMERATION_BOUND:
        raise GraphError(
            f"graph has {len(graph.vertices)} vertices; enumeration is limited to {DEFAULT_ENUMERATION_BOUND}"
        )
    require_cover(graph.vertices, parts)
    adjacency, in_a = graph.adjacency, parts.a

    def search() -> Iterator[BePathWitness]:
        for start in starts:
            path, stack = [start], [(iter(adjacency[start]), -1)]  # per prefix: untried, crossing index
            while stack:
                untried, at = stack[-1]
                for nxt in untried:
                    crossed = (path[-1] in in_a) != (nxt in in_a)
                    if nxt in path or (crossed and at >= 0):
                        continue
                    at = len(path) - 1 if crossed else at
                    path.append(nxt)
                    stack.append((iter(adjacency[nxt]), at))
                    if at >= 0:
                        yield BePathWitness(tuple(path), at)
                    break
                else:
                    del stack[-1], path[-1]

    return search()


def enumerate_be_paths(graph: SimpleGraph, parts: Bipartition) -> list[BePathWitness]:
    """Brute-force oracle: every be-path of (A, B), once from each end."""
    return list(_be_path_search(graph, parts, sorted(graph.vertices)))


def be_paths_from_a(graph: SimpleGraph, parts: Bipartition) -> Iterator[BePathWitness]:
    """Every be-path exactly once, lazily, read from its end in A; its other end is in B."""
    return _be_path_search(graph, parts, sorted(parts.a))


def union_of_be_paths(graph: SimpleGraph, parts: Bipartition) -> SimpleGraph:
    """Union of all be-paths, read until every edge is covered; equals G iff path-bipartite."""
    edges: set[tuple[str, str]] = set()
    for w in be_paths_from_a(graph, parts):
        edges.update(map(edge_key, w.path, w.path[1:]))
        if len(edges) == len(graph.edges):
            break
    return SimpleGraph(frozenset(v for e in edges for v in e), frozenset(edges))


def pairs_from_witnesses(witnesses: Iterable[BePathWitness], parts: Bipartition) -> frozenset[tuple[str, str]]:
    """Deduplicated (a, b) ∈ A × B endpoint pairs of be-paths, read until all are found."""
    pairs: set[tuple[str, str]] = set()
    for w in witnesses:
        u, v = w.path[0], w.path[-1]
        pairs.add((u, v) if u in parts.a else (v, u))
        if len(pairs) == len(parts.a) * len(parts.b):
            break
    return frozenset(pairs)


def is_path_complete(graph: SimpleGraph, parts: Bipartition) -> bool:
    """True iff every pair of A × B is joined by a be-path."""
    return is_quotient_complete_bipartite(quotient_graph(graph, parts))


def path_complete_defect(graph: SimpleGraph, parts: Bipartition) -> Optional[tuple]:
    """None iff path-complete, else ("unjoined", how many pairs of A × B no be-path joins, the first).

    B_path is a union of whole block pairs (Theorem 3.4), and blocks are in
    label order: the first pair joins the smallest label of the first A-block
    that some B-block misses to that of the first B-block it misses.
    """
    q = quotient_graph(graph, parts)
    joined = sum(len(q.a_components[i]) * len(q.b_components[j]) for i, j in q.edges)
    first = next(((a, b) for i, a in enumerate(q.a_representatives) for j, b in enumerate(q.b_representatives)
                  if (i, j) not in q.edges), None)  # after at most |edges| + |B-blocks| steps
    return None if first is None else ("unjoined", len(parts.a) * len(parts.b) - joined, first)


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

    @cached_attribute
    def a_representatives(self) -> tuple[str, ...]:
        return tuple(min(block) for block in self.a_components)

    @cached_attribute
    def b_representatives(self) -> tuple[str, ...]:
        return tuple(min(block) for block in self.b_components)


def quotient_graph(graph: SimpleGraph, parts: Bipartition) -> QuotientGraph:
    """Contract the components of G[A] and G[B] and keep the B_path relation.

    One union-find pass over the within-part edges yields the blocks of
    both parts; the crossing edges then join their blocks.
    """
    require_cover(graph.vertices, parts)
    in_a = parts.a
    within = (e for e in graph.edges if (e[0] in in_a) == (e[1] in in_a))
    blocks = component_roots(graph.vertices, within)
    a_comps = tuple(block for r, block in blocks.items() if r in in_a)
    b_comps = tuple(block for r, block in blocks.items() if r not in in_a)
    a_of = {v: i for i, block in enumerate(a_comps) for v in block}
    b_of = {v: j for j, block in enumerate(b_comps) for v in block}
    edges = set()
    for u, v in graph.edges:
        if (u in in_a) != (v in in_a):
            x, y = (u, v) if u in in_a else (v, u)
            edges.add((a_of[x], b_of[y]))
    return QuotientGraph(a_comps, b_comps, frozenset(edges))


def is_quotient_complete_bipartite(quotient: QuotientGraph) -> bool:
    """True iff every component pair is joined in the quotient."""
    return len(quotient.edges) == len(quotient.a_components) * len(quotient.b_components)


def find_path_bipartite_partition(graph: SimpleGraph) -> Optional[Bipartition]:
    """A canonical partition making the graph path-bipartite, if any exists.

    Exists iff the graph has at least one vertex and no isolated vertex, that
    is no block of one vertex: part A collects the smallest label of each
    component, part B the rest.
    """
    if not graph.vertices or any(len(block) == 1 for block in graph._blocks.values()):
        return None
    a = frozenset(graph._blocks)  # the smallest label of each block
    return Bipartition(a, graph.vertices - a)
