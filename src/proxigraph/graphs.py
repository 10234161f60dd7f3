"""Finite simple graphs with deterministic, label-ordered operations.

Vertices are identified by their label text.  All tie-breaking (component
ordering, BFS expansion, canonical representatives) uses lexicographic label
order so that every derived object is reproducible.

A graph keeps what the bipartitions of an exhaustive sweep ask of it again, each
split by the one merge-by-size kernel `component_roots`: its blocks, which every
whole-graph component question reads (`connected_components`, `is_connected`),
the blocks of each induced subgraph G[S] per vertex set S (`induced_components`,
read by the oracles), and the quotient per pair of parts (`bepaths.quotient_graph`,
read by the fast routes).  All live as long as the graph object, so a sweep that
holds one graph at a time holds one graph's memo at a time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence


class cached_attribute:
    """`functools.cached_property` without its lock: the first read computes the value
    and stores it in the instance `__dict__`, where every later read finds it first.
    Python 3.11 takes that lock on every first read, which makes the read about three times as costly."""

    def __init__(self, compute) -> None:
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


class GraphError(ValueError):
    """Malformed graph, partition, or path sequence."""


def check_label(label: object) -> str:
    """Validate a vertex label: nonempty text token without whitespace (`str.split` splits at `str.isspace`)."""
    if not isinstance(label, str) or label.split() != [label]:
        raise GraphError(f"bad vertex label {label!r}: need a nonempty token without whitespace")
    return label


def edge_key(u: str, v: str) -> tuple[str, str]:
    """Canonical (sorted) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph: no loops, no duplicate edges.

    Edges are stored as sorted label pairs; equality is structural set
    equality.  Instances are immutable and safe to share.
    """

    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]

    @cached_attribute
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        """Neighbor lists in ascending label order."""
        nbrs: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in nbrs.items()}

    @cached_attribute
    def _blocks(self) -> dict[str, frozenset[str]]:
        """The blocks `component_roots` finds in the graph; every whole-graph component question reads them."""
        return component_roots(self.vertices, self.edges)

    @cached_attribute
    def _induced(self) -> dict[frozenset[str], tuple[frozenset[str], ...]]:
        return {}  # per vertex set S: the blocks of G[S], filled by `induced_components`

    @cached_attribute
    def _quotients(self) -> dict[tuple[frozenset[str], frozenset[str]], object]:
        return {}  # per validated (A, B), both orders: the `QuotientGraph` that `bepaths.quotient_graph` returns

    def has_edge(self, u: str, v: str) -> bool:
        return edge_key(u, v) in self.edges

    def isolated_vertices(self) -> frozenset[str]:
        return self.vertices.difference(chain.from_iterable(self.edges))

    def sorted_vertices(self) -> list[str]:
        return sorted(self.vertices)

    def sorted_edges(self) -> list[tuple[str, str]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class Bipartition:
    """Ordered pair (A, B) of disjoint nonempty vertex sets."""

    a: frozenset[str]
    b: frozenset[str]

    def __post_init__(self) -> None:
        if not self.a or not self.b:
            raise GraphError("both parts of a bipartition must be nonempty")
        overlap = self.a & self.b
        if overlap:
            raise GraphError(f"parts overlap on {sorted(overlap)}")

    @classmethod
    def of(cls, a: Iterable[str], b: Iterable[str]) -> "Bipartition":
        return cls(frozenset(check_label(x) for x in a), frozenset(check_label(x) for x in b))

    @cached_attribute
    def union(self) -> frozenset[str]:
        return self.a | self.b


def require_cover(vertices: frozenset[str], parts: Bipartition, what: str = "vertex set", exact: bool = True) -> None:
    """Raise GraphError unless A ∪ B is exactly `vertices` (with exact=False: lies inside it)."""
    if parts.union == vertices if exact else parts.union <= vertices:
        return
    extraneous = sorted(parts.union - vertices)
    if not exact:
        raise GraphError(f"partition mentions unknown vertices: {extraneous}")
    raise GraphError(
        f"parts must cover the {what} exactly; uncovered={sorted(vertices - parts.union)}, extraneous={extraneous}"
    )


def build_graph(vertices: Sequence[str], edges: Iterable[Sequence[str]]) -> SimpleGraph:
    """Build a validated simple graph from raw label lists.

    Edge pairs are normalized to sorted order and duplicates collapse.
    """
    seen: set[str] = set()
    for label in vertices:
        check_label(label)
        if label in seen:
            raise GraphError(f"duplicate vertex {label!r}")
        seen.add(label)
    edge_set: set[tuple[str, str]] = set()
    for pair in edges:
        if len(pair) != 2:
            raise GraphError(f"edge {list(pair)!r} must have exactly 2 endpoints")
        u, v = pair
        if u == v:
            raise GraphError(f"loop edge at vertex {u!r} is not allowed in a simple graph")
        for w in (u, v):
            if w not in seen:
                raise GraphError(f"unknown edge endpoint {w!r}")
        edge_set.add(edge_key(u, v))
    return SimpleGraph(frozenset(seen), frozenset(edge_set))


def _induced_edges(graph: SimpleGraph, s: frozenset[str]) -> Iterator[tuple[str, str]]:
    """The edges of G[S], checked: S is nonempty and inside the vertex set, else GraphError at the call."""
    if not s:
        raise GraphError("induced subgraph needs a nonempty vertex subset")
    if not s <= graph.vertices:
        raise GraphError(f"subset is not contained in the vertex set: {sorted(s - graph.vertices)}")
    return (e for e in graph.edges if e[0] in s and e[1] in s)


def induced_subgraph(graph: SimpleGraph, subset: Iterable[str]) -> SimpleGraph:
    """Subgraph on `subset` keeping every edge with both endpoints inside."""
    s = frozenset(subset)
    return SimpleGraph(s, frozenset(_induced_edges(graph, s)))


def induced_bipartite_subgraph(graph: SimpleGraph, parts: Bipartition) -> SimpleGraph:
    """Subgraph on A ∪ B keeping only the edges that meet both parts."""
    require_cover(graph.vertices, parts, exact=False)
    kept = frozenset(
        e
        for e in graph.edges
        if (e[0] in parts.a or e[1] in parts.a) and (e[0] in parts.b or e[1] in parts.b)
    )
    return SimpleGraph(parts.union, kept)


def component_roots(vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> dict[str, frozenset[str]]:
    """Blocks of the graph (vertices, edges) keyed by their smallest label, in label order.

    A vertex gets the set of its block when an edge first touches it; an edge between two
    blocks pours the smaller set into the larger, so a vertex moves O(log V) times.  A pass
    in label order keys each block by the first, hence smallest, vertex it meets and empties
    it for its later members; a vertex no edge touches becomes a singleton there.
    """
    block: dict[str, set[str]] = {}
    for u, v in edges:
        bu, bv = block.get(u), block.get(v)
        if bu is None:
            bu, bv, u, v = bv, bu, v, u  # now bu is None only when neither end has a block
        if bu is None:
            block[u] = block[v] = {u, v}
        elif bv is None:
            bu.add(v)
            block[v] = bu
        elif bu is not bv:
            if len(bu) < len(bv):
                bu, bv = bv, bu
            bu |= bv
            for w in bv:
                block[w] = bu
    blocks: dict[str, frozenset[str]] = {}
    for v in sorted(vertices):
        b = block.get(v)
        if b is None:
            blocks[v] = frozenset((v,))
        elif b:
            blocks[v] = frozenset(b)
            b.clear()
    return blocks


def connected_components(graph: SimpleGraph) -> list[frozenset[str]]:
    """Vertex blocks of the maximal connected subgraphs, ordered by smallest label."""
    return list(graph._blocks.values())


def induced_components(graph: SimpleGraph, subset: frozenset[str]) -> tuple[frozenset[str], ...]:
    """The blocks of `connected_components(induced_subgraph(graph, subset))`, kept per vertex set.

    Split by `component_roots` over the edges of G[S], with no subgraph built.
    The memo lives on the host graph: a set that recurs across the bipartitions
    of one graph (a part, or a block pair of the t3.6 oracle) is split once.
    """
    memo = graph._induced
    if subset not in memo:
        memo[subset] = tuple(component_roots(subset, _induced_edges(graph, subset)).values())
    return memo[subset]


def is_connected(graph: SimpleGraph) -> bool:
    """True iff the graph has exactly one connected component."""
    return len(connected_components(graph)) == 1


def prune_isolated(graph: SimpleGraph) -> SimpleGraph:
    """Drop all isolated vertices, keeping every edge.

    Undefined (an error) when the graph has no edges, since the result
    would have an empty vertex set.
    """
    if not graph.edges:
        raise GraphError("cannot prune an empty graph: every vertex is isolated")
    return SimpleGraph(frozenset(chain.from_iterable(graph.edges)), graph.edges)


def validate_path(graph: SimpleGraph, seq: Sequence[str]) -> tuple[str, ...]:
    """Check that `seq` is a simple path of `graph`; return it as a tuple.

    Paths have at least two pairwise-distinct vertices and consecutive
    vertices must be adjacent in the host graph.
    """
    seq = tuple(seq)
    if len(seq) < 2:
        raise GraphError(f"not a path: need at least 2 vertices, got {len(seq)}")
    unknown = [v for v in seq if v not in graph.vertices]
    if unknown:
        raise GraphError(f"not a path: unknown vertices {unknown}")
    if len(set(seq)) != len(seq):
        repeats = sorted({v for v in seq if seq.count(v) > 1})
        raise GraphError(f"not a path: repeated vertices {repeats}")
    for i in range(len(seq) - 1):
        if not graph.has_edge(seq[i], seq[i + 1]):
            raise GraphError(f"not a path: {seq[i]!r} and {seq[i + 1]!r} are not adjacent")
    return seq


def find_path(graph: SimpleGraph, u: str, v: str) -> Optional[tuple[str, ...]]:
    """Shortest path from u to v, or None if they are in different components.

    Deterministic: BFS expands neighbors in label order, so ties are always
    broken the same way.
    """
    for w in (u, v):
        if w not in graph.vertices:
            raise GraphError(f"unknown vertex {w!r}")
    if u == v:
        raise GraphError(f"path endpoints must differ, got {u!r} twice")
    parent: dict[str, Optional[str]] = {u: None}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            break
        for y in graph.adjacency[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    if v not in parent:
        return None
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])  # type: ignore[arg-type]
    return tuple(reversed(path))


def graph_union(graphs: Sequence[SimpleGraph]) -> SimpleGraph:
    """Union of vertex sets and edge sets over a nonempty list of graphs."""
    if not graphs:
        raise GraphError("union of an empty list of graphs is undefined")
    vertices: frozenset[str] = frozenset()
    edges: frozenset[tuple[str, str]] = frozenset()
    for g in graphs:
        vertices |= g.vertices
        edges |= g.edges
    return SimpleGraph(vertices, edges)
