"""Path-proximinal graphs: verification and witnesses over the threshold graph.

A graph is path-proximinal for parts (A, B) and a semimetric d when A and B
are proximinal, the edges are exactly the pairs with d(x, y) <= dist(A, B),
and the graph is path-bipartite of (A, B).  `spaces` builds that threshold
graph from its integer table, and this module re-exports it.  The module also
covers the structural reachability conditions, the characterization through
isolated vertices, the overlap with proximinal graphs, and the degree-one
witness of ultrametric realizations with Corollary 3.12.  Corollary 3.11's
four statements are checked where its certificates are built, in sweep t3.10.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .bepaths import find_path_bipartite_partition, is_path_bipartite, path_bipartite_defect, quotient_graph
from .graphs import Bipartition, GraphError, SimpleGraph, connected_components, require_cover
from .proximinal import adjacency_metric, require_same_points, verify_proximinal_graph
from .spaces import FiniteSemimetricSpace, build_threshold_graph, proximity_report, set_distance


def path_proximinal_defect(graph: SimpleGraph, parts: Bipartition, space: FiniteSemimetricSpace) -> Optional[tuple]:
    """None iff path-proximinal, else the first failing condition: A ∪ B leaves vertices out,
    ("threshold",) when the edges differ from the threshold graph at dist(A, B), or the
    path-bipartite defect.  Both parts are proximinal, as every nonempty finite subset is."""
    require_same_points(graph, parts, space)
    if parts.union == graph.vertices and graph != build_threshold_graph(space, parts):
        return ("threshold",)
    return path_bipartite_defect(graph, parts)  # the uncovered vertices come first


def verify_path_proximinal(graph: SimpleGraph, parts: Bipartition, space: FiniteSemimetricSpace) -> bool:
    """Full check of the path-proximinal property: `path_proximinal_defect` finds none."""
    return path_proximinal_defect(graph, parts, space) is None


def check_structural_conditions(space: FiniteSemimetricSpace, parts: Bipartition) -> bool:
    """Reachability of the best-proximity core inside each part.

    True iff inside the threshold graph every point of A \\ A0 reaches A0
    through a path lying in the part A, and symmetrically for B.  This is
    equivalent to the threshold graph being path-bipartite of (A, B).
    """
    quotient = quotient_graph(build_threshold_graph(space, parts), parts)
    report = proximity_report(space, parts)
    return all(block & report.a0 for block in quotient.a_components) and \
        all(block & report.b0 for block in quotient.b_components)


def witness_metric_for_path_bipartite(
    graph: SimpleGraph, parts: Bipartition
) -> FiniteSemimetricSpace:
    """A {0,1,2}-valued metric making a path-bipartite graph path-proximinal.

    Adjacent vertices are at distance 1 and all other distinct pairs at 2,
    so dist(A, B) = 1 and the threshold graph reproduces the input edges.
    """
    if not is_path_bipartite(graph, parts):
        raise GraphError("graph is not path-bipartite of the given parts")
    return adjacency_metric(graph)


@dataclass(frozen=True)
class PathProximinalCertificate:
    """A graph with parts and a space witnessing path-proximinality."""

    graph: SimpleGraph
    parts: Bipartition
    space: FiniteSemimetricSpace

    def verify(self) -> bool:
        return verify_path_proximinal(self.graph, self.parts, self.space)


def is_path_proximinal_graph(graph: SimpleGraph) -> Optional[PathProximinalCertificate]:
    """Certificate that the graph is path-proximinal, or None.

    A certificate exists iff the graph has no isolated vertices; it pairs
    the canonical path-bipartite partition with the {0,1,2} witness metric
    and verifies (sweep `t3.16` checks every one it builds).
    """
    parts = find_path_bipartite_partition(graph)
    if parts is None:
        return None
    return PathProximinalCertificate(graph, parts, adjacency_metric(graph))


def check_prop_3_22(
    graph: SimpleGraph, parts: Bipartition, space: FiniteSemimetricSpace
) -> bool:
    """For a proximinal graph: is every vertex in a best proximity pair?

    True iff A0 = A and B0 = B, which holds exactly when the graph has no
    isolated vertices (and is then also path-proximinal for some metric).
    """
    if not verify_proximinal_graph(graph, parts, space):
        raise GraphError("inputs do not form a proximinal graph certificate")
    report = proximity_report(space, parts)
    return report.a0 == parts.a and report.b0 == parts.b


def check_within_part_separation(space: FiniteSemimetricSpace, parts: Bipartition) -> bool:
    """True iff all distinct same-part pairs are strictly farther than dist(A, B)."""
    require_cover(space.point_set(), parts, "point set")
    threshold = set_distance(space, parts.a, parts.b)
    return all(space.d(x, y) > threshold for part in (parts.a, parts.b) for x, y in combinations(part, 2))


def all_degrees_one(graph: SimpleGraph) -> bool:
    """True iff every vertex has exactly one neighbor: the 2|E| edge ends are distinct and cover V."""
    touched = {w for e in graph.edges for w in e}
    return bool(touched) and 2 * len(graph.edges) == len(touched) == len(graph.vertices)


def witness_ultrametric(graph: SimpleGraph) -> Optional[PathProximinalCertificate]:
    """Ultrametric certificate for a graph where every degree equals one.

    Parts are chosen deterministically (per edge: smaller label to A), the
    space puts matched pairs at distance 1 and everything else at 2.  No
    vertex has two distance-1 neighbors, so the strong triangle inequality
    holds and the certificate verifies (sweep `t3.10` checks every one it
    builds).  Returns None when some degree differs from one, since no
    ultrametric certificate can exist then.
    """
    if not all_degrees_one(graph):
        return None
    a = frozenset(e[0] for e in graph.edges)
    return PathProximinalCertificate(graph, Bipartition(a, graph.vertices - a), adjacency_metric(graph))


def check_corollary_3_12(graph: SimpleGraph) -> bool:
    """True iff every connected component has exactly two vertices."""
    return bool(graph.vertices) and all(len(block) == 2 for block in connected_components(graph))
