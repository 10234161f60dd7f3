"""Equivalence sweeps: exhaustive and randomized checks of the core results.

Each sweep pits an implemented decision procedure against an independent
route (brute-force enumeration, direct axiom scans, or a second
characterization) over a family of small instances, and reports the first
counterexample if any.  Sweep ids follow the short names used by the
command-line `verify` subcommand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .bepaths import (
    bpath_pairs,
    enumerate_be_paths,
    find_path_bipartite_partition,
    is_path_bipartite,
    is_path_complete,
    pairs_from_witnesses,
    union_of_be_paths,
)
from .graphs import (
    Bipartition,
    SimpleGraph,
    connected_components,
    induced_subgraph,
    is_connected,
    prune_isolated,
)
from .instances import (
    all_bipartitions,
    enumerate_labeled_graphs,
    random_semimetric_space,
    random_ultrametric_space,
)
from .path_proximinal import (
    all_degrees_one,
    build_threshold_graph,
    check_corollary_3_12,
    check_prop_3_22,
    check_structural_conditions,
    check_within_part_separation,
    is_path_proximinal_graph,
    verify_path_proximinal,
    witness_ultrametric,
)
from .proximinal import (
    is_bipartite_with_parts,
    verify_proximinal_graph,
    witness_proximinal_metric,
)
from .spaces import (
    FiniteSemimetricSpace,
    SpaceClass,
    check_theorem_2_1,
    classify,
)

Progress = Optional[Callable[[int], None]]


@dataclass
class SweepResult:
    sweep: str
    checked: int = 0
    counterexamples: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def lines(self) -> list[str]:
        out = [f"sweep {self.sweep}: checked {self.checked} instances"]
        out.extend(f"note: {n}" for n in self.notes)
        if self.counterexamples:
            out.append(f"counterexamples: {len(self.counterexamples)}")
            out.append(f"first counterexample: {self.counterexamples[0]}")
        else:
            out.append("counterexamples: 0")
        return out


class _Ticker:
    """Counts instances and reports every 1000 to an optional callback."""

    def __init__(self, result: SweepResult, progress: Progress):
        self.result = result
        self.progress = progress

    def tick(self) -> None:
        self.result.checked += 1
        if self.progress is not None and self.result.checked % 1000 == 0:
            self.progress(self.result.checked)


def _describe(graph: SimpleGraph, parts: Optional[Bipartition] = None) -> str:
    txt = f"G(V={graph.sorted_vertices()}, E={graph.sorted_edges()})"
    if parts is not None:
        txt += f" A={sorted(parts.a)} B={sorted(parts.b)}"
    return txt


def _graphs_and_partitions(max_n: int):
    for n in range(2, max_n + 1):
        graphs = list(enumerate_labeled_graphs(n))
        partitions = list(all_bipartitions(graphs[0].vertices))
        for graph in graphs:
            for parts in partitions:
                yield graph, parts


def sweep_t3_9(max_n: int = 5, progress: Progress = None) -> SweepResult:
    """Path-bipartite decision vs. equality with the union of all be-paths."""
    result = SweepResult("t3.9")
    ticker = _Ticker(result, progress)
    for graph, parts in _graphs_and_partitions(max_n):
        fast = is_path_bipartite(graph, parts)
        oracle = union_of_be_paths(graph, parts) == graph
        ticker.tick()
        if fast != oracle:
            result.counterexamples.append(
                f"{_describe(graph, parts)}: decision={fast}, union-oracle={oracle}"
            )
    return result


def sweep_t3_4(max_n: int = 5, progress: Progress = None) -> SweepResult:
    """Quotient-based B_path vs. brute-force enumeration, plus block saturation."""
    result = SweepResult("t3.4")
    ticker = _Ticker(result, progress)
    for graph, parts in _graphs_and_partitions(max_n):
        fast = bpath_pairs(graph, parts)
        oracle = pairs_from_witnesses(enumerate_be_paths(graph, parts), parts)
        ticker.tick()
        if fast != oracle:
            result.counterexamples.append(
                f"{_describe(graph, parts)}: component-set {sorted(fast)} != enumerated {sorted(oracle)}"
            )
            continue
        # Statement 3: membership is all-or-nothing on component block pairs.
        a_comps = connected_components(induced_subgraph(graph, parts.a))
        b_comps = connected_components(induced_subgraph(graph, parts.b))
        for a_block in a_comps:
            for b_block in b_comps:
                inside = sum(1 for a in a_block for b in b_block if (a, b) in oracle)
                if inside not in (0, len(a_block) * len(b_block)):
                    result.counterexamples.append(
                        f"{_describe(graph, parts)}: block pair {sorted(a_block)} x {sorted(b_block)}"
                        f" only partially joinable ({inside} pairs)"
                    )
    return result


def induced_bpath_pairs(graph: SimpleGraph, parts: Bipartition) -> frozenset[tuple[str, str]]:
    """B_path by the induced form of the component criterion.

    A block A1 of G[A] and a block B1 of G[B] are joinable iff G[A1 ∪ B1] is
    connected.  This costs O(k_A·k_B·(V+E)) and is kept only as the
    independent side of sweep t3.6 and of the `bpath_pairs` property tests;
    `bpath_pairs` reads the same set off the component quotient.
    """
    a_comps = connected_components(induced_subgraph(graph, parts.a))
    b_comps = connected_components(induced_subgraph(graph, parts.b))
    return frozenset(
        (a, b)
        for a_block in a_comps
        for b_block in b_comps
        if is_connected(induced_subgraph(graph, a_block | b_block))
        for a in a_block
        for b in b_block
    )


def sweep_t3_6(max_n: int = 5, progress: Progress = None) -> SweepResult:
    """Quotient completeness vs. induced connectivity of every block pair."""
    result = SweepResult("t3.6")
    ticker = _Ticker(result, progress)
    for graph, parts in _graphs_and_partitions(max_n):
        quotient_complete = is_path_complete(graph, parts)
        induced_complete = len(induced_bpath_pairs(graph, parts)) == len(parts.a) * len(parts.b)
        ticker.tick()
        if quotient_complete != induced_complete:
            result.counterexamples.append(
                f"{_describe(graph, parts)}: quotient-complete={quotient_complete},"
                f" blocks-induce-connected={induced_complete}"
            )
    return result


def sweep_c2_9(max_n: int = 5, progress: Progress = None) -> SweepResult:
    """With a singleton part, connectivity and path-completeness coincide."""
    result = SweepResult("c2.9")
    ticker = _Ticker(result, progress)
    for graph, parts in _graphs_and_partitions(max_n):
        if min(len(parts.a), len(parts.b)) != 1 or not is_path_bipartite(graph, parts):
            continue
        ticker.tick()
        connected = is_connected(graph)
        complete = is_path_complete(graph, parts)
        if connected != complete:
            result.counterexamples.append(
                f"{_describe(graph, parts)}: connected={connected}, path-complete={complete}"
            )
    return result


def sweep_c3_10(max_n: int = 6, progress: Progress = None) -> SweepResult:
    """A path-bipartite partition exists exactly when no vertex is isolated."""
    result = SweepResult("c3.10")
    ticker = _Ticker(result, progress)
    for n in range(1, max_n + 1):
        for graph in enumerate_labeled_graphs(n):
            ticker.tick()
            parts = find_path_bipartite_partition(graph)
            unpruned = bool(graph.edges) and prune_isolated(graph) == graph
            if (parts is not None) != unpruned:
                result.counterexamples.append(
                    f"{_describe(graph)}: partition-found={parts is not None},"
                    f" equals-pruned={unpruned}"
                )
            elif parts is not None and not is_path_bipartite(graph, parts):
                result.counterexamples.append(
                    f"{_describe(graph, parts)}: returned partition is not path-bipartite"
                )
    return result


def sweep_t3_16(max_n: int = 6, progress: Progress = None) -> SweepResult:
    """Certificates exist exactly for graphs without isolated vertices."""
    result = SweepResult("t3.16")
    ticker = _Ticker(result, progress)
    for n in range(1, max_n + 1):
        for graph in enumerate_labeled_graphs(n):
            ticker.tick()
            certificate = is_path_proximinal_graph(graph)
            clean = not graph.isolated_vertices()
            if (certificate is not None) != clean:
                result.counterexamples.append(
                    f"{_describe(graph)}: certificate={certificate is not None},"
                    f" no-isolated-vertices={clean}"
                )
            elif certificate is not None and not certificate.verify():
                result.counterexamples.append(
                    f"{_describe(graph)}: produced certificate fails verification"
                )
    return result


def sweep_c3_12(max_n: int = 6, progress: Progress = None) -> SweepResult:
    """All components of size two iff every degree equals one."""
    result = SweepResult("c3.12")
    ticker = _Ticker(result, progress)
    for n in range(1, max_n + 1):
        for graph in enumerate_labeled_graphs(n):
            ticker.tick()
            by_components = check_corollary_3_12(graph)
            by_degrees = all_degrees_one(graph)
            if by_components != by_degrees:
                result.counterexamples.append(
                    f"{_describe(graph)}: components-of-2={by_components}, degrees-one={by_degrees}"
                )
    return result


def sweep_p3_22(max_n: int = 5, progress: Progress = None) -> SweepResult:
    """Saturation of the best-proximity core iff no isolated vertices."""
    result = SweepResult("p3.22")
    ticker = _Ticker(result, progress)
    for graph, parts in _graphs_and_partitions(max_n):
        if not graph.edges or not is_bipartite_with_parts(graph, parts):
            continue
        ticker.tick()
        space = witness_proximinal_metric(graph, parts)
        saturated = check_prop_3_22(graph, parts, space)
        clean = not graph.isolated_vertices()
        if saturated != clean:
            result.counterexamples.append(
                f"{_describe(graph, parts)}: saturated={saturated}, no-isolated={clean}"
            )
    return result


def _perturbed_within_part(
    space: FiniteSemimetricSpace, parts: Bipartition, rng: random.Random
) -> Optional[FiniteSemimetricSpace]:
    """Copy of the space with one random same-part distance rewritten."""
    same_part_pairs = [
        (i, j)
        for i in range(space.size)
        for j in range(i + 1, space.size)
        if (space.points[i] in parts.a) == (space.points[j] in parts.a)
    ]
    if not same_part_pairs:
        return None
    i, j = rng.choice(same_part_pairs)
    value = rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)])
    rows = [list(row) for row in space.table]
    rows[i][j] = rows[j][i] = value
    return FiniteSemimetricSpace(space.points, tuple(tuple(r) for r in rows))


def sweep_p3_9(
    max_n: int = 5, count: int = 3, seed: int = 0, progress: Progress = None
) -> SweepResult:
    """Path-proximinality iff strict within-part separation, for G = G'.

    Runs on the witness-metric family plus `count` random same-part
    perturbations per instance (cross distances stay untouched, so the
    proximinal-graph property is preserved).
    """
    result = SweepResult("p3.9")
    ticker = _Ticker(result, progress)
    rng = random.Random(seed)
    for graph, parts in _graphs_and_partitions(max_n):
        if not graph.edges or graph.isolated_vertices():
            continue
        if not is_bipartite_with_parts(graph, parts):
            continue
        base = witness_proximinal_metric(graph, parts)
        spaces = [base]
        for _ in range(count):
            perturbed = _perturbed_within_part(base, parts, rng)
            if perturbed is not None:
                spaces.append(perturbed)
        for space in spaces:
            ticker.tick()
            if not verify_proximinal_graph(graph, parts, space):
                result.counterexamples.append(
                    f"{_describe(graph, parts)}: perturbation broke the proximinal certificate"
                )
                continue
            left = verify_path_proximinal(graph, parts, space)
            right = check_within_part_separation(space, parts)
            if left != right:
                result.counterexamples.append(
                    f"{_describe(graph, parts)}: path-proximinal={left}, separation={right}"
                )
    return result


def sweep_t2_1(
    count: int = 1000, max_points: int = 8, seed: int = 0, progress: Progress = None
) -> SweepResult:
    """Diameter bound vs. best-proximity saturation on random ultrametrics."""
    result = SweepResult("t2.1")
    ticker = _Ticker(result, progress)
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, max_points)
        space = random_ultrametric_space(n, rng.randrange(2**32))
        for parts in all_bipartitions(space.point_set()):
            ticker.tick()
            stmt1, stmt2 = check_theorem_2_1(space, parts)
            if stmt1 != stmt2:
                result.counterexamples.append(
                    f"points={space.points} A={sorted(parts.a)} B={sorted(parts.b)}:"
                    f" stmt1={stmt1}, stmt2={stmt2}"
                )
    return result


def sweep_t3_10(
    max_n: int = 6,
    count: int = 500,
    max_points: int = 8,
    seed: int = 0,
    progress: Progress = None,
) -> SweepResult:
    """Degree-one graphs vs. ultrametric path-proximinal certificates.

    Forward: over all labeled graphs, the ultrametric witness succeeds
    exactly on the graphs where every degree is one, and its space passes
    the exhaustive strong-triangle scan.  Backward: over seeded random
    ultrametric spaces and all bipartitions, whenever the threshold graph
    is bipartite with the parts and verifies path-proximinal, all its
    components have exactly two vertices.
    """
    result = SweepResult("t3.10")
    ticker = _Ticker(result, progress)
    for n in range(1, max_n + 1):
        for graph in enumerate_labeled_graphs(n):
            ticker.tick()
            certificate = witness_ultrametric(graph)
            matching = all_degrees_one(graph)
            if (certificate is not None) != matching:
                result.counterexamples.append(
                    f"{_describe(graph)}: witness={certificate is not None}, degrees-one={matching}"
                )
                continue
            if certificate is not None:
                if classify(certificate.space) is not SpaceClass.ULTRAMETRIC:
                    result.counterexamples.append(
                        f"{_describe(graph)}: witness space fails the ultrametric scan"
                    )
                elif not certificate.verify():
                    result.counterexamples.append(
                        f"{_describe(graph)}: witness certificate fails verification"
                    )
                elif not is_bipartite_with_parts(certificate.graph, certificate.parts):
                    result.counterexamples.append(
                        f"{_describe(graph)}: witness parts are not a bipartition of the graph"
                    )
    fired = 0
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, max_points)
        space = random_ultrametric_space(n, rng.randrange(2**32))
        for parts in all_bipartitions(space.point_set()):
            ticker.tick()
            graph = build_threshold_graph(space, parts)
            if not is_bipartite_with_parts(graph, parts):
                continue
            if not verify_path_proximinal(graph, parts, space):
                continue
            fired += 1
            if not check_corollary_3_12(graph):
                result.counterexamples.append(
                    f"points={space.points} A={sorted(parts.a)} B={sorted(parts.b)}:"
                    f" ultrametric path-proximinal threshold graph with a component != 2 vertices"
                )
    result.notes.append(f"backward direction fired on {fired} (space, partition) instances")
    return result


def sweep_t3_5(
    count: int = 300, max_points: int = 7, seed: int = 0, progress: Progress = None
) -> SweepResult:
    """Core reachability vs. path-bipartiteness of the threshold graph."""
    result = SweepResult("t3.5")
    ticker = _Ticker(result, progress)
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, max_points)
        space = random_semimetric_space(n, rng.randrange(2**32))
        for parts in all_bipartitions(space.point_set()):
            ticker.tick()
            structural = check_structural_conditions(space, parts)
            bipartite = is_path_bipartite(build_threshold_graph(space, parts), parts)
            if structural != bipartite:
                result.counterexamples.append(
                    f"points={space.points} A={sorted(parts.a)} B={sorted(parts.b)}:"
                    f" structural={structural}, path-bipartite={bipartite}"
                )
    return result


@dataclass(frozen=True)
class SweepSpec:
    run: Callable[..., SweepResult]
    description: str
    exhaustive: bool  # accepts max_n
    randomized: bool  # accepts count/seed


SWEEPS: dict[str, SweepSpec] = {
    "t3.9": SweepSpec(sweep_t3_9, "path-bipartite decision vs. union of be-paths", True, False),
    "t3.4": SweepSpec(sweep_t3_4, "component B_path vs. enumeration oracle", True, False),
    "t3.6": SweepSpec(sweep_t3_6, "path-completeness vs. quotient completeness", True, False),
    "c2.9": SweepSpec(sweep_c2_9, "singleton part: connected iff path-complete", True, False),
    "c3.10": SweepSpec(sweep_c3_10, "canonical partition exists iff no isolated vertices", True, False),
    "t3.16": SweepSpec(sweep_t3_16, "path-proximinal certificate iff no isolated vertices", True, False),
    "c3.12": SweepSpec(sweep_c3_12, "components of size two iff all degrees one", True, False),
    "p3.22": SweepSpec(sweep_p3_22, "proximity core saturation iff no isolated vertices", True, False),
    "p3.9": SweepSpec(sweep_p3_9, "path-proximinality iff within-part separation", True, True),
    "t2.1": SweepSpec(sweep_t2_1, "diameter bound iff best-proximity saturation", False, True),
    "t3.10": SweepSpec(sweep_t3_10, "degree-one iff ultrametric path-proximinal", True, True),
    "t3.5": SweepSpec(sweep_t3_5, "core reachability iff threshold graph path-bipartite", False, True),
}
