"""Equivalence sweeps: exhaustive and randomized checks of the core results.

Each sweep pits an implemented decision procedure against an independent
route (brute-force enumeration, direct axiom scans, or a second
characterization) over a family of small instances, and reports the first
counterexample if any.  Sweep ids follow the short names used by the
command-line `verify` subcommand.

A sweep is a generator yielding, per instance, the problems found on it
(empty when the two routes agree); one driver counts the instances and
collects the counterexamples.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from .bepaths import (
    be_paths_from_a,
    bpath_pairs,
    find_path_bipartite_partition,
    is_path_bipartite,
    is_path_complete,
    pairs_from_witnesses,
    union_of_be_paths,
)
from .graphs import (
    Bipartition,
    SimpleGraph,
    induced_components,
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
    build_space,
    check_theorem_2_1,
    classify,
)

Progress = Optional[Callable[[int], None]]
Problems = Iterable[list[str]]  # per instance: its counterexamples, [] when the routes agree
Subject = TypeVar("Subject", SimpleGraph, FiniteSemimetricSpace)


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
        out.append(f"counterexamples: {len(self.counterexamples)}")
        if self.counterexamples:
            out.append(f"first counterexample: {self.counterexamples[0]}")
        return out


def _run(sweep: str, problems: Problems, progress: Progress) -> SweepResult:
    """Count each instance `problems` yields, keep its counterexamples, report every 1000."""
    result = SweepResult(sweep)
    for found in problems:
        result.checked += 1
        result.counterexamples.extend(found)
        if progress is not None and result.checked % 1000 == 0:
            progress(result.checked)
    return result


def _describe(
    subject: SimpleGraph | FiniteSemimetricSpace, parts: Optional[Bipartition] = None
) -> str:
    if isinstance(subject, FiniteSemimetricSpace):  # d(i, j) = rows[i][j] / scale, enough for `build_space`
        txt = f"points={subject.points} scale={subject.scale} rows={subject.rows}"
    else:
        txt = f"G(V={subject.sorted_vertices()}, E={subject.sorted_edges()})"
    if parts is not None:
        txt += f" A={sorted(parts.a)} B={sorted(parts.b)}"
    return txt


def _compare(instance: tuple, names: tuple[str, str], values: tuple[bool, bool]) -> list[str]:
    """No problem when the two routes agree, else one naming both routes' answers."""
    if values[0] == values[1]:
        return []
    return [f"{_describe(*instance)}: {names[0]}={values[0]}, {names[1]}={values[1]}"]


def _labeled_graphs(max_n: int, min_n: int = 1) -> Iterator[SimpleGraph]:
    """Every labeled graph on min_n..max_n vertices; each n is checked before the first graph."""
    return chain.from_iterable([enumerate_labeled_graphs(n) for n in range(min_n, max_n + 1)])


def _random_spaces(
    make_space: Callable[[int, int], FiniteSemimetricSpace], count: int, max_points: int, seed: int
) -> Iterator[FiniteSemimetricSpace]:
    """`count` seeded spaces of 2..max_points points.

    Each space costs one `randint` and then one `randrange(2**32)` draw;
    `perfbench/workloads.py` replays these draws to predict instance counts.
    """
    rng = random.Random(seed)
    return (make_space(rng.randint(2, max_points), rng.randrange(2**32)) for _ in range(count))


def _with_bipartitions(subjects: Iterable[Subject]) -> Iterator[tuple[Subject, Bipartition]]:
    """Each graph or space with each bipartition of its labels; one subject, and its memos, alive at a time.

    The bipartitions of a label set are listed once, for every subject on it.
    """
    partitions: dict[frozenset[str], list[Bipartition]] = {}
    for subject in subjects:
        labels = subject.point_set() if isinstance(subject, FiniteSemimetricSpace) else subject.vertices
        if labels not in partitions:
            partitions[labels] = list(all_bipartitions(labels))
        for parts in partitions[labels]:
            yield subject, parts


def sweep_t3_9(max_n: int = 5, progress: Progress = None) -> SweepResult:
    """Path-bipartite decision vs. equality with the union of all be-paths."""
    return _run("t3.9", (
        _compare((graph, parts), ("decision", "union-oracle"),
                 (is_path_bipartite(graph, parts), union_of_be_paths(graph, parts) == graph))
        for graph, parts in _with_bipartitions(_labeled_graphs(max_n, 2))
    ), progress)


def sweep_t3_4(max_n: int = 5, progress: Progress = None) -> SweepResult:
    """Quotient-based B_path vs. brute-force enumeration, plus block saturation."""
    def problems() -> Problems:
        for graph, parts in _with_bipartitions(_labeled_graphs(max_n, 2)):
            fast = bpath_pairs(graph, parts)
            oracle = pairs_from_witnesses(be_paths_from_a(graph, parts), parts)
            if fast != oracle:
                yield [f"{_describe(graph, parts)}: component-set {sorted(fast)} != enumerated {sorted(oracle)}"]
                continue
            # Statement 3: membership is all-or-nothing on component block pairs.
            a_comps = induced_components(graph, parts.a)
            b_comps = induced_components(graph, parts.b)
            found = []
            for a_block in a_comps:
                for b_block in b_comps:
                    inside = sum(1 for a in a_block for b in b_block if (a, b) in oracle)
                    if inside not in (0, len(a_block) * len(b_block)):
                        found.append(
                            f"{_describe(graph, parts)}: block pair {sorted(a_block)} x {sorted(b_block)}"
                            f" only partially joinable ({inside} pairs)"
                        )
            yield found

    return _run("t3.4", problems(), progress)


def induced_bpath_pairs(graph: SimpleGraph, parts: Bipartition) -> frozenset[tuple[str, str]]:
    """B_path by the induced form of the component criterion.

    A block A1 of G[A] and a block B1 of G[B] are joinable iff G[A1 ∪ B1] is
    connected.  This costs O(k_A·k_B·(V+E)) and is kept only as the
    independent side of sweep t3.6 and of the `bpath_pairs` property tests;
    `bpath_pairs` reads the same set off the component quotient.  Each
    induced subgraph is split once per host graph (`induced_components`).
    """
    a_comps = induced_components(graph, parts.a)
    b_comps = induced_components(graph, parts.b)
    return frozenset(
        (a, b)
        for a_block in a_comps
        for b_block in b_comps
        if len(induced_components(graph, a_block | b_block)) == 1
        for a in a_block
        for b in b_block
    )


def sweep_t3_6(max_n: int = 5, progress: Progress = None) -> SweepResult:
    """Quotient completeness vs. induced connectivity of every block pair."""
    return _run("t3.6", (
        _compare((graph, parts), ("quotient-complete", "blocks-induce-connected"),
                 (is_path_complete(graph, parts),
                  len(induced_bpath_pairs(graph, parts)) == len(parts.a) * len(parts.b)))
        for graph, parts in _with_bipartitions(_labeled_graphs(max_n, 2))
    ), progress)


def sweep_c2_9(max_n: int = 5, progress: Progress = None) -> SweepResult:
    """With a singleton part, connectivity and path-completeness coincide."""
    return _run("c2.9", (
        _compare((graph, parts), ("connected", "path-complete"),
                 (is_connected(graph), is_path_complete(graph, parts)))
        for graph, parts in _with_bipartitions(_labeled_graphs(max_n, 2))
        if min(len(parts.a), len(parts.b)) == 1 and is_path_bipartite(graph, parts)
    ), progress)


def sweep_c3_10(max_n: int = 6, progress: Progress = None) -> SweepResult:
    """A path-bipartite partition exists exactly when no vertex is isolated."""
    def problems() -> Problems:
        for graph in _labeled_graphs(max_n):
            parts = find_path_bipartite_partition(graph)
            unpruned = bool(graph.edges) and prune_isolated(graph) == graph
            found = _compare((graph,), ("partition-found", "equals-pruned"), (parts is not None, unpruned))
            if not found and parts is not None and not is_path_bipartite(graph, parts):
                found = [f"{_describe(graph, parts)}: returned partition is not path-bipartite"]
            yield found

    return _run("c3.10", problems(), progress)


def sweep_t3_16(max_n: int = 6, progress: Progress = None) -> SweepResult:
    """Certificates exist exactly for graphs without isolated vertices."""
    def problems() -> Problems:
        for graph in _labeled_graphs(max_n):
            certificate = is_path_proximinal_graph(graph)
            found = _compare((graph,), ("certificate", "no-isolated-vertices"),
                             (certificate is not None, not graph.isolated_vertices()))
            if not found and certificate is not None and not certificate.verify():
                found = [f"{_describe(graph)}: produced certificate fails verification"]
            yield found

    return _run("t3.16", problems(), progress)


def sweep_c3_12(max_n: int = 6, progress: Progress = None) -> SweepResult:
    """All components of size two iff every degree equals one."""
    return _run("c3.12", (
        _compare((graph,), ("components-of-2", "degrees-one"),
                 (check_corollary_3_12(graph), all_degrees_one(graph)))
        for graph in _labeled_graphs(max_n)
    ), progress)


def sweep_p3_22(max_n: int = 5, progress: Progress = None) -> SweepResult:
    """Saturation of the best-proximity core iff no isolated vertices."""
    return _run("p3.22", (
        _compare((graph, parts), ("saturated", "no-isolated"),
                 (check_prop_3_22(graph, parts, witness_proximinal_metric(graph, parts)),
                  not graph.isolated_vertices()))
        for graph, parts in _with_bipartitions(_labeled_graphs(max_n, 2))
        if graph.edges and is_bipartite_with_parts(graph, parts)
    ), progress)


def _perturbed_within_part(
    space: FiniteSemimetricSpace, parts: Bipartition, rng: random.Random
) -> Optional[FiniteSemimetricSpace]:
    """Copy of the space with one random same-part distance rewritten; the rows are copied at scale 1."""
    in_a = [p in parts.a for p in space.points]
    same_part_pairs = [(i, j) for i, j in combinations(range(space.size), 2) if in_a[i] == in_a[j]]
    if not same_part_pairs:
        return None
    i, j = rng.choice(same_part_pairs)
    value = rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)])
    assert space.scale == 1  # the witness metric: its rows are the distances
    table = [list(row) for row in space.rows]
    table[i][j] = table[j][i] = value
    return build_space(space.points, table)


def sweep_p3_9(
    max_n: int = 5, count: int = 3, seed: int = 0, progress: Progress = None
) -> SweepResult:
    """Path-proximinality iff strict within-part separation, for G = G'.

    Runs on the witness-metric family plus `count` random same-part
    perturbations per instance (cross distances stay untouched, so the
    proximinal-graph property is preserved).
    """
    def problems() -> Problems:
        rng = random.Random(seed)
        for graph, parts in _with_bipartitions(_labeled_graphs(max_n, 2)):
            if not graph.edges or graph.isolated_vertices() or not is_bipartite_with_parts(graph, parts):
                continue
            base = witness_proximinal_metric(graph, parts)
            spaces = [base]
            for _ in range(count):
                perturbed = _perturbed_within_part(base, parts, rng)
                if perturbed is not None:
                    spaces.append(perturbed)
            for space in spaces:
                if not verify_proximinal_graph(graph, parts, space):
                    yield [f"{_describe(graph, parts)}: perturbation broke the proximinal certificate"]
                    continue
                yield _compare((graph, parts), ("path-proximinal", "separation"),
                               (verify_path_proximinal(graph, parts, space),
                                check_within_part_separation(space, parts)))

    return _run("p3.9", problems(), progress)


def sweep_t2_1(
    count: int = 1000, max_points: int = 8, seed: int = 0, progress: Progress = None
) -> SweepResult:
    """Diameter bound vs. best-proximity saturation on random ultrametrics."""
    return _run("t2.1", (
        _compare((space, parts), ("stmt1", "stmt2"), check_theorem_2_1(space, parts))
        for space, parts in _with_bipartitions(_random_spaces(random_ultrametric_space, count, max_points, seed))
    ), progress)


def _every_degree_one(graph: SimpleGraph) -> bool:
    """The t3.10 side against `all_degrees_one`: every vertex gets one neighbour, none a second."""
    neighbour: dict[str, str] = {}
    for u, v in graph.edges:
        if u in neighbour or v in neighbour:
            return False
        neighbour[u], neighbour[v] = v, u
    return bool(neighbour) and neighbour.keys() == graph.vertices


def sweep_t3_10(
    max_n: int = 6,
    count: int = 500,
    max_points: int = 8,
    seed: int = 0,
    progress: Progress = None,
) -> SweepResult:
    """Degree-one graphs vs. ultrametric path-proximinal certificates.

    Forward: over all labeled graphs, the ultrametric witness succeeds
    exactly on the graphs where every degree is one, and `classify` finds
    its space ultrametric.  Backward: over seeded random
    ultrametric spaces and all bipartitions, whenever the threshold graph
    is bipartite with the parts and verifies path-proximinal, all its
    components have exactly two vertices.
    """
    def forward() -> Problems:
        for graph in _labeled_graphs(max_n):
            certificate = witness_ultrametric(graph)
            found = _compare((graph,), ("witness", "degrees-one"),
                             (certificate is not None, _every_degree_one(graph)))
            if found or certificate is None:
                yield found
            elif classify(certificate.space) is not SpaceClass.ULTRAMETRIC:
                yield [f"{_describe(graph)}: witness space fails the ultrametric scan"]
            elif not certificate.verify():
                yield [f"{_describe(graph)}: witness certificate fails verification"]
            elif not is_bipartite_with_parts(certificate.graph, certificate.parts):
                yield [f"{_describe(graph)}: witness parts are not a bipartition of the graph"]
            else:
                yield []

    fired = 0

    def backward() -> Problems:
        nonlocal fired
        for space, parts in _with_bipartitions(_random_spaces(random_ultrametric_space, count, max_points, seed)):
            graph = build_threshold_graph(space, parts)
            if not (is_bipartite_with_parts(graph, parts) and verify_path_proximinal(graph, parts, space)):
                yield []
                continue
            fired += 1
            yield [] if check_corollary_3_12(graph) else [
                f"{_describe(space, parts)}:"
                f" ultrametric path-proximinal threshold graph with a component != 2 vertices"
            ]

    result = _run("t3.10", chain(forward(), backward()), progress)
    result.notes.append(f"backward direction fired on {fired} (space, partition) instances")
    return result


def sweep_t3_5(
    count: int = 300, max_points: int = 7, seed: int = 0, progress: Progress = None
) -> SweepResult:
    """Core reachability vs. path-bipartiteness of the threshold graph."""
    return _run("t3.5", (
        _compare((space, parts), ("structural", "path-bipartite"),
                 (check_structural_conditions(space, parts),
                  is_path_bipartite(build_threshold_graph(space, parts), parts)))
        for space, parts in _with_bipartitions(_random_spaces(random_semimetric_space, count, max_points, seed))
    ), progress)


@dataclass(frozen=True)
class SweepSpec:
    run: Callable[..., SweepResult]

    @property
    def description(self) -> str:
        """The first line of the sweep's docstring."""
        return self.run.__doc__.splitlines()[0].rstrip(".")

    @property
    def parameters(self) -> frozenset[str]:
        """The bounds the sweep takes: every parameter of `run` but `progress`."""
        return frozenset(inspect.signature(self.run).parameters) - {"progress"}


SWEEPS: dict[str, SweepSpec] = {
    "t3.9": SweepSpec(sweep_t3_9),
    "t3.4": SweepSpec(sweep_t3_4),
    "t3.6": SweepSpec(sweep_t3_6),
    "c2.9": SweepSpec(sweep_c2_9),
    "c3.10": SweepSpec(sweep_c3_10),
    "t3.16": SweepSpec(sweep_t3_16),
    "c3.12": SweepSpec(sweep_c3_12),
    "p3.22": SweepSpec(sweep_p3_22),
    "p3.9": SweepSpec(sweep_p3_9),
    "t2.1": SweepSpec(sweep_t2_1),
    "t3.10": SweepSpec(sweep_t3_10),
    "t3.5": SweepSpec(sweep_t3_5),
}
