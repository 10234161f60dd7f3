"""Equivalence sweeps: exhaustive and randomized checks of the core results.

Each sweep pits an implemented decision procedure against an independent
route (brute-force enumeration, direct axiom scans, or a second
characterization) over a family of small instances, and reports the first
counterexample if any.  Sweep ids follow the short names used by the
command-line `verify` subcommand.

Each sweep is declared once, on its `SWEEPS` entry: its instance family,
its fast route and oracle, and the functions on its fast side.  One driver,
`_run`, runs every entry, and the tests read the same entries.  Sweeps t3.4
and t3.9 run the be-path oracle once per unordered bipartition.
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
Check = Callable[[tuple, tuple[str, str], tuple], list[str]]  # (instance, names, answers) -> its problems
Sweep = Callable[..., "SweepResult"]
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


@dataclass(frozen=True)
class SweepSpec:
    """One sweep, declared once: `verify` calls `run`, `_run` runs the rest, and the tests read it."""

    run: Sweep  # sweep_<id>: the bounds as keywords, and `progress`
    family: Callable[..., Iterable[tuple]]  # bounds -> instance tuples
    fast: Callable[..., object]  # the fast route's answer on one instance
    oracle: Optional[Callable[..., object]]  # the independent answer; None when `fast` answers both
    names: tuple[str, str]  # the fast and oracle answers' names in a counterexample line
    routes: tuple[str, ...]  # module.name of every function on the fast side
    check: Optional[Check] = None  # replaces `_compare` on one instance's answers
    mirror: Optional[Callable] = None  # (B, A)'s oracle answer from (A, B)'s: once per complement pair

    @property
    def description(self) -> str:
        """The first line of the sweep's docstring."""
        return self.run.__doc__.splitlines()[0].rstrip(".")

    @property
    def parameters(self) -> frozenset[str]:
        """The bounds the sweep takes: every parameter of `run` but `progress`."""
        return frozenset(inspect.signature(self.run).parameters) - {"progress"}


# Filled by `_declared` below.  Each fast route and oracle reads its functions as module globals
# when called, so a function rebound in this module (a test stub, the benchmark's tracer) runs.
SWEEPS: dict[str, SweepSpec] = {}


def _declared(sweep: str, *spec, **optional) -> Callable[[Sweep], Sweep]:
    """Enter the decorated sweep_<id> function in `SWEEPS` under `sweep`, with the rest of its `SweepSpec`."""
    def enter(run: Sweep) -> Sweep:
        SWEEPS[sweep] = SweepSpec(run, *spec, **optional)
        return run
    return enter


def _run(sweep: str, progress: Progress, then: Problems = (), **bounds: int) -> SweepResult:
    """Run `SWEEPS[sweep]` on its family at `bounds`, then count each problem list of `then` as an instance.

    Each route runs once per instance; an oracle that mirrors runs once per complement pair.
    """
    spec = SWEEPS[sweep]
    fast, oracle, names, check = spec.fast, spec.oracle, spec.names, spec.check or _compare
    family = spec.family(**bounds)
    if spec.mirror is not None:
        compared = (check(instance, names, (fast(*instance), answer))
                    for instance, answer in _once_per_complement_pair(family, oracle, spec.mirror))
    elif oracle is None:  # the fast route answers both sides
        compared = (check(instance, names, fast(*instance)) for instance in family)
    else:
        compared = (check(instance, names, (fast(*instance), oracle(*instance))) for instance in family)
    result = SweepResult(sweep)
    for found in chain(compared, then):
        result.checked += 1
        result.counterexamples.extend(found)
        if progress is not None and result.checked % 1000 == 0:
            progress(result.checked)
    return result


def _describe(*instance: SimpleGraph | Bipartition | FiniteSemimetricSpace) -> str:
    """The instance's items in order, each enough to rebuild it; a space is d(i, j) = rows[i][j] / scale."""
    words = []
    for item in instance:
        if isinstance(item, FiniteSemimetricSpace):
            words.append(f"points={item.points} scale={item.scale} rows={item.rows}")
        elif isinstance(item, Bipartition):
            words.append(f"A={sorted(item.a)} B={sorted(item.b)}")
        else:
            words.append(f"G(V={item.sorted_vertices()}, E={item.sorted_edges()})")
    return " ".join(words)


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


def _ultrametric_pairs(count: int, seed: int) -> Iterator[tuple[FiniteSemimetricSpace, Bipartition]]:
    """`count` seeded ultrametrics of 2..8 points, each with each bipartition: t2.1's and t3.10's backward family."""
    return _with_bipartitions(_random_spaces(random_ultrametric_space, count, 8, seed))


def _graph_pairs(max_n: int) -> Iterator[tuple[SimpleGraph, Bipartition]]:
    """Every labeled graph on 2..max_n vertices with each bipartition of its vertices."""
    return _with_bipartitions(_labeled_graphs(max_n, 2))


def _graphs(max_n: int) -> Iterator[tuple[SimpleGraph]]:
    """Every labeled graph on 1..max_n vertices, as a one-item instance."""
    return zip(_labeled_graphs(max_n))


def _once_per_complement_pair(family: Iterable[tuple], oracle: Callable, mirror: Callable) -> Iterator[tuple]:
    """Each (graph, parts) instance with the be-path oracle's answer, run once per complement pair.

    A be-path of (B, A) is one of (A, B) read from the other end, so the order met second gets
    `mirror` of the first one's answer, kept by its A until then: at most 2ⁿ⁻¹ − 1 answers, one graph's.
    """
    current, mirrored = None, {}
    for instance in family:
        graph, parts = instance
        if graph is not current:
            current, mirrored = graph, {}
        if parts.a in mirrored:
            yield instance, mirrored.pop(parts.a)
        else:
            answer = oracle(graph, parts)
            mirrored[parts.b] = mirror(answer)
            yield instance, answer


def _certified(*tests: tuple[str, Callable[..., bool]]) -> Check:
    """A check: both sides agree that a certificate exists, and the one returned passes each (problem, test)."""
    def check(instance: tuple, names: tuple[str, str], answers: tuple) -> list[str]:
        certificate, expected = answers
        if (certificate is None) == expected:  # the two sides disagree
            return _compare(instance, names, (certificate is not None, expected))
        for problem, test in tests if certificate is not None else ():
            if not test(certificate):
                return [f"{_describe(*instance)}: {problem}"]
        return []
    return check


_BEPATHS_FAST = tuple(f"bepaths.{name}" for name in (
    "bpath_pairs", "quotient_graph", "is_quotient_complete_bipartite", "is_path_complete",
    "path_complete_defect", "is_path_bipartite", "path_bipartite_defect"))
_PATH_PROXIMINAL_FAST = ("path_proximinal.verify_path_proximinal", "path_proximinal.path_proximinal_defect")
_DEGREES_FAST = ("path_proximinal.all_degrees_one", "path_proximinal.witness_ultrametric")


@_declared("t3.9", _graph_pairs, lambda graph, parts: is_path_bipartite(graph, parts),
           lambda graph, parts: union_of_be_paths(graph, parts) == graph, ("decision", "union-oracle"),
           _BEPATHS_FAST, mirror=lambda same: same)
def sweep_t3_9(max_n: int = 5, progress: Progress = None) -> SweepResult:
    """Path-bipartite decision vs. equality with the union of all be-paths."""
    return _run("t3.9", progress, max_n=max_n)


def _check_t3_4(instance: tuple, names: tuple[str, str], answers: tuple) -> list[str]:
    """The two B_path sets agree, and membership is all-or-nothing on component block pairs (statement 3)."""
    (graph, parts), (fast, oracle) = instance, answers
    if fast != oracle:
        return [f"{_describe(graph, parts)}: {names[0]} {sorted(fast)} != {names[1]} {sorted(oracle)}"]
    a_comps, b_comps = induced_components(graph, parts.a), induced_components(graph, parts.b)
    return [f"{_describe(graph, parts)}: block pair {sorted(a_block)} x {sorted(b_block)}"
            f" only partially joinable ({inside} pairs)"
            for a_block in a_comps for b_block in b_comps
            for inside in [sum(1 for a in a_block for b in b_block if (a, b) in oracle)]
            if inside not in (0, len(a_block) * len(b_block))]


@_declared("t3.4", _graph_pairs, lambda graph, parts: bpath_pairs(graph, parts),
           lambda graph, parts: pairs_from_witnesses(be_paths_from_a(graph, parts), parts),
           ("component-set", "enumerated"), _BEPATHS_FAST, _check_t3_4,
           mirror=lambda pairs: frozenset((b, a) for a, b in pairs))
def sweep_t3_4(max_n: int = 5, progress: Progress = None) -> SweepResult:
    """Quotient-based B_path vs. brute-force enumeration, plus block saturation."""
    return _run("t3.4", progress, max_n=max_n)


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
    return frozenset((a, b) for a_block in a_comps for b_block in b_comps
                     if len(induced_components(graph, a_block | b_block)) == 1 for a in a_block for b in b_block)


@_declared("t3.6", _graph_pairs, lambda graph, parts: is_path_complete(graph, parts),
           lambda graph, parts: len(induced_bpath_pairs(graph, parts)) == len(parts.a) * len(parts.b),
           ("quotient-complete", "blocks-induce-connected"), _BEPATHS_FAST)
def sweep_t3_6(max_n: int = 5, progress: Progress = None) -> SweepResult:
    """Quotient completeness vs. induced connectivity of every block pair."""
    return _run("t3.6", progress, max_n=max_n)


@_declared("c2.9", lambda max_n: ((graph, parts) for graph, parts in _graph_pairs(max_n)
                                  if min(len(parts.a), len(parts.b)) == 1 and is_path_bipartite(graph, parts)),
           lambda graph, parts: is_path_complete(graph, parts), lambda graph, parts: is_connected(graph),
           ("path-complete", "connected"), _BEPATHS_FAST)
def sweep_c2_9(max_n: int = 5, progress: Progress = None) -> SweepResult:
    """With a singleton part, connectivity and path-completeness coincide."""
    return _run("c2.9", progress, max_n=max_n)


def _check_c3_10(instance: tuple, names: tuple[str, str], answers: tuple) -> list[str]:
    """Both sides agree that a partition exists, and the one returned is path-bipartite."""
    parts, unpruned = answers
    if (parts is None) == unpruned:  # the two sides disagree
        return _compare(instance, names, (parts is not None, unpruned))
    if parts is None or is_path_bipartite(*instance, parts):
        return []
    return [f"{_describe(*instance, parts)}: returned partition is not path-bipartite"]


@_declared("c3.10", _graphs, lambda graph: find_path_bipartite_partition(graph),
           lambda graph: bool(graph.edges) and prune_isolated(graph) == graph, ("partition-found", "equals-pruned"),
           (*_BEPATHS_FAST, "bepaths.find_path_bipartite_partition"), _check_c3_10)
def sweep_c3_10(max_n: int = 6, progress: Progress = None) -> SweepResult:
    """A path-bipartite partition exists exactly when no vertex is isolated."""
    return _run("c3.10", progress, max_n=max_n)


@_declared("t3.16", _graphs, lambda graph: is_path_proximinal_graph(graph),
           lambda graph: not graph.isolated_vertices(), ("certificate", "no-isolated-vertices"),
           ("path_proximinal.is_path_proximinal_graph", "bepaths.find_path_bipartite_partition",
            *_PATH_PROXIMINAL_FAST),
           _certified(("produced certificate fails verification", lambda certificate: certificate.verify())))
def sweep_t3_16(max_n: int = 6, progress: Progress = None) -> SweepResult:
    """Certificates exist exactly for graphs without isolated vertices."""
    return _run("t3.16", progress, max_n=max_n)


@_declared("c3.12", _graphs, lambda graph: all_degrees_one(graph), lambda graph: check_corollary_3_12(graph),
           ("degrees-one", "components-of-2"), _DEGREES_FAST)
def sweep_c3_12(max_n: int = 6, progress: Progress = None) -> SweepResult:
    """All components of size two iff every degree equals one."""
    return _run("c3.12", progress, max_n=max_n)


@_declared("p3.22", lambda max_n: ((graph, parts) for graph, parts in _graph_pairs(max_n)
                                   if graph.edges and is_bipartite_with_parts(graph, parts)),
           lambda graph, parts: check_prop_3_22(graph, parts, witness_proximinal_metric(graph, parts)),
           lambda graph, parts: not graph.isolated_vertices(), ("saturated", "no-isolated"),
           ("path_proximinal.check_prop_3_22", "proximinal.verify_proximinal_graph",
            "proximinal.proximinal_graph_defect", "spaces.proximity_report"))
def sweep_p3_22(max_n: int = 5, progress: Progress = None) -> SweepResult:
    """Saturation of the best-proximity core iff no isolated vertices."""
    return _run("p3.22", progress, max_n=max_n)


def _perturbed_within_part(space: FiniteSemimetricSpace, parts: Bipartition,
                           rng: random.Random) -> Optional[FiniteSemimetricSpace]:
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


def _p3_9_family(max_n: int, count: int, seed: int) -> Iterator[tuple]:
    """(graph, parts, space): the witness metric of each proximinal graph without isolated vertices, then `count`
    random same-part perturbations of it; cross distances stay untouched, so G stays the proximinal graph."""
    rng = random.Random(seed)
    for graph, parts in _graph_pairs(max_n):
        if not graph.edges or graph.isolated_vertices() or not is_bipartite_with_parts(graph, parts):
            continue
        base = witness_proximinal_metric(graph, parts)
        perturbed = [_perturbed_within_part(base, parts, rng) for _ in range(count)]  # drawn before any is checked
        for space in [base, *perturbed]:
            if space is not None:
                yield graph, parts, space


def _check_p3_9(instance: tuple, names: tuple[str, str], answers: tuple) -> list[str]:
    """The space still makes its graph proximinal, and both sides agree."""
    if not verify_proximinal_graph(*instance):
        return [f"{_describe(*instance)}: perturbation broke the proximinal certificate"]
    return _compare(instance, names, answers)


@_declared("p3.9", _p3_9_family, lambda graph, parts, space: verify_path_proximinal(graph, parts, space),
           lambda graph, parts, space: check_within_part_separation(space, parts), ("path-proximinal", "separation"),
           (*_PATH_PROXIMINAL_FAST, "spaces.build_threshold_graph", *_BEPATHS_FAST), _check_p3_9)
def sweep_p3_9(max_n: int = 5, count: int = 3, seed: int = 0, progress: Progress = None) -> SweepResult:
    """Path-proximinality iff strict within-part separation, for G = G'."""
    return _run("p3.9", progress, max_n=max_n, count=count, seed=seed)


@_declared("t2.1", _ultrametric_pairs, lambda space, parts: check_theorem_2_1(space, parts), None,
           ("stmt1", "stmt2"), ("spaces.check_theorem_2_1",))
def sweep_t2_1(count: int = 1000, seed: int = 0, progress: Progress = None) -> SweepResult:
    """Diameter bound vs. best-proximity saturation on random ultrametrics."""
    return _run("t2.1", progress, count=count, seed=seed)


def _every_degree_one(graph: SimpleGraph) -> bool:
    """The t3.10 side against `all_degrees_one`: every vertex gets one neighbour, none a second."""
    neighbour: dict[str, str] = {}
    for u, v in graph.edges:
        if u in neighbour or v in neighbour:
            return False
        neighbour[u], neighbour[v] = v, u
    return bool(neighbour) and neighbour.keys() == graph.vertices


def _corollary_3_11_agrees(graph: SimpleGraph, parts: Bipartition) -> bool:
    """Corollary 3.11 on an ultrametric path-proximinal graph, bipartite with its parts: connected, complete,
    cross-complete and path-complete are one statement.  Every edge crosses, so |E| counts the cross edges."""
    n = len(graph.vertices)
    return len({is_connected(graph), len(graph.edges) == n * (n - 1) // 2,
                len(graph.edges) == len(parts.a) * len(parts.b), is_path_complete(graph, parts)}) == 1


@_declared("t3.10", _graphs, lambda graph: witness_ultrametric(graph), _every_degree_one,
           ("witness", "degrees-one"), _DEGREES_FAST, _certified(
               ("witness space fails the ultrametric scan",
                lambda certificate: classify(certificate.space) is SpaceClass.ULTRAMETRIC),
               ("witness certificate fails verification", lambda certificate: certificate.verify()),
               ("witness parts are not a bipartition of the graph",
                lambda certificate: is_bipartite_with_parts(certificate.graph, certificate.parts)),
               ("witness disagrees on the statements of Corollary 3.11",
                lambda certificate: _corollary_3_11_agrees(certificate.graph, certificate.parts))))
def sweep_t3_10(max_n: int = 6, count: int = 500, seed: int = 0, progress: Progress = None) -> SweepResult:
    """Degree-one graphs vs. ultrametric path-proximinal certificates.

    Forward: over all labeled graphs, the ultrametric witness succeeds
    exactly on the graphs where every degree is one; `classify` finds its
    space ultrametric, its certificate verifies path-proximinal, its graph
    is bipartite with its parts, and then Corollary 3.11's four statements
    (connected, complete, cross-complete, path-complete) agree.  Backward,
    an implication counted after the compare: over seeded random
    ultrametric spaces and all bipartitions, whenever the threshold graph
    is bipartite with the parts and verifies path-proximinal, all its
    components have exactly two vertices (Corollary 3.12) and Corollary
    3.11's four statements agree.
    """
    fired = 0

    def backward() -> Problems:
        nonlocal fired
        for space, parts in _ultrametric_pairs(count, seed):
            graph = build_threshold_graph(space, parts)
            if not (is_bipartite_with_parts(graph, parts) and verify_path_proximinal(graph, parts, space)):
                yield []
                continue
            fired += 1
            yield [f"{_describe(space, parts)}: ultrametric path-proximinal threshold graph {problem}"
                   for problem, holds in (("with a component != 2 vertices", check_corollary_3_12(graph)),
                                          ("disagrees on the statements of Corollary 3.11",
                                           _corollary_3_11_agrees(graph, parts))) if not holds]

    result = _run("t3.10", progress, backward(), max_n=max_n)
    result.notes.append(f"backward direction fired on {fired} (space, partition) instances")
    return result


@_declared("t3.5", lambda count, seed: _with_bipartitions(_random_spaces(random_semimetric_space, count, 7, seed)),
           lambda space, parts: check_structural_conditions(space, parts),
           lambda space, parts: is_path_bipartite(build_threshold_graph(space, parts), parts),
           ("structural", "path-bipartite"),
           ("path_proximinal.check_structural_conditions", "bepaths.quotient_graph", "spaces.proximity_report"))
def sweep_t3_5(count: int = 300, seed: int = 0, progress: Progress = None) -> SweepResult:
    """Core reachability vs. path-bipartiteness of the threshold graph."""
    return _run("t3.5", progress, count=count, seed=seed)
