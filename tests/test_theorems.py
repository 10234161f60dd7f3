"""Sweep smoke runs at small bounds; the full bounds run in the acceptance suite."""

import ast
import functools
import importlib
import operator
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from proxigraph import (
    Bipartition,
    FiniteSemimetricSpace,
    bepaths,
    build_space,
    graphs,
    path_proximinal,
    proximinal,
    spaces,
    theorems,
)
from proxigraph.cli import main
from proxigraph.instances import (
    all_bipartitions,
    enumerate_labeled_graphs,
    random_semimetric_space,
    random_ultrametric_space,
)
from proxigraph.theorems import (
    SWEEPS,
    SweepSpec,
    _labeled_graphs,
    _perturbed_within_part,
    _random_spaces,
    _with_bipartitions,
    sweep_c2_9,
    sweep_c3_10,
    sweep_c3_12,
    sweep_p3_9,
    sweep_p3_22,
    sweep_t2_1,
    sweep_t3_4,
    sweep_t3_5,
    sweep_t3_6,
    sweep_t3_9,
    sweep_t3_10,
    sweep_t3_16,
)


def test_t3_9_small():
    result = sweep_t3_9(max_n=4)
    assert result.ok
    assert result.checked == 4 + 48 + 896


def test_t3_4_small():
    assert sweep_t3_4(max_n=4).ok


def test_t3_6_small():
    assert sweep_t3_6(max_n=4).ok


def test_c2_9_small():
    assert sweep_c2_9(max_n=4).ok


def test_c3_10_small():
    assert sweep_c3_10(max_n=4).ok


def test_t3_16_small():
    assert sweep_t3_16(max_n=4).ok


def test_c3_12_small():
    assert sweep_c3_12(max_n=5).ok


def test_p3_22_small():
    assert sweep_p3_22(max_n=4).ok


def test_p3_9_small():
    assert sweep_p3_9(max_n=4, count=2, seed=5).ok


def test_t2_1_small():
    result = sweep_t2_1(count=40, seed=11)
    assert result.ok
    assert result.checked > 40


def test_t3_10_small():
    result = sweep_t3_10(max_n=4, count=60, seed=3)
    assert result.ok
    assert any("fired" in note for note in result.notes)


def test_t3_5_small():
    assert sweep_t3_5(count=40, seed=2).ok


def test_registry_covers_all_sweeps():
    assert set(SWEEPS) == {
        "t3.9", "t3.4", "t3.6", "c2.9", "c3.10", "t3.16", "c3.12",
        "p3.22", "p3.9", "t2.1", "t3.10", "t3.5",
    }
    for spec in SWEEPS.values():
        assert spec.description


def test_progress_callback_fires_every_1000():
    calls = []
    result = sweep_t3_9(max_n=4, progress=calls.append)
    assert result.checked == 948
    assert calls == []  # below the reporting threshold
    calls = []
    sweep_t2_1(count=30, seed=0, progress=calls.append)
    assert all(done % 1000 == 0 for done in calls)


@pytest.mark.parametrize("sweep_id", ["t3.9", "t3.4", "t3.6", "c2.9", "c3.10", "t3.16", "c3.12", "p3.22", "p3.9",
                                      "t3.10"])
def test_a_bound_past_the_enumeration_raises_before_the_first_instance(sweep_id):
    calls = []

    def progress(done):
        calls.append(done)
        raise AssertionError(f"{done} instances checked before the bound check")

    with pytest.raises(ValueError, match="vertex count"):
        SWEEPS[sweep_id].run(max_n=7, progress=progress)
    assert calls == []


def test_sweep_result_lines():
    result = sweep_t3_9(max_n=3)
    lines = result.lines()
    assert lines[0].startswith("sweep t3.9: checked")
    assert any("counterexamples: 0" in line for line in lines)


def test_spec_reads_description_and_bounds_through_a_wrapper():
    spec = SweepSpec(functools.wraps(sweep_t2_1)(lambda **kwargs: sweep_t2_1(**kwargs)))
    assert spec.parameters == {"count", "seed"}
    assert spec.description == "Diameter bound vs. best-proximity saturation on random ultrametrics"
    assert SWEEPS["t3.10"].parameters == {"max_n", "count", "seed"}


def _negated(route):
    return lambda *args: not route(*args)


def _one_pair_short(route):
    return lambda *args: frozenset(sorted(route(*args))[1:])


def _mirrored_only(wrong):
    """`wrong` only where the largest label lies in A: the order whose be-path oracle answer
    sweeps t3.4 and t3.9 mirror from its complement instead of enumerating it."""
    def make(route):
        bad = wrong(route)
        return lambda graph, parts: (bad if max(parts.union) in parts.a else route)(graph, parts)
    return make


@pytest.mark.parametrize("sweep_id, bounds, route, wrong, names", [
    ("t3.9", dict(max_n=3), "is_path_bipartite", _negated, ("decision=", "union-oracle=")),
    ("t3.9", dict(max_n=3), "is_path_bipartite", _mirrored_only(_negated), ("decision=", "union-oracle=")),
    ("t3.4", dict(max_n=3), "bpath_pairs", _one_pair_short, ("component-set", "enumerated")),
    ("t3.4", dict(max_n=3), "bpath_pairs", _mirrored_only(_one_pair_short), ("component-set", "enumerated")),
    ("t3.6", dict(max_n=3), "is_path_complete", _negated, ("quotient-complete=", "blocks-induce-connected=")),
    ("c3.10", dict(max_n=4), "find_path_bipartite_partition", lambda route: lambda graph: None,
     ("partition-found=", "equals-pruned=")),
    ("t3.5", dict(count=10, seed=2), "check_structural_conditions", _negated,
     ("structural=", "path-bipartite=")),
    ("t3.10", dict(max_n=3, count=2, seed=1), "witness_ultrametric",
     lambda route: lambda graph: None, ("witness=", "degrees-one=")),
], ids=["t3.9", "t3.9-mirrored", "t3.4", "t3.4-mirrored", "t3.6", "c3.10", "t3.5", "t3.10"])
def test_sweep_reports_a_wrong_fast_route(monkeypatch, sweep_id, bounds, route, wrong, names):
    run = SWEEPS[sweep_id].run
    clean = run(**bounds)
    monkeypatch.setattr(theorems, route, wrong(getattr(theorems, route)))
    result = run(**bounds)
    assert clean.ok
    assert not result.ok
    assert result.checked == clean.checked
    assert all(name in result.counterexamples[0] for name in names)


def test_fast_routes_run_on_every_instance_and_the_be_path_oracle_once_per_complement_pair(monkeypatch):
    calls = Counter()

    def counted(name):
        original = getattr(theorems, name)

        def count(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(theorems, name, count)

    for name in ("is_path_bipartite", "union_of_be_paths", "bpath_pairs", "be_paths_from_a"):
        counted(name)
    assert sweep_t3_9(max_n=4).checked == 948
    assert sweep_t3_4(max_n=4).checked == 948
    # 948 ordered instances are 474 unordered bipartitions
    assert calls == {"is_path_bipartite": 948, "union_of_be_paths": 474, "bpath_pairs": 948, "be_paths_from_a": 474}


def test_space_counterexample_line_rebuilds_the_space(monkeypatch):
    bounds = dict(count=10, seed=1)
    space, parts = next(_with_bipartitions(_random_spaces(random_semimetric_space, 10, 7, 1)))  # t3.5's first instance
    assert space.scale > 1  # the line must carry the scale, not only the rows
    monkeypatch.setattr(theorems, "check_structural_conditions", _negated(theorems.check_structural_conditions))
    line = sweep_t3_5(**bounds).counterexamples[0]  # negated, the route fails on the first instance
    found = re.fullmatch(r"points=(.*) scale=(\d+) rows=(.*) A=(.*) B=(.*): structural=.*", line)
    points, scale, rows, a, b = map(ast.literal_eval, found.groups())
    rebuilt = build_space(points, [[Fraction(v, scale) for v in row] for row in rows])
    assert rebuilt == space and Bipartition.of(a, b) == parts
    answers = (theorems.check_structural_conditions(rebuilt, parts),
               bepaths.is_path_bipartite(spaces.build_threshold_graph(rebuilt, parts), parts))
    assert theorems._compare((rebuilt, parts), ("structural", "path-bipartite"), answers) == [line]


@pytest.mark.parametrize("make_space", [random_ultrametric_space, random_semimetric_space])
def test_space_family_shares_one_bipartition_list_per_point_set(make_space):
    repeats = 0
    for seed in range(4):
        family = list(_with_bipartitions(_random_spaces(make_space, 12, 5, seed)))
        rng = random.Random(seed)
        drawn = [make_space(rng.randint(2, 5), rng.randrange(2**32)) for _ in range(12)]
        assert family == [(space, parts) for space in drawn for parts in all_bipartitions(space.point_set())]
        first, at = {}, 0  # per point set: the Bipartition objects its first space was given
        for space in drawn:
            given = [parts for _, parts in family[at:at + 2 ** space.size - 2]]
            at += len(given)
            shared = first.setdefault(space.point_set(), given)
            repeats += shared is not given
            assert all(map(operator.is_, given, shared))
    assert repeats


def test_graph_family_shares_one_bipartition_list_per_vertex_count():
    family = list(_with_bipartitions(_labeled_graphs(4, 2)))
    graphs = [graph for n in range(2, 5) for graph in enumerate_labeled_graphs(n)]
    assert family == [(graph, parts) for graph in graphs for parts in all_bipartitions(graph.vertices)]
    assert len({id(parts) for _, parts in family}) == 2 + 6 + 14


def test_space_family_gives_each_label_set_its_own_bipartitions():
    calls = iter(range(12))

    def relabelled(n, seed):  # one size, two label sets, alternating
        prefix = "xy"[next(calls) % 2]
        return build_space([f"{prefix}{i}" for i in range(3)], [[int(i != j) for j in range(3)] for i in range(3)])

    family = list(_with_bipartitions(_random_spaces(relabelled, 6, 4, 0)))
    assert len(family) == 6 * 6 and {space.points[0][0] for space, _ in family} == {"x", "y"}
    assert all(parts.union == space.point_set() for space, parts in family)


def _all_ones_table(graph):
    """A wrong witness table: every distinct pair at distance 1, edge or not."""
    pts = tuple(graph.sorted_vertices())
    return FiniteSemimetricSpace(pts, 1, tuple(tuple(int(p != q) for q in pts) for p in pts))


@pytest.mark.parametrize("sweep_id, bounds, message", [
    ("t3.16", dict(max_n=4), "produced certificate fails verification"),
    ("t3.10", dict(max_n=4, count=5, seed=1), "witness certificate fails verification"),
], ids=["t3.16", "t3.10"])
def test_sweep_reports_a_certificate_failing_verification(monkeypatch, sweep_id, bounds, message):
    run = SWEEPS[sweep_id].run
    clean = run(**bounds)
    monkeypatch.setattr(path_proximinal, "adjacency_metric", _all_ones_table)
    result = run(**bounds)
    assert clean.ok
    assert not result.ok
    assert result.checked == clean.checked
    assert result.counterexamples[0].endswith(message)


def _graph_family(max_n, keep=lambda graph, parts: True):
    return lambda: [(graph, parts) for graph, parts in _with_bipartitions(_labeled_graphs(max_n, 2))
                    if keep(graph, parts)]


def _p3_9_family():
    """Witness metrics and one same-part perturbation each, as sweep p3.9 builds them."""
    rng, family = random.Random(0), []
    for graph, parts in _with_bipartitions(_labeled_graphs(4, 2)):
        if graph.edges and not graph.isolated_vertices() and proximinal.is_bipartite_with_parts(graph, parts):
            base = proximinal.witness_proximinal_metric(graph, parts)
            perturbed = _perturbed_within_part(base, parts, rng)
            family += [(space, parts) for space in (base, perturbed) if space is not None]
    return family


def test_perturbation_copies_the_rows_as_the_fraction_view_did():
    # p3.9 copied `space.table` before its one rewritten entry; its rows at scale 1 are the same copy,
    # drawn in the same order, so the sweep checks its 2266 instances at every seed
    for seed in range(3):
        rng, view_rng, checked = random.Random(seed), random.Random(seed), 0
        for graph, parts in _with_bipartitions(_labeled_graphs(5, 2)):
            if not graph.edges or graph.isolated_vertices() or not proximinal.is_bipartite_with_parts(graph, parts):
                continue
            base = proximinal.witness_proximinal_metric(graph, parts)
            checked += 1
            for _ in range(3):
                perturbed = _perturbed_within_part(base, parts, rng)
                checked += perturbed is not None
                pairs = [(i, j) for i in range(base.size) for j in range(i + 1, base.size)
                         if (base.points[i] in parts.a) == (base.points[j] in parts.a)]
                if not pairs:
                    assert perturbed is None
                    continue
                i, j = view_rng.choice(pairs)
                table = [list(row) for row in base.table]
                table[i][j] = table[j][i] = view_rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
                                                             Fraction(3)])
                assert perturbed == build_space(base.points, table)
        assert checked == 2266


BEPATHS_FAST = tuple(f"bepaths.{name}" for name in (
    "bpath_pairs", "quotient_graph", "is_quotient_complete_bipartite", "is_path_complete",
    "path_complete_defect", "is_path_bipartite", "path_bipartite_defect",
))
PATH_PROXIMINAL_FAST = ("path_proximinal.verify_path_proximinal", "path_proximinal.path_proximinal_defect")

# Per sweep: its family (argument tuples, built before anything is stubbed), the
# fast-route functions as module.name, its oracle, and the routines both sides
# legitimately share.  Oracles reach proxigraph through module attributes, so a
# stub or a counter bound in the module is the function they call.
ORACLES = {
    "t3.9": (_graph_family(4), BEPATHS_FAST, lambda graph, parts: bepaths.union_of_be_paths(graph, parts), ()),
    "t3.4": (_graph_family(4), BEPATHS_FAST,
             lambda graph, parts: bepaths.pairs_from_witnesses(bepaths.be_paths_from_a(graph, parts), parts), ()),
    "t3.6": (_graph_family(4), BEPATHS_FAST, lambda graph, parts: theorems.induced_bpath_pairs(graph, parts), ()),
    "c2.9": (_graph_family(4, lambda graph, parts: min(len(parts.a), len(parts.b)) == 1
                           and bepaths.is_path_bipartite(graph, parts)),
             BEPATHS_FAST, lambda graph, parts: graphs.is_connected(graph), ()),
    "c3.10": (lambda: [(graph,) for graph in _labeled_graphs(4)],
              (*BEPATHS_FAST, "bepaths.find_path_bipartite_partition"),
              lambda graph: bool(graph.edges) and graphs.prune_isolated(graph) == graph, ()),
    "t3.16": (lambda: [(graph,) for graph in _labeled_graphs(4)],
              ("path_proximinal.is_path_proximinal_graph", "bepaths.find_path_bipartite_partition",
               *PATH_PROXIMINAL_FAST),
              lambda graph: not graph.isolated_vertices(), ()),
    "c3.12": (lambda: [(graph,) for graph in _labeled_graphs(5)],
              ("path_proximinal.all_degrees_one", "path_proximinal.witness_ultrametric"),
              lambda graph: path_proximinal.check_corollary_3_12(graph), ()),
    "p3.22": (_graph_family(4, lambda graph, parts: graph.edges and proximinal.is_bipartite_with_parts(graph, parts)),
              ("path_proximinal.check_prop_3_22", "proximinal.verify_proximinal_graph",
               "proximinal.proximinal_graph_defect", "spaces.proximity_report"),
              lambda graph, parts: not graph.isolated_vertices(), ()),
    "p3.9": (_p3_9_family, (*PATH_PROXIMINAL_FAST, "spaces.build_threshold_graph", *BEPATHS_FAST),
             lambda space, parts: path_proximinal.check_within_part_separation(space, parts), ()),
    # check_theorem_2_1 evaluates both statements; statement 1 is rebuilt here from its calls
    "t2.1": (lambda: list(_with_bipartitions(_random_spaces(random_ultrametric_space, 20, 6, 11))),
             ("spaces.check_theorem_2_1", "spaces.is_proximinal", "spaces.best_approximations"),
             lambda space, parts: spaces.diameter(space, parts.b) <= spaces.proximity_report(space, parts).distance,
             ("spaces.proximity_report",)),
    "t3.10": (lambda: [(graph,) for graph in _labeled_graphs(5)],
              ("path_proximinal.all_degrees_one", "path_proximinal.witness_ultrametric"),
              lambda graph: theorems._every_degree_one(graph), ()),
    "t3.5": (lambda: list(_with_bipartitions(_random_spaces(random_semimetric_space, 20, 6, 2))),
             ("path_proximinal.check_structural_conditions", "bepaths.quotient_graph", "spaces.proximity_report"),
             lambda space, parts: bepaths.is_path_bipartite(spaces.build_threshold_graph(space, parts), parts),
             ("spaces.build_threshold_graph",)),
}


def _rebind_everywhere(monkeypatch, route, replace) -> set[str]:
    """Bind replace(function) in place of `module.name` in every proxigraph module binding it; those modules."""
    home, name = route.split(".")
    original = getattr(importlib.import_module(f"proxigraph.{home}"), name)
    replacement, patched = replace(original), set()
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "proxigraph" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)
            patched.add(module_name)
    return patched


def test_every_name_the_benchmark_tracer_wraps_is_still_bound():
    # read by ast, so the tracer is neither imported nor run; a renamed or removed routine fails here
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text(encoding="utf-8")
    traced = next(ast.literal_eval(node.value) for node in ast.parse(source).body if isinstance(node, ast.Assign)
                  and any(isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets))
    missing = [f"{module}.{name}" for module, names in traced.items() for name in names
               if not callable(getattr(importlib.import_module(f"proxigraph.{module}"), name, None))]
    assert traced and not missing


def test_oracle_table_covers_every_sweep():
    assert set(ORACLES) == set(SWEEPS)
    for _, fast, _, shared in ORACLES.values():
        assert not set(fast) & set(shared)


@pytest.mark.parametrize("sweep_id", sorted(ORACLES))
def test_graph_sweep_oracle_never_calls_a_fast_route(monkeypatch, sweep_id):
    """Every sweep's oracle gives the same answers while its fast routes raise wherever they are bound."""
    family, fast, oracle, shared = ORACLES[sweep_id]
    instances = family()
    expected = [oracle(*instance) for instance in instances]
    # the family tells the answers apart, but in c2.9 a singleton part that every
    # component meets leaves one component, so both sides read true on all of it
    distinct = len(set(map(repr, expected)))
    assert distinct == 1 if sweep_id == "c2.9" else distinct > 1

    def stub(route):
        def raises(*args, **kwargs):
            raise AssertionError(f"the {sweep_id} oracle called the fast route {route}")
        return lambda original: raises

    for route in fast:
        assert f"proxigraph.{route.split('.')[0]}" in _rebind_everywhere(monkeypatch, route, stub(route))
    calls = Counter()

    def counted(route):
        def count(original):
            def counting(*args, **kwargs):
                calls[route] += 1
                return original(*args, **kwargs)
            return counting
        return count

    for route in shared:
        _rebind_everywhere(monkeypatch, route, counted(route))
    assert [oracle(*instance) for instance in instances] == expected
    assert all(calls[route] for route in shared), f"a declared shared routine is not called: {dict(calls)}"


class _UnreadableMemo(dict):
    def __contains__(self, key):
        raise AssertionError("a fast route read the induced-components memo")

    __getitem__ = __contains__


def test_fast_routes_never_read_the_induced_components_memo(monkeypatch):
    """The t3.4 and t3.6 fast routes answer alike while `induced_components` raises wherever it is
    bound and each graph's memo raises on a read: the oracles' memo never feeds the fast routes."""
    family = ORACLES["t3.6"][0]()
    assert family == ORACLES["t3.4"][0]()
    routes = (bepaths.quotient_graph, bepaths.bpath_pairs, bepaths.is_path_complete)
    expected = [[route(graph, parts) for route in routes] for graph, parts in family]

    def stub(original):
        def raises(*args, **kwargs):
            raise AssertionError("a fast route called induced_components")
        return raises

    assert {"proxigraph.graphs", "proxigraph.theorems"} <= _rebind_everywhere(
        monkeypatch, "graphs.induced_components", stub)
    answers = []
    for graph, parts in family:
        fresh = graphs.SimpleGraph(graph.vertices, graph.edges)
        fresh.__dict__["_induced"] = _UnreadableMemo()
        answers.append([route(fresh, parts) for route in routes])
    assert answers == expected
    with pytest.raises(AssertionError, match="called induced_components"):
        theorems.induced_bpath_pairs(*family[0])


# The stdout of `verify` for every graph sweep at --max-n 4, pinned byte for byte:
# memos and streamed families must not change what a sweep checks or reports.
GOLDEN_VERIFY = {
    "t3.9": ([], 948), "t3.4": ([], 948), "t3.6": ([], 948), "c2.9": ([], 330),
    "c3.10": ([], 75), "t3.16": ([], 75), "c3.12": ([], 75), "p3.22": ([], 166),
    "p3.9": (["--count", "2", "--seed", "7"], 170),
}


@pytest.mark.parametrize("sweep_id", sorted(GOLDEN_VERIFY))
def test_graph_sweep_stdout_is_pinned(capsys, sweep_id):
    extra, checked = GOLDEN_VERIFY[sweep_id]
    assert main(["verify", sweep_id, "--max-n", "4", *extra]) == 0
    assert capsys.readouterr().out == f"true\nsweep {sweep_id}: checked {checked} instances\ncounterexamples: 0\n"
