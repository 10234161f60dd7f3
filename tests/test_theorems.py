"""Sweep smoke runs at small bounds; the full bounds run in the acceptance suite."""

import ast
import dataclasses
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


@pytest.mark.parametrize("sweep_id", [sweep_id for sweep_id, spec in SWEEPS.items() if "max_n" in spec.parameters])
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


def test_verify_prints_false_first_and_then_the_first_counterexample(monkeypatch, capsys):
    monkeypatch.setattr(theorems, "is_path_bipartite", _negated(theorems.is_path_bipartite))
    result = sweep_t3_9(max_n=3)
    assert main(["verify", "t3.9", "--max-n", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["false", *result.lines()]
    assert out[-1] == f"first counterexample: {result.counterexamples[0]}"


def test_spec_reads_description_and_bounds_through_a_wrapper(monkeypatch, capsys):
    # wrapped as the benchmark's tracer wraps each sweep: dataclasses.replace(spec, run=wrapped),
    # the span named after run.__name__; `verify` must run the wrapper once and print what it prints unwrapped
    calls = []

    def wrapped(run):
        @functools.wraps(run)
        def call(*args, **kwargs):
            calls.append(run.__name__)
            return run(*args, **kwargs)
        return call

    spec = dataclasses.replace(SWEEPS["t2.1"], run=wrapped(sweep_t2_1))
    assert spec.run.__name__ == "sweep_t2_1"
    assert spec.parameters == {"count", "seed"}
    assert spec.description == "Diameter bound vs. best-proximity saturation on random ultrametrics"
    assert SWEEPS["t3.10"].parameters == {"max_n", "count", "seed"}
    assert main(["verify", "t3.9", "--max-n", "3"]) == 0
    unwrapped = capsys.readouterr().out
    monkeypatch.setitem(SWEEPS, "t3.9", dataclasses.replace(SWEEPS["t3.9"], run=wrapped(sweep_t3_9)))
    assert main(["verify", "t3.9", "--max-n", "3"]) == 0
    assert calls == ["sweep_t3_9"]
    assert capsys.readouterr().out == unwrapped == "true\nsweep t3.9: checked 52 instances\ncounterexamples: 0\n"


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


@pytest.mark.parametrize("sweep_id, bounds, route, wrong", [
    ("t3.9", dict(max_n=3), "is_path_bipartite", _negated),
    ("t3.9", dict(max_n=3), "is_path_bipartite", _mirrored_only(_negated)),
    ("t3.4", dict(max_n=3), "bpath_pairs", _one_pair_short),
    ("t3.4", dict(max_n=3), "bpath_pairs", _mirrored_only(_one_pair_short)),
    ("t3.6", dict(max_n=3), "is_path_complete", _negated),
    ("c3.10", dict(max_n=4), "find_path_bipartite_partition", lambda route: lambda graph: None),
    ("t3.5", dict(count=10, seed=2), "check_structural_conditions", _negated),
    ("t3.10", dict(max_n=3, count=2, seed=1), "witness_ultrametric", lambda route: lambda graph: None),
], ids=["t3.9", "t3.9-mirrored", "t3.4", "t3.4-mirrored", "t3.6", "c3.10", "t3.5", "t3.10"])
def test_sweep_reports_a_wrong_fast_route(monkeypatch, sweep_id, bounds, route, wrong):
    spec = SWEEPS[sweep_id]
    clean = spec.run(**bounds)
    monkeypatch.setattr(theorems, route, wrong(getattr(theorems, route)))
    result = spec.run(**bounds)
    assert clean.ok
    assert not result.ok
    assert result.checked == clean.checked
    assert all(name in result.counterexamples[0] for name in spec.names)


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
    spec, bounds = SWEEPS["t3.5"], dict(count=10, seed=1)
    space, parts = next(iter(spec.family(**bounds)))
    assert space.scale > 1  # the line must carry the scale, not only the rows
    monkeypatch.setattr(theorems, "check_structural_conditions", _negated(theorems.check_structural_conditions))
    line = spec.run(**bounds).counterexamples[0]  # negated, the route fails on the first instance
    found = re.fullmatch(r"points=(.*) scale=(\d+) rows=(.*) A=(.*) B=(.*): structural=.*", line)
    points, scale, rows, a, b = map(ast.literal_eval, found.groups())
    rebuilt = build_space(points, [[Fraction(v, scale) for v in row] for row in rows])
    assert rebuilt == space and Bipartition.of(a, b) == parts
    answers = (spec.fast(rebuilt, parts), spec.oracle(rebuilt, parts))
    assert theorems._compare((rebuilt, parts), spec.names, answers) == [line]


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
    family = list(SWEEPS["t3.9"].family(max_n=4))
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


def _all_ones_table(labels):
    """A wrong witness table: every distinct pair at distance 1, edge or not."""
    pts = tuple(sorted(labels))
    return FiniteSemimetricSpace(pts, 1, tuple(tuple(int(p != q) for q in pts) for p in pts))


def _all_ones_witness(original):
    return lambda graph: _all_ones_table(graph.vertices)


def _all_ones_perturbation(original):
    """Each perturbation drawn as before, then every distance set to 1: cross distances move too."""
    def perturbed(space, parts, rng):
        drawn = original(space, parts, rng)
        return None if drawn is None else _all_ones_table(space.points)
    return perturbed


def _first_component_in_a(original):
    """The partition found, but with the whole first component of a disconnected graph moved into A."""
    def find(graph):
        parts, blocks = original(graph), graphs.connected_components(graph)
        return parts if parts is None or len(blocks) == 1 else Bipartition(parts.a | blocks[0], parts.b - blocks[0])
    return find


def _constant(answer):
    return lambda original: lambda graph, parts: answer


@pytest.mark.parametrize("sweep_id, bounds, module, name, wrong, message", [
    ("t3.16", dict(max_n=4), path_proximinal, "adjacency_metric", _all_ones_witness,
     "produced certificate fails verification"),
    ("t3.10", dict(max_n=4, count=5, seed=1), path_proximinal, "adjacency_metric", _all_ones_witness,
     "witness certificate fails verification"),
    # 2K2's certificate: disconnected, incomplete and cross-incomplete, but path-complete by the wrong route
    ("t3.10", dict(max_n=4, count=5, seed=1), theorems, "is_path_complete", _constant(True),
     "witness disagrees on the statements of Corollary 3.11"),
    # no graph on one vertex has a certificate, so only the backward instances (K2 threshold graphs) are checked
    ("t3.10", dict(max_n=1, count=40, seed=7), theorems, "is_path_complete", _constant(False),
     "threshold graph disagrees on the statements of Corollary 3.11"),
    ("c3.10", dict(max_n=4), theorems, "find_path_bipartite_partition", _first_component_in_a,
     "returned partition is not path-bipartite"),
    ("p3.9", dict(max_n=4, count=1, seed=0), theorems, "_perturbed_within_part", _all_ones_perturbation,
     "perturbation broke the proximinal certificate"),
], ids=["t3.16", "t3.10", "t3.10-corollary-3.11", "t3.10-backward-corollary-3.11", "c3.10", "p3.9"])
def test_sweep_reports_a_certificate_failing_verification(monkeypatch, sweep_id, bounds, module, name, wrong,
                                                         message):
    run = SWEEPS[sweep_id].run
    clean = run(**bounds)
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    result = run(**bounds)
    assert clean.ok
    assert not result.ok
    assert result.checked == clean.checked
    assert result.counterexamples[0].endswith(message)


def _p3_9_instance(line):
    """The (graph, parts, space) a p3.9 counterexample line names, rebuilt from the line alone."""
    found = re.fullmatch(r"G\(V=(.*), E=(.*)\) A=(.*) B=(.*) points=(.*) scale=(\d+) rows=(.*): .*", line)
    vertices, edges, a, b, points, scale, rows = map(ast.literal_eval, found.groups())
    return (graphs.build_graph(vertices, edges), Bipartition.of(a, b),
            build_space(points, [[Fraction(v, scale) for v in row] for row in rows]))


@pytest.mark.parametrize("name, wrong, pick", [
    ("verify_path_proximinal", _negated, lambda space: space.scale > 1),  # a perturbation to 1/2 or 3/2
    ("_perturbed_within_part", _all_ones_perturbation, lambda space: True),
], ids=["route-negated", "perturbation-broken"])
def test_p3_9_counterexample_line_rebuilds_the_graph_parts_and_perturbed_space(monkeypatch, name, wrong, pick):
    spec, bounds = SWEEPS["p3.9"], dict(max_n=4, count=2, seed=7)
    monkeypatch.setattr(theorems, name, wrong(getattr(theorems, name)))
    family = list(spec.family(**bounds))
    line, instance = next((line, instance) for line in spec.run(**bounds).counterexamples
                          for instance in [_p3_9_instance(line)] if pick(instance[2]))
    assert instance in family and instance[2] != proximinal.witness_proximinal_metric(*instance[:2])
    answers = (spec.fast(*instance), spec.oracle(*instance))
    assert theorems._check_p3_9(instance, spec.names, answers) == [line]


def test_perturbation_copies_the_rows_as_the_fraction_view_did():
    # p3.9 copied `space.table` before its one rewritten entry; its rows at scale 1 are the same copy,
    # drawn in the same order, so the sweep checks its 2266 instances at every seed
    for seed in range(3):
        view_rng, checked, current = random.Random(seed), 0, None
        for graph, parts, space in SWEEPS["p3.9"].family(max_n=5, count=3, seed=seed):
            checked += 1
            if (graph, parts) != current:  # the witness metric comes first, then its perturbations
                current, base = (graph, parts), space
                assert base == proximinal.witness_proximinal_metric(graph, parts)
                pairs = [(i, j) for i in range(base.size) for j in range(i + 1, base.size)
                         if (base.points[i] in parts.a) == (base.points[j] in parts.a)]
                continue
            i, j = view_rng.choice(pairs)  # no pairs, no perturbation: an empty choice raises
            table = [list(row) for row in base.table]
            table[i][j] = table[j][i] = view_rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
                                                         Fraction(3)])
            assert space == build_space(base.points, table)
        assert checked == 2266


# The fast-side names each sweep's declaration must keep: it may add names but drop none of these.
BEPATHS_FLOOR = {f"bepaths.{name}" for name in (
    "bpath_pairs", "quotient_graph", "is_quotient_complete_bipartite", "is_path_complete",
    "path_complete_defect", "is_path_bipartite", "path_bipartite_defect",
)}
PATH_PROXIMINAL_FLOOR = {"path_proximinal.verify_path_proximinal", "path_proximinal.path_proximinal_defect"}
DEGREES_FLOOR = {"path_proximinal.all_degrees_one", "path_proximinal.witness_ultrametric"}
ROUTE_FLOOR = {
    "t3.9": BEPATHS_FLOOR, "t3.4": BEPATHS_FLOOR, "t3.6": BEPATHS_FLOOR, "c2.9": BEPATHS_FLOOR,
    "c3.10": BEPATHS_FLOOR | {"bepaths.find_path_bipartite_partition"},
    "t3.16": PATH_PROXIMINAL_FLOOR | {"path_proximinal.is_path_proximinal_graph",
                                      "bepaths.find_path_bipartite_partition"},
    "c3.12": DEGREES_FLOOR, "t3.10": DEGREES_FLOOR,
    "p3.22": {"path_proximinal.check_prop_3_22", "proximinal.verify_proximinal_graph",
              "proximinal.proximinal_graph_defect", "spaces.proximity_report"},
    "p3.9": PATH_PROXIMINAL_FLOOR | BEPATHS_FLOOR | {"spaces.build_threshold_graph"},
    "t2.1": {"spaces.check_theorem_2_1"},
    "t3.5": {"path_proximinal.check_structural_conditions", "bepaths.quotient_graph", "spaces.proximity_report"},
}
# Routines an oracle legitimately shares with its fast side: never stubbed, and the oracle must call them
SHARED = {"t2.1": ("spaces.proximity_report",), "t3.5": ("spaces.build_threshold_graph",)}
# Each sweep's smallest family for the independence check; the graph sweeps not named run at max_n=4
SMALL_BOUNDS = {"c3.12": dict(max_n=5), "t3.10": dict(max_n=5), "p3.9": dict(max_n=4, count=1, seed=0),
                "t2.1": dict(count=20, seed=11), "t3.5": dict(count=20, seed=2)}


def _t2_1_statement_1(space, parts):
    """t2.1's oracle side, rebuilt: `check_theorem_2_1` answers both statements in one call."""
    return spaces.diameter(space, parts.b) <= spaces.proximity_report(space, parts).distance


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
    """Every SWEEPS entry declares at least its floor of fast-side names, and none its oracle shares."""
    assert set(ROUTE_FLOOR) == set(SWEEPS)
    for sweep_id, spec in SWEEPS.items():
        assert set(spec.routes) >= ROUTE_FLOOR[sweep_id], sweep_id
        assert not set(spec.routes) & set(SHARED.get(sweep_id, ()))
        assert (spec.oracle is None) == (sweep_id == "t2.1")  # the one sweep whose fast call answers both sides


@pytest.mark.parametrize("sweep_id", sorted(SWEEPS))
def test_graph_sweep_oracle_never_calls_a_fast_route(monkeypatch, sweep_id):
    """Every sweep's oracle gives the same answers on its family while each declared fast route raises
    wherever it is bound, and the sweep's fast side raises under the same stubs."""
    spec = SWEEPS[sweep_id]
    instances = list(spec.family(**SMALL_BOUNDS.get(sweep_id, dict(max_n=4))))
    oracle = spec.oracle or _t2_1_statement_1
    expected = [oracle(*instance) for instance in instances]
    # the family tells the answers apart, but in c2.9 a singleton part that every
    # component meets leaves one component, so both sides read true on all of it
    distinct = len(set(map(repr, expected)))
    assert distinct == 1 if sweep_id == "c2.9" else distinct > 1

    def stub(route):
        def raises(*args, **kwargs):
            raise AssertionError(f"the stubbed fast route {route} was called")
        return lambda original: raises

    for route in spec.routes:
        assert f"proxigraph.{route.split('.')[0]}" in _rebind_everywhere(monkeypatch, route, stub(route))
    calls = Counter()

    def counted(route):
        def count(original):
            def counting(*args, **kwargs):
                calls[route] += 1
                return original(*args, **kwargs)
            return counting
        return count

    for route in SHARED.get(sweep_id, ()):
        _rebind_everywhere(monkeypatch, route, counted(route))
    assert [oracle(*instance) for instance in instances] == expected
    assert all(calls[route] for route in SHARED.get(sweep_id, ())), f"a shared routine is not called: {dict(calls)}"
    with pytest.raises(AssertionError, match="the stubbed fast route"):
        spec.fast(*instances[0])


class _UnreadableMemo(dict):
    def __contains__(self, key):
        raise AssertionError("a fast route read the induced-components memo")

    __getitem__ = __contains__


def test_fast_routes_never_read_the_induced_components_memo(monkeypatch):
    """The t3.4 and t3.6 fast routes answer alike while `induced_components` raises wherever it is
    bound and each graph's memo raises on a read: the oracles' memo never feeds the fast routes."""
    family = list(SWEEPS["t3.6"].family(max_n=4))
    assert family == list(SWEEPS["t3.4"].family(max_n=4))
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
