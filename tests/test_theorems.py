"""Sweep smoke runs at small bounds; the full bounds run in the acceptance suite."""

import functools
import sys
from fractions import Fraction

import pytest

from proxigraph import FiniteSemimetricSpace, bepaths, path_proximinal, theorems
from proxigraph.theorems import (
    SWEEPS,
    SweepSpec,
    _every_degree_one,
    _graphs_and_partitions,
    _labeled_graphs,
    induced_bpath_pairs,
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
    result = sweep_t2_1(count=40, max_points=6, seed=11)
    assert result.ok
    assert result.checked > 40


def test_t3_10_small():
    result = sweep_t3_10(max_n=4, count=60, max_points=6, seed=3)
    assert result.ok
    assert any("fired" in note for note in result.notes)


def test_t3_5_small():
    assert sweep_t3_5(count=40, max_points=6, seed=2).ok


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
    sweep_t2_1(count=30, max_points=8, seed=0, progress=calls.append)
    assert all(done % 1000 == 0 for done in calls)


def test_sweep_result_lines():
    result = sweep_t3_9(max_n=3)
    lines = result.lines()
    assert lines[0].startswith("sweep t3.9: checked")
    assert any("counterexamples: 0" in line for line in lines)


def test_spec_reads_description_and_bounds_through_a_wrapper():
    spec = SweepSpec(functools.wraps(sweep_t2_1)(lambda **kwargs: sweep_t2_1(**kwargs)))
    assert spec.parameters == {"count", "max_points", "seed"}
    assert spec.description == "Diameter bound vs. best-proximity saturation on random ultrametrics"
    assert SWEEPS["t3.10"].parameters == {"max_n", "count", "max_points", "seed"}


def _negated(route):
    return lambda *args: not route(*args)


def _one_pair_short(route):
    return lambda *args: frozenset(sorted(route(*args))[1:])


@pytest.mark.parametrize("sweep_id, bounds, route, wrong, names", [
    ("t3.9", dict(max_n=3), "is_path_bipartite", _negated, ("decision=", "union-oracle=")),
    ("t3.4", dict(max_n=3), "bpath_pairs", _one_pair_short, ("component-set", "enumerated")),
    ("t3.6", dict(max_n=3), "is_path_complete", _negated, ("quotient-complete=", "blocks-induce-connected=")),
    ("c3.10", dict(max_n=4), "find_path_bipartite_partition", lambda route: lambda graph: None,
     ("partition-found=", "equals-pruned=")),
    ("t3.5", dict(count=10, max_points=5, seed=2), "check_structural_conditions", _negated,
     ("structural=", "path-bipartite=")),
    ("t3.10", dict(max_n=3, count=2, max_points=3, seed=1), "witness_ultrametric",
     lambda route: lambda graph: None, ("witness=", "degrees-one=")),
], ids=["t3.9", "t3.4", "t3.6", "c3.10", "t3.5", "t3.10"])
def test_sweep_reports_a_wrong_fast_route(monkeypatch, sweep_id, bounds, route, wrong, names):
    run = SWEEPS[sweep_id].run
    clean = run(**bounds)
    monkeypatch.setattr(theorems, route, wrong(getattr(theorems, route)))
    result = run(**bounds)
    assert clean.ok
    assert not result.ok
    assert result.checked == clean.checked
    assert all(name in result.counterexamples[0] for name in names)


def _all_ones_table(graph):
    """A wrong witness table: every distinct pair at distance 1, edge or not."""
    pts = tuple(graph.sorted_vertices())
    return FiniteSemimetricSpace(pts, tuple(tuple(Fraction(p != q) for q in pts) for p in pts))


@pytest.mark.parametrize("sweep_id, bounds, message", [
    ("t3.16", dict(max_n=4), "produced certificate fails verification"),
    ("t3.10", dict(max_n=4, count=5, max_points=5, seed=1), "witness certificate fails verification"),
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


FAST_ROUTES = ("bpath_pairs", "quotient_graph", "is_path_complete", "is_path_bipartite")

GRAPH_SWEEP_ORACLES = {
    "t3.6": induced_bpath_pairs,
    "t3.9": bepaths.union_of_be_paths,
    "t3.4": lambda graph, parts: bepaths.pairs_from_witnesses(bepaths.be_paths_from_a(graph, parts), parts),
}


def _stub_everywhere(monkeypatch, home, names, sweep_id) -> set[tuple[str, str]]:
    """Make each named function of `home` raise in every proxigraph module binding it."""
    def stub(name):
        def raises(*args, **kwargs):
            raise AssertionError(f"the {sweep_id} oracle called the fast route {name}")
        return raises

    patched = set()
    for name in names:
        route = getattr(home, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "proxigraph" and getattr(module, name, None) is route:
                monkeypatch.setattr(module, name, stub(name))
                patched.add((module_name, name))
    return patched


@pytest.mark.parametrize("sweep_id", sorted(GRAPH_SWEEP_ORACLES))
def test_graph_sweep_oracle_never_calls_a_fast_route(monkeypatch, sweep_id):
    oracle = GRAPH_SWEEP_ORACLES[sweep_id]
    instances = list(_graphs_and_partitions(4))
    expected = [oracle(graph, parts) for graph, parts in instances]
    patched = _stub_everywhere(monkeypatch, bepaths, FAST_ROUTES, sweep_id)
    assert {("proxigraph.bepaths", name) for name in FAST_ROUTES} <= patched
    assert ("proxigraph.theorems", "bpath_pairs") in patched
    assert [oracle(graph, parts) for graph, parts in instances] == expected


def test_t3_10_degrees_one_side_never_calls_all_degrees_one(monkeypatch):
    graphs = list(_labeled_graphs(5))
    expected = [path_proximinal.all_degrees_one(graph) for graph in graphs]
    patched = _stub_everywhere(monkeypatch, path_proximinal, ("all_degrees_one",), "t3.10")
    assert {"proxigraph.path_proximinal", "proxigraph.theorems"} <= {module for module, _ in patched}
    assert [_every_degree_one(graph) for graph in graphs] == expected
    assert any(expected) and not all(expected)
