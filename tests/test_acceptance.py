"""Acceptance suite: every criterion at its stated tolerance, one line each.

Criteria 1-4 re-check the worked examples exactly (rational arithmetic, no
tolerances); criteria 5-9 run the full-size equivalence sweeps with zero
counterexamples required.  Each test prints one PASS/FAIL line.
"""

import time
from contextlib import contextmanager

from proxigraph import (
    SpaceClass,
    bpath_pairs,
    build_threshold_graph,
    classify,
    hypercube_space,
    is_be_path,
    is_connected,
    is_path_complete,
    is_path_proximinal_graph,
    set_distance,
    verify_path_proximinal,
)
from proxigraph.bepaths import be_path_witness
from proxigraph.graphs import Bipartition
from proxigraph.instances import (
    EXAMPLE_COORDINATES,
    PUBLISHED_BPATH_PAIRS,
    TruncationParams,
    example_3_2,
    example_3_7,
    example_3_12_truncation,
    example_3_16,
)
from proxigraph.theorems import (
    sweep_c3_10,
    sweep_t2_1,
    sweep_t3_4,
    sweep_t3_6,
    sweep_t3_9,
    sweep_t3_10,
    sweep_t3_16,
)


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        assert elapsed < budget_seconds, f"took {elapsed:.1f}s, budget {budget_seconds}s"
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f}s)")


def bits(label):
    return "".join(str(c) for c in EXAMPLE_COORDINATES[label])


def test_criterion_1_hypercube_pipeline():
    with criterion(1, "4-bit Hamming pipeline: dist 1, 32 edges, path-proximinal, "
                      "path-complete, published 46-pair list strictly contained in 64", 1.0):
        space = hypercube_space(4)
        _, xparts = example_3_2()
        parts = Bipartition(
            frozenset(bits(x) for x in xparts.a), frozenset(bits(x) for x in xparts.b)
        )
        assert set_distance(space, parts.a, parts.b) == 1
        threshold = build_threshold_graph(space, parts)
        assert len(threshold.edges) == 32
        assert verify_path_proximinal(threshold, parts, space)
        assert is_path_complete(threshold, parts)
        computed = bpath_pairs(threshold, parts)
        assert len(computed) == 64
        published = {(bits(a), bits(b)) for a, b in PUBLISHED_BPATH_PAIRS}
        assert len(published) == 46
        assert published < computed
        omitted = ("x2", "x5")
        witness = be_path_witness(threshold, parts, bits(omitted[0]), bits(omitted[1]))
        assert witness is not None
        assert is_be_path(threshold, witness.path, parts) is not None


def test_criterion_2_four_vertex_path():
    with criterion(2, "4-vertex path: connected, 3 joinable pairs, (a1, b2) excluded", 1.0):
        graph, parts = example_3_7()
        assert is_connected(graph)
        pairs = bpath_pairs(graph, parts)
        assert len(pairs) == 3
        assert ("a1", "b2") not in pairs


def test_criterion_3_isolated_vertex_excludes_certificate():
    with criterion(3, "induced graph on part A: x1 isolated, no certificate", 1.0):
        graph = example_3_16()
        assert "x1" in graph.isolated_vertices()
        assert is_path_proximinal_graph(graph) is None


def test_criterion_4_lattice_truncations():
    with criterion(4, "lattice truncations (2,2,2) and (4,4,4): dist 2, metric, "
                      "path-complete, path-proximinal", 1.0):
        for size in (2, 4):
            space, parts = example_3_12_truncation(TruncationParams(size, size, size))
            assert set_distance(space, parts.a, parts.b) == 2
            assert classify(space) is SpaceClass.METRIC
            threshold = build_threshold_graph(space, parts)
            assert is_path_complete(threshold, parts)
            assert verify_path_proximinal(threshold, parts, space)


def test_criterion_5_union_oracle_sweep():
    with criterion(5, "path-bipartite iff union of enumerated be-paths equals G "
                      "(all graphs on <= 5 vertices, all bipartitions)", 300.0):
        result = sweep_t3_9(max_n=5)
        assert result.ok
        assert result.checked >= 1024 * 30


def test_criterion_6_bpath_and_quotient_sweep():
    with criterion(6, "component B_path equals enumeration; path-complete iff "
                      "quotient complete (same family)", 600.0):
        assert sweep_t3_4(max_n=5).ok
        assert sweep_t3_6(max_n=5).ok


def test_criterion_7_certificate_sweep():
    with criterion(7, "certificate iff no isolated vertex, certificates re-verify "
                      "(all graphs on <= 6 vertices)", 300.0):
        assert sweep_t3_16(max_n=6).ok
        assert sweep_c3_10(max_n=6).ok


def test_criterion_8_ultrametric_diameter_sweep():
    with criterion(8, "diameter bound iff proximity saturation on 1000 random "
                      "ultrametric spaces, all bipartitions", 120.0):
        result = sweep_t2_1(count=1000, seed=0)
        assert result.ok
        assert result.checked >= 1000


def test_criterion_9_degree_one_sweep():
    with criterion(9, "ultrametric witness iff all degrees one (<= 6 exhaustive); "
                      "500 random ultrametric instances give 2-vertex components", 300.0):
        result = sweep_t3_10(max_n=6, count=500, seed=0)
        assert result.ok
        fired = next(note for note in result.notes if "fired" in note)
        assert not fired.startswith("backward direction fired on 0 ")
