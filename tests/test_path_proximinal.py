"""Threshold graphs, path-proximinal certificates, and the ultrametric theory."""

from fractions import Fraction

import pytest

from proxigraph import (
    Bipartition,
    GraphError,
    SimpleGraph,
    SpaceClass,
    all_degrees_one,
    build_graph,
    build_space,
    build_threshold_graph,
    check_corollary_3_12,
    check_prop_3_22,
    check_structural_conditions,
    check_within_part_separation,
    classify,
    is_path_bipartite,
    is_path_proximinal_graph,
    set_distance,
    verify_path_proximinal,
    witness_metric_for_path_bipartite,
    witness_proximinal_metric,
    witness_ultrametric,
)
from proxigraph.instances import (
    TruncationParams,
    all_bipartitions,
    example_3_1,
    example_3_2,
    example_3_7,
    example_3_12_truncation,
    example_3_16,
)
from proxigraph.path_proximinal import path_proximinal_defect


def matching_2k2():
    return build_graph(["a", "b", "c", "d"], [["a", "b"], ["c", "d"]])


def restricted_space_on_part_a():
    """Hamming distances among the eight points of part A only."""
    space, parts = example_3_2()
    labels = sorted(parts.a)
    table = [[space.d(p, q) for q in labels] for p in labels]
    return build_space(labels, table)


def test_threshold_graph_hypercube_is_32_edges():
    space, parts = example_3_2()
    g = build_threshold_graph(space, parts)
    assert len(g.edges) == 32
    assert all(space.d(u, v) == 1 for u, v in g.edges)


def test_threshold_graph_truncation_keeps_explicit_edges():
    space, parts = example_3_12_truncation(TruncationParams(2, 2, 2))
    g = build_threshold_graph(space, parts)
    assert space.d("1+0i", "2+0i") == Fraction(3, 2)
    assert g.has_edge("1+0i", "2+0i")  # within-part edge below the threshold
    assert g.has_edge("1+0i", "1+1i")  # cross edge at the threshold
    assert not g.has_edge("1+0i", "0+2i")  # beyond the threshold


def test_threshold_graph_two_points():
    s = build_space(["a", "b"], [[0, 5], [5, 0]])
    g = build_threshold_graph(s, Bipartition.of(["a"], ["b"]))
    assert g.edges == {("a", "b")}


def test_verify_path_proximinal_hypercube():
    space, parts = example_3_2()
    g = build_threshold_graph(space, parts)
    assert verify_path_proximinal(g, parts, space)


def test_verify_path_proximinal_fails_on_part_a_restriction():
    space = restricted_space_on_part_a()
    graph = example_3_16()
    assert "x1" in graph.isolated_vertices()
    for parts in list(all_bipartitions(graph.vertices))[:20]:
        assert not verify_path_proximinal(graph, parts, space)


def test_verify_path_proximinal_round_trip_k2():
    g = build_graph(["a", "b"], [["a", "b"]])
    parts = Bipartition.of(["a"], ["b"])
    space = witness_metric_for_path_bipartite(g, parts)
    assert verify_path_proximinal(g, parts, space)


def test_a_path_bipartite_graph_off_the_threshold_graph_is_not_path_proximinal():
    # 2K2 is path-bipartite of these parts, but K_{2,2}'s witness metric puts every cross pair at dist(A, B)
    parts = Bipartition.of(["a", "c"], ["b", "d"])
    k22 = build_graph(["a", "b", "c", "d"], [["a", "b"], ["a", "d"], ["c", "b"], ["c", "d"]])
    space = witness_metric_for_path_bipartite(k22, parts)
    assert is_path_bipartite(matching_2k2(), parts)
    assert path_proximinal_defect(matching_2k2(), parts, space) == ("threshold",)
    assert not verify_path_proximinal(matching_2k2(), parts, space)


def test_verify_rejects_vertex_mismatch():
    space, parts = example_3_2()
    with pytest.raises(GraphError, match="differ"):
        verify_path_proximinal(build_graph(["a", "b"], [["a", "b"]]), parts, space)


def test_structural_conditions_hypercube_vacuous():
    space, parts = example_3_2()
    assert check_structural_conditions(space, parts)


def test_structural_conditions_unreachable_core():
    s = build_space(["a1", "a2", "b"], [[0, 5, 1], [5, 0, 5], [1, 5, 0]])
    assert not check_structural_conditions(s, Bipartition.of(["a1", "a2"], ["b"]))


def test_structural_conditions_trivial_when_core_is_everything():
    s = build_space(
        ["a1", "a2", "b1", "b2"],
        [[0, 3, 1, 1], [3, 0, 1, 1], [1, 1, 0, 3], [1, 1, 3, 0]],
    )
    parts = Bipartition.of(["a1", "a2"], ["b1", "b2"])
    assert check_structural_conditions(s, parts)


def test_witness_metric_p4():
    graph, parts = example_3_7()
    space = witness_metric_for_path_bipartite(graph, parts)
    assert classify(space) in (SpaceClass.METRIC, SpaceClass.ULTRAMETRIC)
    assert set_distance(space, parts.a, parts.b) == 1
    ones = [(u, v) for u, v in space_pairs(space) if space.d(u, v) == 1]
    twos = [(u, v) for u, v in space_pairs(space) if space.d(u, v) == 2]
    assert len(ones) == 3 and len(twos) == 3
    assert verify_path_proximinal(graph, parts, space)


def space_pairs(space):
    pts = space.points
    return [(pts[i], pts[j]) for i in range(len(pts)) for j in range(i + 1, len(pts))]


def test_witness_metric_example_graph_round_trip():
    graph, parts = example_3_1()
    space = witness_metric_for_path_bipartite(graph, parts)
    assert build_threshold_graph(space, parts) == graph
    assert verify_path_proximinal(graph, parts, space)


def test_witness_metric_rejects_non_path_bipartite():
    g = build_graph(["a", "b", "c"], [["a", "b"]])
    with pytest.raises(GraphError, match="not path-bipartite"):
        witness_metric_for_path_bipartite(g, Bipartition.of(["a"], ["b", "c"]))


def test_certificate_for_connected_graphs():
    graph, _ = example_3_1()
    certificate = is_path_proximinal_graph(graph)
    assert certificate is not None
    assert certificate.verify()


def test_certificate_absent_with_isolated_vertex():
    g = build_graph(["a", "b", "c"], [["a", "b"]])
    assert is_path_proximinal_graph(g) is None
    assert is_path_proximinal_graph(build_graph(["a", "b", "c"], [])) is None
    assert is_path_proximinal_graph(example_3_16()) is None


def test_prop_3_22_matching_saturates():
    g = matching_2k2()
    parts = Bipartition.of(["a", "c"], ["b", "d"])
    space = witness_proximinal_metric(g, parts)
    assert check_prop_3_22(g, parts, space)


def test_prop_3_22_single_edge_on_four_vertices():
    g = build_graph(["a1", "a2", "b1", "b2"], [["a1", "b1"]])
    parts = Bipartition.of(["a1", "a2"], ["b1", "b2"])
    space = witness_proximinal_metric(g, parts)
    assert not check_prop_3_22(g, parts, space)
    assert g.isolated_vertices() == {"a2", "b2"}


def test_prop_3_22_k11():
    g = build_graph(["a", "b"], [["a", "b"]])
    parts = Bipartition.of(["a"], ["b"])
    assert check_prop_3_22(g, parts, witness_proximinal_metric(g, parts))


def test_prop_3_22_requires_proximinal_certificate():
    space, parts = example_3_2()
    g = build_threshold_graph(space, parts)  # has within-part edges
    with pytest.raises(GraphError, match="proximinal graph"):
        check_prop_3_22(g, parts, space)


def test_within_part_separation():
    graph, parts = example_3_7()
    space = witness_metric_for_path_bipartite(graph, parts)
    assert check_within_part_separation(space, parts)
    hspace, hparts = example_3_2()
    assert hspace.d("x2", "x9") == 1  # a within-A pair at the threshold
    assert not check_within_part_separation(hspace, hparts)
    two = build_space(["a", "b"], [[0, 1], [1, 0]])
    assert check_within_part_separation(two, Bipartition.of(["a"], ["b"]))
    # a denominator past 512 bits keeps the rows Fractions: the within-part pair (c, d) decides
    near, far = Fraction(1, 2**607 - 1), Fraction(1, 2**521 - 1)
    for cd, separated in ((far, True), (near, False), (near / 2, False)):
        space = build_space(["a", "b", "c", "d"], [[0, far, near, far], [far, 0, far, near],
                                                   [near, far, 0, cd], [far, near, cd, 0]])
        assert type(space.rows[0][1]) is Fraction
        assert check_within_part_separation(space, Bipartition.of(["a", "b"], ["c", "d"])) is separated
    with pytest.raises(GraphError, match=r"uncovered=\['d'\], extraneous=\[\]"):
        check_within_part_separation(space, Bipartition.of(["a", "b"], ["c"]))


def test_all_degrees_one():
    assert all_degrees_one(matching_2k2())
    assert not all_degrees_one(build_graph(["a", "b", "c"], [["a", "b"], ["b", "c"]]))
    assert not all_degrees_one(build_graph(["a", "b"], []))
    assert not all_degrees_one(SimpleGraph(frozenset(), frozenset()))
    # 2|E| = |V| holds but the ends repeat: a path a-b-c beside an isolated d, and P3 + K2 + K1
    assert not all_degrees_one(build_graph(["a", "b", "c", "d"], [["a", "b"], ["b", "c"]]))
    assert not all_degrees_one(build_graph(["a", "b", "c", "d", "e", "f"], [["a", "b"], ["b", "c"], ["d", "e"]]))


def test_witness_ultrametric_2k2():
    certificate = witness_ultrametric(matching_2k2())
    assert certificate is not None
    assert classify(certificate.space) is SpaceClass.ULTRAMETRIC
    assert certificate.verify()
    # smaller endpoint of each matched pair lands in part A
    assert certificate.parts.a == {"a", "c"}


def test_witness_ultrametric_absent_for_p3():
    p3 = build_graph(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    assert witness_ultrametric(p3) is None


def test_witness_ultrametric_k2():
    certificate = witness_ultrametric(build_graph(["a", "b"], [["a", "b"]]))
    assert certificate is not None
    assert certificate.space.d("a", "b") == 1


def test_corollary_3_12():
    assert check_corollary_3_12(matching_2k2())
    assert not check_corollary_3_12(example_3_7()[0])
    assert not check_corollary_3_12(build_graph(["a", "b", "c"], [["a", "b"]]))


def test_verified_instances_have_positive_separation():
    # a verified certificate always has dist(A, B) > 0 attained by some pair
    from proxigraph import proximity_report

    cases = [example_3_2()]
    graph37, parts37 = example_3_7()
    cases.append((witness_metric_for_path_bipartite(graph37, parts37), parts37))
    for space, parts in cases:
        graph = build_threshold_graph(space, parts)
        assert verify_path_proximinal(graph, parts, space)
        report = proximity_report(space, parts)
        assert report.distance > 0
        assert report.pairs


def test_structural_equivalence_with_path_bipartite_threshold():
    # the reachability conditions match path-bipartiteness of the threshold graph
    from proxigraph.instances import random_semimetric_space

    for seed in range(25):
        space = random_semimetric_space(5, seed)
        for parts in all_bipartitions(space.point_set()):
            threshold = build_threshold_graph(space, parts)
            assert check_structural_conditions(space, parts) == is_path_bipartite(threshold, parts)
