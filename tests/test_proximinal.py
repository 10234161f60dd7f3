"""Proximinal bipartite graphs and their witness metrics."""

from fractions import Fraction

import pytest

from proxigraph import (
    Bipartition,
    GraphError,
    SimpleGraph,
    SpaceClass,
    build_graph,
    build_proximinal_graph,
    build_space,
    classify,
    set_distance,
    verify_proximinal_graph,
    witness_proximinal_metric,
)
from proxigraph.graphs import edge_key
from proxigraph.instances import (
    all_bipartitions,
    enumerate_labeled_graphs,
    example_3_2,
    random_graph,
    random_semimetric_space,
)
from proxigraph.proximinal import adjacency_metric, is_bipartite_with_parts


def has_edge_table(graph):
    """The {0,1,2} table read pair by pair through `has_edge`: the oracle of `adjacency_metric`."""
    pts = graph.sorted_vertices()
    return tuple(
        tuple(Fraction(0) if p == q else Fraction(1 if graph.has_edge(p, q) else 2) for q in pts)
        for p in pts
    )


def test_adjacency_metric_matches_pairwise_edge_lookups():
    graphs = [g for n in range(1, 6) for g in enumerate_labeled_graphs(n)]
    graphs.append(random_graph(200, "1/20", 3))
    assert len(graphs) == 1 + 2 + 8 + 64 + 1024 + 1
    for graph in graphs:
        space = adjacency_metric(graph)
        assert space.points == tuple(graph.sorted_vertices())
        assert space.table == has_edge_table(graph)
        assert all(type(v) is Fraction for row in space.table for v in row)


def test_adjacency_metric_arrives_with_the_scaled_table_of_its_fractions():
    # the view is 1 on edges and 2 on other distinct pairs, and build_space on it gives the same space: scale 1
    for n in range(1, 7):
        for graph in enumerate_labeled_graphs(n):
            space = adjacency_metric(graph)
            assert space.table == has_edge_table(graph)
            assert space == build_space(space.points, space.table)


def test_two_point_space_gives_k2():
    s = build_space(["a", "b"], [[0, 1], [1, 0]])
    g = build_proximinal_graph(s, Bipartition.of(["a"], ["b"]))
    assert g.edges == {("a", "b")}


def test_hypercube_proximinal_graph_is_the_14_cross_edges():
    space, parts = example_3_2()
    g = build_proximinal_graph(space, parts)
    assert len(g.edges) == 14
    assert all((u in parts.a) != (v in parts.a) for u, v in g.edges)
    assert all(space.d(u, v) == 1 for u, v in g.edges)


def test_unique_minimum_gives_single_edge():
    s = build_space(
        ["a1", "a2", "b1", "b2"],
        [[0, 2, 1, 2], [2, 0, 2, 2], [1, 2, 0, 2], [2, 2, 2, 0]],
    )
    g = build_proximinal_graph(s, Bipartition.of(["a1", "a2"], ["b1", "b2"]))
    assert g.edges == {("a1", "b1")}


def test_build_requires_covering_partition():
    s = build_space(["a", "b", "c"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    with pytest.raises(GraphError, match="cover"):
        build_proximinal_graph(s, Bipartition.of(["a"], ["b"]))


def test_verify_round_trip():
    space, parts = example_3_2()
    g = build_proximinal_graph(space, parts)
    assert verify_proximinal_graph(g, parts, space)
    assert scan_is_proximinal_graph(g, parts, space)


def scan_is_proximinal_graph(graph, parts, space):
    """The pairwise scan through `space.d`: the oracle of `verify_proximinal_graph` when A ∪ B covers the graph."""
    dist = min(space.d(x, y) for x in parts.a for y in parts.b)
    return is_bipartite_with_parts(graph, parts) and all(
        graph.has_edge(x, y) == (space.d(x, y) == dist) for x in parts.a for y in parts.b
    )


def best_pair_variants(space, parts):
    """The best-pair graph found by a scan; it minus one edge; plus one cross edge; with one edge
    moved to another cross pair (the edge count kept); plus one edge inside a part."""
    cross = sorted(edge_key(x, y) for x in parts.a for y in parts.b)
    dist = min(space.d(x, y) for x, y in cross)
    best = frozenset(e for e in cross if space.d(*e) == dist)
    other = [e for e in cross if e not in best]
    inner = [edge_key(x, y) for side in (parts.a, parts.b) for x in side for y in side if x < y]
    first = min(best)
    variants = [best, best - {first}]
    if other:
        variants += [best | {other[0]}, best - {first} | {other[0]}]
    if inner:
        variants.append(best | {inner[0]})
    return [SimpleGraph(parts.union, edges) for edges in variants]


def test_verify_matches_the_pairwise_scan_on_random_semimetric_spaces():
    answers = []
    for seed in range(40):
        space = random_semimetric_space(2 + seed % 5, seed)
        for parts in all_bipartitions(space.point_set()):
            graphs = best_pair_variants(space, parts)
            assert build_proximinal_graph(space, parts) == graphs[0]
            for graph in graphs:
                answers.append(verify_proximinal_graph(graph, parts, space))
                assert answers[-1] == scan_is_proximinal_graph(graph, parts, space)
    assert answers.count(True) == sum(2 ** (2 + seed % 5) - 2 for seed in range(40)) < answers.count(False)


def test_verify_fails_with_edge_deleted():
    space, parts = example_3_2()
    g = build_proximinal_graph(space, parts)
    edge = g.sorted_edges()[0]
    smaller = SimpleGraph(g.vertices, g.edges - {edge})
    assert not verify_proximinal_graph(smaller, parts, space)


def test_verify_fails_with_within_part_edge():
    space, parts = example_3_2()
    g = build_proximinal_graph(space, parts)
    a1, a2 = sorted(parts.a)[:2]
    bigger = SimpleGraph(g.vertices, g.edges | {(a1, a2)})
    assert not verify_proximinal_graph(bigger, parts, space)


def test_verify_rejects_vertex_mismatch():
    space, parts = example_3_2()
    g = build_graph(["a", "b"], [["a", "b"]])
    with pytest.raises(GraphError, match="differ"):
        verify_proximinal_graph(g, parts, space)


def test_witness_metric_k2():
    g = build_graph(["a", "b"], [["a", "b"]])
    parts = Bipartition.of(["a"], ["b"])
    s = witness_proximinal_metric(g, parts)
    assert s.d("a", "b") == 1
    assert verify_proximinal_graph(g, parts, s)


def test_witness_metric_star():
    g = build_graph(["c", "l1", "l2", "l3"], [["c", "l1"], ["c", "l2"], ["c", "l3"]])
    parts = Bipartition.of(["c"], ["l1", "l2", "l3"])
    s = witness_proximinal_metric(g, parts)
    assert s.d("c", "l1") == 1
    assert s.d("l1", "l2") == 2
    assert set_distance(s, parts.a, parts.b) == 1
    assert verify_proximinal_graph(g, parts, s)


def test_witness_metric_rejects_empty_graph():
    g = build_graph(["a1", "a2", "b1", "b2"], [])
    parts = Bipartition.of(["a1", "a2"], ["b1", "b2"])
    with pytest.raises(GraphError, match="empty"):
        witness_proximinal_metric(g, parts)


def test_witness_metric_rejects_non_bipartite():
    g = build_graph(["a1", "a2", "b1"], [["a1", "a2"], ["a1", "b1"]])
    parts = Bipartition.of(["a1", "a2"], ["b1"])
    with pytest.raises(GraphError, match="not bipartite"):
        witness_proximinal_metric(g, parts)


def test_witness_values_form_a_metric():
    g = build_graph(["a1", "a2", "b1", "b2"], [["a1", "b1"], ["a2", "b2"]])
    parts = Bipartition.of(["a1", "a2"], ["b1", "b2"])
    s = witness_proximinal_metric(g, parts)
    assert classify(s) in (SpaceClass.METRIC, SpaceClass.ULTRAMETRIC)
    values = {v for row in s.table for v in row}
    assert values <= {Fraction(0), Fraction(1), Fraction(2)}


def test_round_trip_all_nonempty_bipartite_graphs_up_to_6():
    # every nonempty bipartite-with-parts graph is realized by its witness
    for n in range(2, 7):
        graphs = list(enumerate_labeled_graphs(n))
        partitions = list(all_bipartitions(graphs[0].vertices))
        for graph in graphs:
            if not graph.edges:
                continue
            for parts in partitions:
                if not is_bipartite_with_parts(graph, parts):
                    continue
                space = witness_proximinal_metric(graph, parts)
                assert verify_proximinal_graph(graph, parts, space)
                assert set_distance(space, parts.a, parts.b) == 1


def test_build_output_is_nonempty_and_tight():
    # in a finite space the minimum is attained: at least one edge, all tight
    space, parts = example_3_2()
    g = build_proximinal_graph(space, parts)
    assert g.edges
    dist = set_distance(space, parts.a, parts.b)
    assert all(space.d(u, v) == dist for u, v in g.edges)
