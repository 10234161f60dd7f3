"""Graph core: construction, induced subgraphs, components, paths, unions."""

import operator
import random

import pytest

from proxigraph import (
    Bipartition,
    GraphError,
    SimpleGraph,
    build_graph,
    connected_components,
    find_path,
    graph_union,
    induced_bipartite_subgraph,
    induced_subgraph,
    is_connected,
    prune_isolated,
    validate_path,
)
from proxigraph import graphs as graphs_module
from proxigraph.graphs import check_label, induced_components
from proxigraph.instances import (
    all_bipartitions,
    enumerate_labeled_graphs,
    example_3_1,
    example_3_2,
    hamming_graph,
    random_graph,
)
from proxigraph.path_proximinal import check_corollary_3_12


def p4():
    return build_graph(["a1", "b1", "a2", "b2"], [["a1", "b1"], ["b1", "a2"], ["a2", "b2"]])


def two_disjoint_edges():
    return build_graph(["a", "b", "c", "d"], [["a", "b"], ["c", "d"]])


def test_build_k2():
    g = build_graph(["a", "b"], [["a", "b"]])
    assert g.vertices == {"a", "b"}
    assert len(g.edges) == 1


def test_build_rejects_loop():
    with pytest.raises(GraphError, match="loop edge at vertex 'a'"):
        build_graph(["a"], [["a", "a"]])


@pytest.mark.parametrize("edge", [["a", "b", "c"], ["a"]], ids=["three-endpoints", "one-endpoint"])
def test_build_rejects_an_edge_without_two_endpoints(edge):
    with pytest.raises(GraphError, match="must have exactly 2 endpoints"):
        build_graph(["a", "b", "c"], [edge])


def test_build_rejects_duplicate_vertex():
    with pytest.raises(GraphError, match="duplicate vertex 'a'"):
        build_graph(["a", "a"], [])


def test_build_rejects_unknown_endpoint():
    with pytest.raises(GraphError, match="unknown edge endpoint 'c'"):
        build_graph(["a", "b"], [["a", "c"]])


def test_build_rejects_bad_labels():
    with pytest.raises(GraphError, match="bad vertex label"):
        build_graph(["a b"], [])
    with pytest.raises(GraphError, match="bad vertex label"):
        build_graph([""], [])


def test_labels_with_any_whitespace_code_point_are_rejected():
    spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
    assert len(spaces) >= 25  # the ASCII, Latin-1 and Unicode separators
    for ch in spaces:
        for label in ("a" + ch + "b", ch, ch + "a"):
            with pytest.raises(GraphError) as info:
                check_label(label)
            assert str(info.value) == f"bad vertex label {label!r}: need a nonempty token without whitespace"
    for label in ("", 3, None):
        with pytest.raises(GraphError, match="bad vertex label"):
            check_label(label)
    assert check_label("a\u200bb") == "a\u200bb"  # a zero-width space is not whitespace to str.isspace


def test_build_collapses_duplicate_edges():
    g = build_graph(["a", "b"], [["a", "b"], ["b", "a"]])
    assert len(g.edges) == 1


def test_example_graph_has_25_edges():
    graph, _ = example_3_1()
    assert len(graph.vertices) == 16
    assert len(graph.edges) == 25


def test_induced_subgraph_p4_one_side():
    g = induced_subgraph(p4(), {"a1", "a2"})
    assert g.vertices == {"a1", "a2"}
    assert g.edges == frozenset()


def test_induced_subgraph_identity():
    g = p4()
    assert induced_subgraph(g, g.vertices) == g


def test_induced_subgraph_hypercube_part_a():
    space, parts = example_3_2()
    g = induced_subgraph(hamming_graph(space), parts.a)
    blocks = connected_components(g)
    assert frozenset({"x1"}) in blocks
    assert frozenset({"x2", "x3", "x4", "x9", "x10", "x11", "x12"}) in blocks
    assert len(blocks) == 2


def test_induced_subgraph_errors():
    with pytest.raises(GraphError, match="nonempty"):
        induced_subgraph(p4(), set())
    with pytest.raises(GraphError, match="not contained"):
        induced_subgraph(p4(), {"a1", "zz"})


def test_induced_bipartite_k2():
    g = build_graph(["a", "b"], [["a", "b"]])
    parts = Bipartition.of(["a"], ["b"])
    assert induced_bipartite_subgraph(g, parts) == g


def test_induced_bipartite_p4_keeps_all_edges():
    g = p4()
    parts = Bipartition.of(["a1", "a2"], ["b1", "b2"])
    assert induced_bipartite_subgraph(g, parts) == g


def test_induced_bipartite_hypercube_has_14_cross_edges():
    space, parts = example_3_2()
    cross = induced_bipartite_subgraph(hamming_graph(space), parts)
    assert len(cross.edges) == 14


def test_induced_bipartite_rejects_unknown_vertices():
    with pytest.raises(GraphError, match="unknown vertices"):
        induced_bipartite_subgraph(p4(), Bipartition.of(["a1"], ["zz"]))


def test_components_two_disjoint_edges():
    blocks = connected_components(two_disjoint_edges())
    assert blocks == [frozenset({"a", "b"}), frozenset({"c", "d"})]


def test_components_example_graph_connected():
    graph, _ = example_3_1()
    assert len(connected_components(graph)) == 1


def test_components_partition_vertex_set():
    for n in range(1, 5):
        for graph in enumerate_labeled_graphs(n):
            blocks = connected_components(graph)
            union = set()
            for block in blocks:
                assert not union & block
                union |= block
            assert union == graph.vertices


def _assert_components_match_reachability(graph, pairs):
    blocks = connected_components(graph)
    assert sorted(v for block in blocks for v in block) == graph.sorted_vertices()
    assert [min(block) for block in blocks] == sorted(min(block) for block in blocks)
    block_of = {v: i for i, block in enumerate(blocks) for v in block}
    for u, v in pairs:
        assert (block_of[u] == block_of[v]) == (find_path(graph, u, v) is not None)


def test_components_match_reachability_on_small_graphs():
    for n in range(1, 6):
        for graph in enumerate_labeled_graphs(n):
            labels = graph.sorted_vertices()
            pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]
            _assert_components_match_reachability(graph, pairs)


def test_memoised_components_equal_connected_components():
    for n in range(1, 6):
        for graph in enumerate_labeled_graphs(n):
            blocks = connected_components(graph)  # the memo's own frozensets
            assert len(blocks) == len(graph._blocks) and all(map(operator.is_, blocks, graph._blocks.values()))
            assert list(graph._blocks) == [min(block) for block in blocks]
            assert graph._blocks is graph._blocks


def test_every_whole_graph_component_question_reads_the_block_memo(monkeypatch):
    family = [graph for n in range(1, 6) for graph in enumerate_labeled_graphs(n)]
    expected = [(is_connected(graph), check_corollary_3_12(graph)) for graph in family]
    family = [graph for n in range(1, 6) for graph in enumerate_labeled_graphs(n)]  # fresh objects, no memo yet
    assert all(graph._blocks for graph in family)  # each graph's blocks are read, and kept, before the patch

    def unreachable(vertices, edges):
        raise AssertionError("a component question recomputed the blocks")

    monkeypatch.setattr(graphs_module, "component_roots", unreachable)
    assert [(is_connected(graph), check_corollary_3_12(graph)) for graph in family] == expected


def test_induced_components_equal_the_components_of_every_induced_subgraph():
    for n in range(1, 6):
        subsets = None
        for graph in enumerate_labeled_graphs(n):
            labels = graph.sorted_vertices()
            subsets = subsets or [frozenset(labels[i] for i in range(n) if mask >> i & 1)
                                  for mask in range(1, 2 ** n)]
            for subset in subsets:
                assert list(induced_components(graph, subset)) == \
                    connected_components(induced_subgraph(graph, subset))
            assert len(graph._induced) == len(subsets)
            assert all(induced_components(graph, subset) is graph._induced[subset] for subset in subsets)


def test_induced_components_are_kept_per_host_graph_and_check_the_subset():
    graph = build_graph(["a", "b", "c"], [["a", "b"]])
    twin = build_graph(["a", "b", "c"], [["b", "c"]])
    ab = frozenset({"a", "b"})
    assert induced_components(graph, ab) == (ab,)
    assert induced_components(twin, ab) == (frozenset({"a"}), frozenset({"b"}))
    for bad, message in ((frozenset({"a", "zz"}), "not contained"), (frozenset(), "nonempty")):
        with pytest.raises(GraphError, match=message):
            induced_components(graph, bad)
        assert bad not in graph._induced


@pytest.mark.parametrize("cut", [None, 500], ids=["path", "path-cut-at-v500"])
def test_components_of_a_long_path_with_shuffled_edges(cut):
    labels = [f"v{i}" for i in range(1, 801)]  # "v10" sorts before "v2"
    edges = [[labels[i], labels[i + 1]] for i in range(799) if i + 1 != cut]
    random.Random(3).shuffle(edges)
    graph = build_graph(labels, edges)
    blocks = connected_components(graph)
    if cut is None:
        assert blocks == [graph.vertices]
    else:
        assert blocks == [frozenset(labels[:cut]), frozenset(labels[cut:])]
        assert min(blocks[1]) == "v501"
    sample = [(labels[i], labels[j]) for i in range(0, 800, 97) for j in range(1, 800, 89)]
    _assert_components_match_reachability(graph, [(u, v) for u, v in sample if u != v])


def test_prune_isolated_drops_spectator():
    g = build_graph(["a", "b", "c"], [["a", "b"]])
    assert prune_isolated(g) == build_graph(["a", "b"], [["a", "b"]])


def test_prune_isolated_connected_unchanged():
    graph, _ = example_3_1()
    assert prune_isolated(graph) == graph


def test_prune_isolated_rejects_empty_graph():
    g = build_graph(["a", "b", "c"], [])
    with pytest.raises(GraphError, match="empty graph"):
        prune_isolated(g)


def test_prune_isolated_idempotent_and_degree_positive():
    for graph in enumerate_labeled_graphs(4):
        if not graph.edges:
            continue
        pruned = prune_isolated(graph)
        assert prune_isolated(pruned) == pruned
        assert not pruned.isolated_vertices()


def test_prune_isolated_extremal_property():
    # the pruned graph is the unique edge-preserving subgraph without
    # isolated vertices among all supergraphs of itself inside G
    from itertools import combinations

    for graph in enumerate_labeled_graphs(4):
        if not graph.edges:
            continue
        pruned = prune_isolated(graph)
        spare = sorted(graph.vertices - pruned.vertices)
        for k in range(len(spare) + 1):
            for extra in combinations(spare, k):
                candidate = SimpleGraph(pruned.vertices | set(extra), graph.edges)
                no_isolated = not candidate.isolated_vertices()
                assert no_isolated == (candidate == pruned)


def test_is_connected():
    assert is_connected(p4())
    assert not is_connected(two_disjoint_edges())
    assert is_connected(build_graph(["a"], []))


def test_find_path_p4():
    assert find_path(p4(), "a1", "b2") == ("a1", "b1", "a2", "b2")


def test_find_path_absent_across_components():
    assert find_path(two_disjoint_edges(), "a", "c") is None


def test_find_path_hypercube_deterministic():
    space, _ = example_3_2()
    q4 = hamming_graph(space)
    path = find_path(q4, "x2", "x5")
    assert path == ("x2", "x6", "x1", "x5")
    assert validate_path(q4, path) == path


def test_find_path_errors():
    with pytest.raises(GraphError, match="unknown vertex"):
        find_path(p4(), "a1", "zz")
    with pytest.raises(GraphError, match="endpoints must differ"):
        find_path(p4(), "a1", "a1")


def test_find_path_output_is_valid_path():
    for seed in range(10):
        graph = random_graph(7, "1/3", seed)
        for block in connected_components(graph):
            labels = sorted(block)
            for i in range(len(labels)):
                for j in range(i + 1, len(labels)):
                    path = find_path(graph, labels[i], labels[j])
                    assert path is not None
                    assert validate_path(graph, path) == path


def test_graph_union_of_subpaths_is_p4():
    g = p4()
    pieces = [
        build_graph(["a1", "b1"], [["a1", "b1"]]),
        build_graph(["b1", "a2"], [["b1", "a2"]]),
        build_graph(["a2", "b2"], [["a2", "b2"]]),
    ]
    assert graph_union(pieces) == g


def test_graph_union_identity_and_empty():
    g = p4()
    assert graph_union([g]) == g
    with pytest.raises(GraphError, match="empty list"):
        graph_union([])


def test_union_of_induced_parts_recovers_graph():
    # The three induced pieces G[A], G[B], G[A,B] always reassemble G.
    for n in range(2, 6):
        graphs = list(enumerate_labeled_graphs(n))
        partitions = list(all_bipartitions(graphs[0].vertices))
        for graph in graphs:
            for parts in partitions:
                pieces = [
                    induced_subgraph(graph, parts.a),
                    induced_subgraph(graph, parts.b),
                    induced_bipartite_subgraph(graph, parts),
                ]
                assert graph_union(pieces) == graph


def test_union_of_overlapping_connected_graphs_is_connected():
    built = 0
    for seed in range(40):
        g1 = random_graph(5, "2/3", seed)
        g2_src = random_graph(5, "2/3", seed + 1000)
        # shift labels so the vertex sets overlap on two vertices
        shift = {f"v{i}": f"v{i + 3}" for i in range(1, 6)}
        g2 = SimpleGraph(
            frozenset(shift[v] for v in g2_src.vertices),
            frozenset(tuple(sorted((shift[u], shift[v]))) for u, v in g2_src.edges),
        )
        if not (is_connected(g1) and is_connected(g2)):
            continue
        assert g1.vertices & g2.vertices
        assert is_connected(graph_union([g1, g2]))
        built += 1
    assert built >= 10


def test_bipartition_validation():
    with pytest.raises(GraphError, match="nonempty"):
        Bipartition.of([], ["b"])
    with pytest.raises(GraphError, match="overlap"):
        Bipartition.of(["a", "b"], ["b", "c"])
    parts = Bipartition.of(["a"], ["b"])
    assert Bipartition(parts.b, parts.a).a == frozenset({"b"})


def test_validate_path_errors():
    g = p4()
    with pytest.raises(GraphError, match="at least 2"):
        validate_path(g, ["a1"])
    with pytest.raises(GraphError, match="repeated vertices"):
        validate_path(g, ["a1", "b1", "a1"])
    with pytest.raises(GraphError, match="not adjacent"):
        validate_path(g, ["a1", "a2"])
    with pytest.raises(GraphError, match="unknown vertices"):
        validate_path(g, ["a1", "zz"])
