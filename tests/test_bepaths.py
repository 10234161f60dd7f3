"""Be-paths, B_path, path-completeness, quotient, canonical partitions."""

import random
from itertools import permutations

import pytest

from proxigraph import (
    Bipartition,
    GraphError,
    SimpleGraph,
    be_path_witness,
    bpath_pairs,
    build_graph,
    connected_components,
    enumerate_be_paths,
    find_path_bipartite_partition,
    induced_subgraph,
    is_be_path,
    is_path_bipartite,
    is_path_complete,
    is_quotient_complete_bipartite,
    quotient_graph,
    union_of_be_paths,
)
from proxigraph.bepaths import be_paths_from_a, pairs_from_witnesses, path_bipartite_defect, path_complete_defect
from proxigraph.graphs import edge_key
from proxigraph.theorems import _labeled_graphs, _with_bipartitions
from proxigraph.instances import (
    all_bipartitions,
    enumerate_labeled_graphs,
    example_3_1,
    example_3_7,
    example_3_12_truncation,
    random_graph,
    TruncationParams,
)
from proxigraph.path_proximinal import build_threshold_graph


def k2():
    return build_graph(["a", "b"], [["a", "b"]]), Bipartition.of(["a"], ["b"])


def k2_plus_isolated():
    g = build_graph(["a", "b", "c"], [["a", "b"]])
    return g, Bipartition.of(["a"], ["b", "c"])


def test_is_be_path_accepts_single_crossing():
    graph, parts = example_3_1()
    witness = is_be_path(graph, ("x4", "x7", "x15"), parts)
    assert witness is not None
    assert witness.crossing_edge == ("x4", "x7")
    assert witness.crossing_index == 0


def test_is_be_path_rejects_double_crossing():
    graph, parts = example_3_7()
    assert is_be_path(graph, ("a1", "b1", "a2"), parts) is None


def test_is_be_path_rejects_a_path_leaving_the_parts():
    graph = build_graph(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    parts = Bipartition.of(["a"], ["b"])
    assert is_be_path(graph, ("a", "b"), parts) is not None
    assert is_be_path(graph, ("a", "b", "c"), parts) is None


def test_is_be_path_rejects_vertex_repeats_as_non_path():
    graph, parts = example_3_1()
    walk = ("x4", "x7", "x13", "x16", "x14", "x6", "x13", "x16", "x15")
    with pytest.raises(GraphError, match=r"repeated vertices \['x13', 'x16'\]"):
        is_be_path(graph, walk, parts)


def test_is_be_path_rejects_non_adjacent():
    graph, parts = example_3_7()
    with pytest.raises(GraphError, match="not adjacent"):
        is_be_path(graph, ("a1", "a2"), parts)


def test_is_path_bipartite_example_graph():
    graph, parts = example_3_1()
    assert is_path_bipartite(graph, parts)


def test_is_path_bipartite_fails_across_components():
    g = build_graph(["a", "b", "c", "d"], [["a", "b"], ["c", "d"]])
    parts = Bipartition.of(["a", "b"], ["c", "d"])
    assert not is_path_bipartite(g, parts)


def test_is_path_bipartite_fails_with_isolated_vertex():
    g, parts = k2_plus_isolated()
    assert not is_path_bipartite(g, parts)
    assert not is_path_bipartite(g, Bipartition.of(["a", "c"], ["b"]))


def test_is_path_bipartite_fails_without_covering():
    g = build_graph(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    assert not is_path_bipartite(g, Bipartition.of(["a"], ["b"]))


def test_bpath_pairs_k2():
    g, parts = k2()
    assert bpath_pairs(g, parts) == {("a", "b")}


def test_bpath_pairs_p4():
    graph, parts = example_3_7()
    assert bpath_pairs(graph, parts) == {("a1", "b1"), ("a2", "b1"), ("a2", "b2")}


def test_bpath_pairs_example_graph_is_all_of_a_times_b():
    graph, parts = example_3_1()
    pairs = bpath_pairs(graph, parts)
    assert len(pairs) == 64
    assert pairs == frozenset((a, b) for a in parts.a for b in parts.b)


def test_bpath_pairs_requires_covering():
    g = build_graph(["a", "b", "c"], [["a", "b"]])
    with pytest.raises(GraphError, match="cover"):
        bpath_pairs(g, Bipartition.of(["a"], ["b"]))


def test_be_path_witness_found_and_validates():
    graph, parts = example_3_1()
    witness = be_path_witness(graph, parts, "x4", "x15")
    assert witness is not None
    assert witness.path[0] == "x4" and witness.path[-1] == "x15"
    assert is_be_path(graph, witness.path, parts) is not None


def test_be_path_witness_absent_pair():
    graph, parts = example_3_7()
    assert be_path_witness(graph, parts, "a1", "b2") is None


def test_be_path_witness_k2():
    g, parts = k2()
    witness = be_path_witness(g, parts, "a", "b")
    assert witness.path == ("a", "b")


def test_be_path_witness_matches_membership():
    # a witness exists exactly for the joinable pairs, and always re-validates
    for seed in range(8):
        graph = random_graph(6, "2/5", seed)
        for parts in list(all_bipartitions(graph.vertices))[:6]:
            pairs = bpath_pairs(graph, parts)
            for a in sorted(parts.a):
                for b in sorted(parts.b):
                    witness = be_path_witness(graph, parts, a, b)
                    if (a, b) in pairs:
                        assert witness is not None
                        assert witness.path[0] == a and witness.path[-1] == b
                        assert is_be_path(graph, witness.path, parts) is not None
                    else:
                        assert witness is None


def test_be_path_witness_wrong_side():
    graph, parts = example_3_7()
    with pytest.raises(GraphError, match="not in part A"):
        be_path_witness(graph, parts, "b1", "b2")
    with pytest.raises(GraphError, match="not in part B"):
        be_path_witness(graph, parts, "a1", "a2")


def test_enumerate_k2_two_directions():
    g, parts = k2()
    witnesses = enumerate_be_paths(g, parts)
    assert {w.path for w in witnesses} == {("a", "b"), ("b", "a")}


def test_enumerate_p4():
    graph, parts = example_3_7()
    witnesses = enumerate_be_paths(graph, parts)
    assert len(witnesses) == 6
    pairs = pairs_from_witnesses([w.path for w in witnesses], parts)
    assert pairs == {("a1", "b1"), ("a2", "b1"), ("a2", "b2")}
    assert ("a1", "b2") not in pairs


def test_enumerate_empty_graph():
    g = build_graph(["a", "b"], [])
    assert enumerate_be_paths(g, Bipartition.of(["a"], ["b"])) == []


def test_enumerate_rejects_large_graphs():
    labels = [f"v{i}" for i in range(1, 12)]
    g = build_graph(labels, [[labels[i], labels[i + 1]] for i in range(10)])
    with pytest.raises(GraphError, match="limited to 10"):
        enumerate_be_paths(g, Bipartition.of(labels[:1], labels[1:]))


def test_enumerate_accepts_a_graph_at_the_bound():
    labels = [f"v{i}" for i in range(10)]
    g = build_graph(labels, [[labels[i], labels[i + 1]] for i in range(9)])
    paths = {w.path for w in enumerate_be_paths(g, Bipartition.of(labels[:5], labels[5:]))}
    # each subpath through the crossing edge v4-v5, from either end
    spans = {tuple(labels[i:j]) for i in range(5) for j in range(6, 11)}
    assert paths == spans | {path[::-1] for path in spans} and len(paths) == 50


def test_the_search_finds_exactly_the_be_paths_of_the_definition():
    # the search hands out one live list; both streams are collected before they are read,
    # so one that passed the live list on instead of a copy would read the same emptied list
    for graph, parts in _with_bipartitions(_labeled_graphs(4, 2)):
        witnesses = enumerate_be_paths(graph, parts)
        from_a = [tuple(path) for path in list(be_paths_from_a(graph, parts))]
        defined = {}
        for size in range(2, len(graph.vertices) + 1):
            for seq in permutations(graph.sorted_vertices(), size):
                if all(map(graph.has_edge, seq, seq[1:])):
                    witness = is_be_path(graph, seq, parts)
                    if witness is not None:
                        defined[seq] = witness.crossing_index
        assert len(witnesses) == len(defined)
        assert {w.path: w.crossing_index for w in witnesses} == defined
        assert len(from_a) == len(set(from_a))
        assert set(from_a) == {seq for seq in defined if seq[0] in parts.a}


def _some_instances():
    yield from _with_bipartitions(_labeled_graphs(4, 2))
    yield example_3_7()
    for seed in range(6):
        graph = random_graph(6, "1/2", seed)
        for parts in list(all_bipartitions(graph.vertices))[::7]:
            yield graph, parts


def test_a_stream_sees_each_path_once_from_its_a_end():
    for graph, parts in _some_instances():
        stream = list(be_paths_from_a(graph, parts))
        assert len(set(stream)) == len(stream)
        assert all(path[0] in parts.a for path in stream)
        both_ways = set(stream) | {path[::-1] for path in stream}
        assert both_ways == {w.path for w in enumerate_be_paths(graph, parts)}


def _full_union(witnesses):
    edges = {edge_key(u, v) for w in witnesses for u, v in zip(w.path, w.path[1:])}
    return SimpleGraph(frozenset(v for e in edges for v in e), frozenset(edges))


def test_early_stopped_union_and_pairs_equal_their_full_list_values():
    for graph, parts in _some_instances():
        witnesses = enumerate_be_paths(graph, parts)
        assert union_of_be_paths(graph, parts) == _full_union(witnesses)
        full_pairs = pairs_from_witnesses([w.path for w in witnesses], parts)
        assert pairs_from_witnesses(be_paths_from_a(graph, parts), parts) == full_pairs


def test_the_oracle_on_the_complement_order_is_its_answer_mirrored():
    # sweeps t3.4 and t3.9 enumerate one order of each complement pair and mirror its answer to the other
    for graph, parts in _some_instances():
        flipped = Bipartition(parts.b, parts.a)
        pairs = pairs_from_witnesses(be_paths_from_a(graph, parts), parts)
        assert pairs_from_witnesses(be_paths_from_a(graph, flipped), flipped) == {(b, a) for a, b in pairs}
        assert union_of_be_paths(graph, flipped) == union_of_be_paths(graph, parts)
        paths = {w.path for w in enumerate_be_paths(graph, parts)}
        assert {w.path for w in enumerate_be_paths(graph, flipped)} == paths


def test_pairs_from_witnesses_stops_once_every_pair_is_found():
    g, parts = k2()
    paths = iter([w.path for w in enumerate_be_paths(g, parts)])
    assert pairs_from_witnesses(paths, parts) == {("a", "b")}
    assert list(paths) == [("b", "a")]


def test_a_stream_checks_its_bounds_before_the_first_path():
    labels = [f"v{i}" for i in range(1, 12)]
    g = build_graph(labels, [[labels[i], labels[i + 1]] for i in range(10)])
    with pytest.raises(GraphError, match="limited to 10"):
        be_paths_from_a(g, Bipartition.of(labels[:1], labels[1:]))
    g, _ = k2_plus_isolated()
    with pytest.raises(GraphError, match="cover"):
        be_paths_from_a(g, Bipartition.of(["a"], ["b"]))


def test_every_witness_revalidates():
    for seed in range(10):
        graph = random_graph(6, "1/2", seed)
        for parts in list(all_bipartitions(graph.vertices))[:8]:
            for witness in enumerate_be_paths(graph, parts):
                again = is_be_path(graph, witness.path, parts)
                assert again is not None
                assert again.crossing_index == witness.crossing_index


def test_union_of_be_paths_p4_is_p4():
    graph, parts = example_3_7()
    assert union_of_be_paths(graph, parts) == graph


def test_union_of_be_paths_misses_isolated_vertex():
    g, parts = k2_plus_isolated()
    union = union_of_be_paths(g, parts)
    assert union == build_graph(["a", "b"], [["a", "b"]])


def test_union_equals_graph_on_path_bipartite_instances():
    found = 0
    for seed in range(30):
        graph = random_graph(6, "1/2", seed)
        for parts in list(all_bipartitions(graph.vertices))[:10]:
            if is_path_bipartite(graph, parts):
                assert union_of_be_paths(graph, parts) == graph
                # vertex cover comes with the territory
                assert parts.union == graph.vertices
                found += 1
    assert found > 20


def test_is_path_complete():
    graph, parts = example_3_7()
    assert not is_path_complete(graph, parts)
    g, kparts = k2()
    assert is_path_complete(g, kparts)
    space, tparts = example_3_12_truncation(TruncationParams(2, 2, 2))
    threshold = build_threshold_graph(space, tparts)
    assert is_path_complete(threshold, tparts)


def test_quotient_p4():
    graph, parts = example_3_7()
    q = quotient_graph(graph, parts)
    assert q.a_components == (frozenset({"a1"}), frozenset({"a2"}))
    assert q.b_components == (frozenset({"b1"}), frozenset({"b2"}))
    assert q.edges == {(0, 0), (1, 0), (1, 1)}
    assert not is_quotient_complete_bipartite(q)
    assert q.a_representatives == ("a1", "a2")


def test_quotient_example_graph_complete():
    graph, parts = example_3_1()
    q = quotient_graph(graph, parts)
    assert len(q.a_components) == 2
    assert len(q.b_components) == 2
    assert len(q.edges) == 4
    assert is_quotient_complete_bipartite(q)


def test_quotient_k2():
    g, parts = k2()
    q = quotient_graph(g, parts)
    assert len(q.a_components) == len(q.b_components) == 1
    assert q.edges == {(0, 0)}
    assert is_quotient_complete_bipartite(q)


def test_quotient_edges_match_bpath_block_membership():
    for seed in range(10):
        graph = random_graph(6, "2/5", seed)
        for parts in list(all_bipartitions(graph.vertices))[:6]:
            q = quotient_graph(graph, parts)
            pairs = bpath_pairs(graph, parts)
            for i, a_block in enumerate(q.a_components):
                for j, b_block in enumerate(q.b_components):
                    joined = any((a, b) in pairs for a in a_block for b in b_block)
                    assert joined == ((i, j) in q.edges)


def test_quotient_blocks_are_the_components_of_each_part():
    for graph, parts in _with_bipartitions(_labeled_graphs(5, 2)):
        q = quotient_graph(graph, parts)
        assert list(q.a_components) == connected_components(induced_subgraph(graph, parts.a))
        assert list(q.b_components) == connected_components(induced_subgraph(graph, parts.b))


def quotient_by_definition(graph, parts):
    """The components of G[A] and of G[B], and the block pairs some crossing edge joins."""
    a_comps = connected_components(induced_subgraph(graph, parts.a))
    b_comps = connected_components(induced_subgraph(graph, parts.b))
    block = {v: i for comps in (a_comps, b_comps) for i, comp in enumerate(comps) for v in comp}
    edges = {(block[x], block[y]) for u, v in graph.edges for x, y in ((u, v), (v, u))
             if x in parts.a and y in parts.b}
    return tuple(a_comps), tuple(b_comps), edges


@pytest.mark.parametrize("n", [50, 200, 800])
def test_quotient_matches_its_definition_on_large_random_graphs(n):
    for seed in range(2):
        graph = random_graph(n, f"3/{2 * n}", seed)
        labels = sorted(graph.vertices, key=lambda v: int(v[1:]))
        drawn = frozenset(random.Random(seed).sample(labels, n // 2))
        crossing_from_b = 0
        for a in (frozenset(labels[::2]), drawn):  # odd/even parts, then random ones
            parts = Bipartition(a, graph.vertices - a)
            q = quotient_graph(graph, parts)
            assert (q.a_components, q.b_components, q.edges) == quotient_by_definition(graph, parts)
            crossing_from_b += sum(u in parts.b and v in parts.a for u, v in graph.edges)
        assert crossing_from_b  # some crossing edge is stored with its end in B first


def test_find_path_bipartite_partition_k2():
    g, _ = k2()
    parts = find_path_bipartite_partition(g)
    assert parts == Bipartition.of(["a"], ["b"])


def test_find_path_bipartite_partition_example_graph():
    graph, _ = example_3_1()
    parts = find_path_bipartite_partition(graph)
    assert parts.a == {"x1"}
    assert parts.b == graph.vertices - {"x1"}
    assert is_path_bipartite(graph, parts)


def test_find_path_bipartite_partition_absent_cases():
    g, _ = k2_plus_isolated()
    assert find_path_bipartite_partition(g) is None
    assert find_path_bipartite_partition(build_graph(["a", "b"], [])) is None
    assert find_path_bipartite_partition(SimpleGraph(frozenset(), frozenset())) is None


def test_find_path_bipartite_partition_reads_isolation_off_its_own_blocks(monkeypatch):
    """The partition exists iff no vertex is isolated, the oracle of sweep t3.16,
    so the fast route must decide it without calling `isolated_vertices`."""
    family = [graph for n in range(1, 5) for graph in enumerate_labeled_graphs(n)]
    expected = [find_path_bipartite_partition(graph) for graph in family]
    assert [parts is None for parts in expected] == [bool(graph.isolated_vertices()) for graph in family]

    def raises(self):
        raise AssertionError("the fast route called isolated_vertices")

    monkeypatch.setattr(SimpleGraph, "isolated_vertices", raises)
    fresh = [SimpleGraph(graph.vertices, graph.edges) for graph in family]  # no memoised blocks
    assert [find_path_bipartite_partition(graph) for graph in fresh] == expected


def test_singleton_part_connected_iff_path_complete():
    # the sharp corner: with both parts of size >= 2, P4 is connected
    # but not path-complete
    graph, parts = example_3_7()
    assert not is_path_complete(graph, parts)
    for n in range(2, 6):
        graphs = list(enumerate_labeled_graphs(n))
        partitions = [
            p for p in all_bipartitions(graphs[0].vertices) if min(len(p.a), len(p.b)) == 1
        ]
        for graph in graphs:
            for parts in partitions:
                if not is_path_bipartite(graph, parts):
                    continue
                connected = len(graph.vertices) and is_connected_helper(graph)
                assert connected == is_path_complete(graph, parts)


def is_connected_helper(graph):
    from proxigraph import connected_components

    return len(connected_components(graph)) == 1


def _components_by_traversal(graph):
    """The components in order of smallest label, each found by one depth-first traversal."""
    neighbours = {v: [] for v in graph.vertices}
    for u, v in graph.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    seen = set()
    for start in sorted(graph.vertices):
        if start not in seen:
            block, stack = {start}, [start]
            while stack:
                for w in neighbours[stack.pop()]:
                    if w not in block:
                        block.add(w)
                        stack.append(w)
            seen |= block
            yield frozenset(block)


def test_path_bipartite_defect_names_the_first_component_missing_a_part():
    found = 0
    for graph, parts in _with_bipartitions(_labeled_graphs(5, 2)):
        expected = next(((part, block) for block in _components_by_traversal(graph)
                         for part, members in (("A", parts.a), ("B", parts.b)) if not block & members), None)
        assert path_bipartite_defect(graph, parts) == expected
        found += expected is not None and expected[0] == "B"
    assert found
    g, parts = k2_plus_isolated()
    assert path_bipartite_defect(g, Bipartition.of(["a"], ["b"])) == ("uncovered", frozenset({"c"}))


def test_path_complete_defect_matches_the_sorted_walk_over_enumerated_pairs():
    for graph, parts in _with_bipartitions(_labeled_graphs(5, 2)):
        pairs = pairs_from_witnesses(be_paths_from_a(graph, parts), parts)
        missing = [(a, b) for a in sorted(parts.a) for b in sorted(parts.b) if (a, b) not in pairs]
        assert path_complete_defect(graph, parts) == (("unjoined", len(missing), missing[0]) if missing else None)
