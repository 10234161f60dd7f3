"""Property tests: quotient-derived B_path against its two independent routes."""

from hypothesis import given, settings, strategies as st

from proxigraph import Bipartition, bpath_pairs, build_graph, enumerate_be_paths, is_path_complete
from proxigraph.bepaths import pairs_from_witnesses
from proxigraph.theorems import induced_bpath_pairs

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def graphs_with_parts(draw, max_n: int, max_edges: int):
    """A random graph on v00, v01, ... with a bipartition; v00 is in A and v01 in B."""
    n = draw(st.integers(2, max_n))
    labels = [f"v{i:02d}" for i in range(n)]
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=max_edges))
    in_a = [True, False] + draw(st.lists(st.booleans(), min_size=n - 2, max_size=n - 2))
    graph = build_graph(labels, [(labels[u], labels[v]) for u, v in pairs if u != v])
    parts = Bipartition.of(
        [v for v, side in zip(labels, in_a) if side], [v for v, side in zip(labels, in_a) if not side]
    )
    return graph, parts


@st.composite
def few_block_graphs(draw):
    """Parts of 1-3 blocks each, every block a path of 1-3 vertices, plus random crossing edges."""

    def blocks(side: str) -> list[list[str]]:
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        return [[f"{side}{i}{k}" for k in range(size)] for i, size in enumerate(sizes)]

    a_blocks, b_blocks = blocks("a"), blocks("b")
    a = [v for block in a_blocks for v in block]
    b = [v for block in b_blocks for v in block]
    paths = [(block[k], block[k + 1]) for block in a_blocks + b_blocks for k in range(len(block) - 1)]
    crossing = draw(st.sets(st.sampled_from([(x, y) for x in a for y in b])))
    return build_graph(a + b, paths + sorted(crossing)), Bipartition.of(a, b)


@PROPERTY_SETTINGS
@given(graphs_with_parts(max_n=40, max_edges=80))
def test_bpath_pairs_match_induced_connectivity(case):
    graph, parts = case
    pairs = induced_bpath_pairs(graph, parts)
    assert bpath_pairs(graph, parts) == pairs
    assert is_path_complete(graph, parts) == (len(pairs) == len(parts.a) * len(parts.b))


@PROPERTY_SETTINGS
@given(graphs_with_parts(max_n=9, max_edges=14))
def test_bpath_pairs_match_enumeration(case):
    graph, parts = case
    assert bpath_pairs(graph, parts) == pairs_from_witnesses(enumerate_be_paths(graph, parts), parts)


@PROPERTY_SETTINGS
@given(few_block_graphs())
def test_path_completeness_on_few_block_graphs(case):
    graph, parts = case
    pairs = induced_bpath_pairs(graph, parts)
    assert bpath_pairs(graph, parts) == pairs
    assert is_path_complete(graph, parts) == (len(pairs) == len(parts.a) * len(parts.b))
