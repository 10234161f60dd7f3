"""Instance generators: examples, hypercubes, enumerations, random families."""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial
from itertools import chain, combinations, cycle, islice, product
from pathlib import Path

import pytest

import proxigraph
from proxigraph import (
    SpaceClass,
    build_space,
    classify,
    connected_components,
    hypercube_space,
    is_path_bipartite,
    set_distance,
)
from proxigraph.graphs import edge_key
from proxigraph.instances import (
    EXAMPLE_COORDINATES,
    EXAMPLE_ERRATA,
    PUBLISHED_BPATH_PAIRS,
    TruncationParams,
    _draws_below,
    _hamming,
    all_bipartitions,
    enumerate_labeled_graphs,
    example_3_1,
    example_3_2,
    example_3_7,
    example_3_12_truncation,
    example_3_16,
    hamming_graph,
    random_graph,
    random_semimetric_space,
    random_ultrametric_space,
    truncation_distance,
)
from proxigraph.spaces import space_from_distance


def test_hypercube_small():
    s = hypercube_space(1)
    assert s.size == 2
    assert s.d("0", "1") == 1


def test_hypercube_dim4():
    s = hypercube_space(4)
    assert s.size == 16
    assert s.d("0000", "1111") == 4
    assert classify(s) is SpaceClass.METRIC


def test_hypercube_distance_one_pair_count():
    for n in range(1, 5):
        s = hypercube_space(n)
        ones = sum(1 for p, q in combinations(s.points, 2) if s.d(p, q) == 1)
        assert ones == n * 2 ** (n - 1)


def test_hypercube_rejects_out_of_range():
    with pytest.raises(ValueError, match="dimension"):
        hypercube_space(0)
    with pytest.raises(ValueError, match="dimension"):
        hypercube_space(11)


def test_example_graph_shape():
    graph, parts = example_3_1()
    assert len(graph.vertices) == 16
    assert len(graph.edges) == 25
    assert len(connected_components(graph)) == 1
    assert is_path_bipartite(graph, parts)


def test_example_coordinates_distinct_and_consistent():
    assert len(set(EXAMPLE_COORDINATES.values())) == 16
    assert EXAMPLE_COORDINATES["x14"] == (1, 1, 1, 0)
    assert "x14" in EXAMPLE_ERRATA
    graph, _ = example_3_1()
    for u, v in graph.edges:
        gap = sum(a != b for a, b in zip(EXAMPLE_COORDINATES[u], EXAMPLE_COORDINATES[v]))
        assert gap == 1


def test_example_space_matches_coordinates():
    space, parts = example_3_2()
    assert set_distance(space, parts.a, parts.b) == 1
    assert space.d("x8", "x16") == 4
    assert len(hamming_graph(space).edges) == 32


def test_published_pair_list_is_46_pairs_inside_a_times_b():
    _, parts = example_3_2()
    assert len(PUBLISHED_BPATH_PAIRS) == 46
    assert len(set(PUBLISHED_BPATH_PAIRS)) == 46
    assert all(a in parts.a and b in parts.b for a, b in PUBLISHED_BPATH_PAIRS)
    assert ("x2", "x5") not in PUBLISHED_BPATH_PAIRS


def test_example_3_7_is_the_four_vertex_path():
    graph, parts = example_3_7()
    assert graph.sorted_edges() == [("a1", "b1"), ("a2", "b1"), ("a2", "b2")]
    assert parts.a == {"a1", "a2"}


def test_example_3_16_isolates_x1():
    graph = example_3_16()
    assert graph.vertices == {"x1", "x2", "x3", "x4", "x9", "x10", "x11", "x12"}
    assert graph.isolated_vertices() == {"x1"}
    blocks = connected_components(graph)
    assert frozenset({"x1"}) in blocks and len(blocks) == 2


def test_truncation_params_validation():
    with pytest.raises(ValueError, match="N >= 1"):
        TruncationParams(0, 1, 1)
    with pytest.raises(ValueError, match="N >= 1"):
        TruncationParams(1, -1, 1)
    with pytest.raises(ValueError, match="N >= 1"):
        TruncationParams(1, 1, 0)


def test_truncation_size_guard():
    with pytest.raises(ValueError, match="limit"):
        example_3_12_truncation(TruncationParams(100, 20, 10))


def run_capped(*argv):
    """Run Python on the package sources with 512 MiB of address space and a 60 s timeout.

    Building 10**18 lattice points before the size check would stop on the cap
    with a MemoryError instead of exhausting the machine.
    """
    src = str(Path(proxigraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cap = ("import resource, runpy, sys; resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29)); "
           "sys.argv = sys.argv[1:]; ")
    return subprocess.run([sys.executable, "-c", cap + argv[0], *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=60)


def test_truncation_size_is_checked_before_any_point_is_built():
    done = run_capped(
        "from proxigraph.instances import TruncationParams, example_3_12_truncation\n"
        "try:\n    example_3_12_truncation(TruncationParams(1, 10**9, 10**9))\n"
        "except ValueError as exc:\n    print(exc)"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"truncation would have {1 + (10**9 + 1) * 10**9} points; limit is 200\n"


def test_cli_rejects_a_huge_truncation_with_exit_2():
    done = run_capped("runpy.run_module('proxigraph', run_name='__main__')", "proxigraph",
                      "example", "ex3.12", "--N", "1", "--M", "1000000000", "--K", "1000000000")
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: truncation would have") and "limit is 200" in done.stderr


def test_truncation_distances():
    space, parts = example_3_12_truncation(TruncationParams(2, 2, 2))
    assert space.size == 8
    assert space.d("1+0i", "2+0i") == Fraction(3, 2)
    assert space.d("1+0i", "1+1i") == 2
    assert set_distance(space, parts.a, parts.b) == 2
    assert classify(space) is SpaceClass.METRIC


def test_truncation_distance_is_2_whenever_m_is_positive():
    for params in (TruncationParams(1, 1, 1), TruncationParams(4, 4, 4), TruncationParams(2, 1, 3)):
        space, parts = example_3_12_truncation(params)
        assert set_distance(space, parts.a, parts.b) == 2


def test_truncation_degenerate_m0_separation_grows():
    # with no lattice column above the real points, the separation is 5/2
    space, parts = example_3_12_truncation(TruncationParams(2, 0, 2))
    assert set_distance(space, parts.a, parts.b) == Fraction(5, 2)


def test_truncation_triangle_inequality_always():
    # base distance is a scaled lattice L1 metric, so d = base + 1 is a metric
    for params in (TruncationParams(1, 0, 1), TruncationParams(3, 2, 2), TruncationParams(2, 3, 1)):
        space, _ = example_3_12_truncation(params)
        assert classify(space) in (SpaceClass.METRIC, SpaceClass.ULTRAMETRIC)


def test_truncation_distance_formula():
    assert truncation_distance((1, 0), (1, 0)) == 0
    assert truncation_distance((1, 0), (2, 0)) == Fraction(3, 2)
    assert truncation_distance((0, 1), (3, 2)) == Fraction(3, 2) + 1 + 1


def test_enumerate_labeled_graph_counts():
    assert len(list(enumerate_labeled_graphs(2))) == 2
    assert len(list(enumerate_labeled_graphs(3))) == 8
    graphs = list(enumerate_labeled_graphs(5))
    assert len(graphs) == 1024
    assert len(set(graphs)) == 1024


def test_enumerate_labeled_graphs_bounds():
    # checked at the call, not at the first graph
    with pytest.raises(ValueError, match="vertex count"):
        enumerate_labeled_graphs(0)
    with pytest.raises(ValueError, match="vertex count"):
        enumerate_labeled_graphs(7)


def test_all_bipartitions_counts():
    assert len(list(all_bipartitions({"a", "b"}))) == 2
    assert len(list(all_bipartitions({"a", "b", "c"}))) == 6
    assert len(list(all_bipartitions({"a", "b", "c", "d"}))) == 14
    with pytest.raises(ValueError, match="at least 2"):
        list(all_bipartitions({"a"}))


def test_all_bipartitions_are_ordered_and_cover():
    vertices = frozenset({"a", "b", "c"})
    seen = set()
    for parts in all_bipartitions(vertices):
        assert parts.union == vertices
        seen.add((tuple(sorted(parts.a)), tuple(sorted(parts.b))))
    assert (("a",), ("b", "c")) in seen
    assert (("b", "c"), ("a",)) in seen


def test_enumeration_orders_match_the_per_bit_definition():
    """Mask m gives the graph with pair i (of the sorted pairs) iff bit i of m is set,
    and the bipartition whose A holds label i (of the sorted labels) iff bit i is set."""
    for n in range(1, 6):
        labels = [f"v{i}" for i in range(1, n + 1)]
        pairs = list(combinations(labels, 2))
        assert [graph.edges for graph in enumerate_labeled_graphs(n)] == [
            frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1) for mask in range(2 ** len(pairs))
        ]
        assert all(graph.vertices == frozenset(labels) for graph in enumerate_labeled_graphs(n))
    for n in range(2, 9):
        labels = sorted(f"p{i}" for i in range(n, 0, -1))
        assert [(parts.a, parts.b) for parts in all_bipartitions(set(labels))] == [
            (frozenset(labels[i] for i in range(n) if mask >> i & 1),
             frozenset(labels[i] for i in range(n) if not mask >> i & 1))
            for mask in range(1, 2 ** n - 1)
        ]


def test_random_ultrametric_space_is_ultrametric():
    for seed in range(50):
        space = random_ultrametric_space(2 + seed % 7, seed)
        assert classify(space) is SpaceClass.ULTRAMETRIC


def test_random_ultrametric_space_deterministic():
    assert random_ultrametric_space(9, 7) == random_ultrametric_space(9, 7)
    assert random_ultrametric_space(9, 7) != random_ultrametric_space(9, 8)


def test_random_ultrametric_space_bounds():
    with pytest.raises(ValueError, match="point count"):
        random_ultrametric_space(1, 0)
    with pytest.raises(ValueError, match="point count"):
        random_ultrametric_space(17, 0)


def test_random_semimetric_space_needs_two_points():
    with pytest.raises(ValueError, match="point count must be at least 2, got 1"):
        random_semimetric_space(1, 0)


def test_random_graph_extremes():
    assert random_graph(5, 0, 1).edges == frozenset()
    assert len(random_graph(5, 1, 1).edges) == 10
    assert len(random_graph(5, "1/1", 1).edges) == 10


def test_random_graph_deterministic():
    assert random_graph(8, "1/3", 42) == random_graph(8, "1/3", 42)


def test_random_graph_probability_range():
    with pytest.raises(ValueError, match="probability"):
        random_graph(5, 2, 1)
    with pytest.raises(ValueError, match="probability"):
        random_graph(5, "-1/2", 1)


def test_random_graph_rejects_a_float_probability():
    with pytest.raises(ValueError, match="not a rational value"):
        random_graph(5, 0.5, 1)


def test_random_graph_rejects_a_bool_vertex_count_and_a_non_int_seed():
    for n in (True, False, 3.0, "3"):
        with pytest.raises(ValueError, match="vertex count"):
            random_graph(n, "1/2", 1)
    for seed in (1.5, 2.0, "1", None, True, Fraction(1)):
        with pytest.raises(ValueError, match="seed"):
            random_graph(3, "1/2", seed)
    for seed in (2**200 + 1, -7, 0):
        assert random_graph(12, "1/2", seed).edges == per_pair_random_graph(12, "1/2", seed)


def per_pair_random_graph(n, edge_probability, seed):
    """The edges of `random_graph` as one `randrange` call per vertex pair, in `combinations` order."""
    p = Fraction(edge_probability)
    rng = random.Random(seed)
    labels = [f"v{i}" for i in range(1, n + 1)]
    return frozenset(
        edge_key(u, v) for u, v in combinations(labels, 2) if rng.randrange(p.denominator) < p.numerator
    )


PROBABILITIES = [0, 1, "1/2", "1/3", "7/9", "3/1600", "1/1024",
                 Fraction(1, 2**32 - 1), Fraction(2**32 - 1, 2**32), Fraction(1, 2**40 + 3), Fraction(5, 2**64 + 13)]


@pytest.mark.parametrize("n", [1, 2, 3, 40, 130])
def test_random_graph_is_the_per_pair_loop(n):
    for seed, p in product(range(6), PROBABILITIES):
        assert random_graph(n, p, seed).edges == per_pair_random_graph(n, p, seed), (seed, p)


def test_random_graph_is_the_per_pair_loop_on_800_vertices():
    # each of the 60 cases of the full product takes about 0.6 s on 2 shared vCPUs, so: every probability at
    # seed 0, and the probability of the benchmark's 800-vertex graph at seeds 0-5
    for seed, p in [(0, p) for p in PROBABILITIES] + [(seed, "3/1600") for seed in range(1, 6)]:
        assert random_graph(800, p, seed).edges == per_pair_random_graph(800, p, seed), (seed, p)


@pytest.mark.parametrize("wide_draws", [True, False], ids=["q-from-2**32", "big-endian"])
def test_random_graph_calls_randrange_for_wide_draws_and_on_a_big_endian_machine(monkeypatch, wide_draws):
    def no_chunks(*args, **kwargs):
        raise AssertionError("read the words in chunks")

    monkeypatch.setattr(proxigraph.instances, "_draws_below", no_chunks)
    if not wide_draws:
        monkeypatch.setattr(sys, "byteorder", "big")
    for p in PROBABILITIES:
        if not wide_draws or Fraction(p).denominator >= 2**32:
            for seed in range(3):
                assert random_graph(130, p, seed).edges == per_pair_random_graph(130, p, seed), (seed, p)


@pytest.mark.parametrize("p", [Fraction(2**31, 2**32 - 1)])
@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_random_graph_with_a_chunk_ending_at_the_last_pair_or_one_either_side(monkeypatch, p, shift):
    # a draw is rejected only at 2**32 - 1, so a chunk of 8128 + shift words
    # ends one pair before, at or after the 8128th pair of 128 vertices
    words = 128 * 127 // 2 + shift
    monkeypatch.setattr(proxigraph.instances, "_draws_below", partial(_draws_below, words=words))
    for seed in range(2):
        assert random_graph(128, p, seed).edges == per_pair_random_graph(128, p, seed)


def test_random_graph_pins_the_cli_large_graphs():
    # a change to the draw and to the loop above at once still fails here
    digests = {1: "1069514aeb7888fc729c521c639d6777adbd9148ecfe71cffc30fd6a54482453",
               2: "f13502981b3577c1b2137e5430a650f27679371d9a3961f272efe00849e46ce7"}
    for seed, digest in digests.items():
        edges = sorted(random_graph(800, "3/1600", seed).edges)
        assert hashlib.sha256(repr(edges).encode()).hexdigest() == digest


class WordStream(random.Random):
    """A `Random` drawing the given 32-bit words: `getrandbits(k)` takes ceil(k / 32) of them, least
    significant first, and drops the low -k % 32 bits of the last, as CPython's Mersenne Twister does."""

    def __init__(self, words):
        super().__init__(0)
        self.words = iter(words)

    def getrandbits(self, k):
        taken = [next(self.words) for _ in range(-(-k // 32))]
        taken[-1] >>= -k % 32
        return int.from_bytes(b"".join(w.to_bytes(4, "little") for w in taken[:-1]), "little") | (
            taken[-1] << 32 * (len(taken) - 1))


def test_word_stream_is_the_layout_of_the_mersenne_twister():
    widths = [1, 5, 11, 31, 32, 33, 41, 63, 64, 65, 100, 32 * 7, 32 * 7 + 3]
    for seed in range(4):
        words, rng = random.Random(seed), random.Random(seed)
        model = WordStream(iter(lambda: words.getrandbits(32), None))
        assert [model.getrandbits(k) for k in widths * 3] == [rng.getrandbits(k) for k in widths * 3]
        assert [model.randrange(q) for q in (1, 3, 1600, 2**32 - 1, 2**40 + 3)] == [
            rng.randrange(q) for q in (1, 3, 1600, 2**32 - 1, 2**40 + 3)]


@pytest.mark.parametrize("p", [Fraction(3, 1600), Fraction(7, 9), Fraction(1, 2**32 - 1), Fraction(1, 1)])
def test_draws_at_the_keep_and_edge_bounds(p):
    """Words at q << s and a << s, the bounds of p = a/q, and one either side, with and without the low
    s bits that `getrandbits` drops, decide each pair as `randrange(q) < a` does, across chunks of
    1000 words."""
    k = p.denominator.bit_length()
    s = 32 - k
    stream = []
    for r in (p.denominator - 1, p.denominator, p.denominator + 1, p.numerator - 1, p.numerator, p.numerator + 1):
        for junk in (0, (1 << s) - 1):
            if 0 <= r < 1 << k:
                stream.append(r << s | junk)
    flags = chain.from_iterable(_draws_below(WordStream(cycle(stream)), p, words=1000))
    rng = WordStream(cycle(stream))
    assert list(islice(flags, 3000)) == [rng.randrange(p.denominator) < p.numerator for _ in range(3000)]


def test_tabulator_reads_each_pair_of_distinct_points_once():
    points = [f"p{i}" for i in range(7)]
    calls = []
    space = space_from_distance(points, lambda p, q: calls.append((p, q)) or len(calls))
    assert len(calls) == 7 * 6 // 2
    assert {frozenset(c) for c in calls} == {frozenset(c) for c in combinations(points, 2)}
    for k, (p, q) in enumerate(calls, 1):
        assert space.d(p, q) == space.d(q, p) == k
    assert all(space.d(p, p) == 0 for p in points)


def full_tabulation(points, dist_fn):  # every ordered pair; only the diagonal is skipped
    pts = tuple(points)
    return build_space(pts, [[0 if p == q else dist_fn(p, q) for q in pts] for p in pts])


def test_generated_tables_equal_a_full_tabulation(monkeypatch):
    def generate():
        return [
            example_3_2()[0],
            *(random_ultrametric_space(2 + seed % 15, seed) for seed in range(20)),
            *(random_semimetric_space(2 + seed, seed) for seed in range(20)),
        ]

    generated = generate()
    monkeypatch.setattr(proxigraph.instances, "space_from_distance", full_tabulation)
    assert generate() == generated


def test_hypercube_and_truncation_are_born_with_the_scaled_table_of_their_fractions():
    # both tabulate int rows themselves; the oracles are `_hamming` and `truncation_distance`, pair by pair,
    # and build_space on the Fraction view, which pins the scale to the LCM of the denominators
    for n in range(1, 7):
        cube = hypercube_space(n)
        assert cube.table == tuple(tuple(Fraction(_hamming(p, q)) for q in cube.points) for p in cube.points)
        assert cube == build_space(cube.points, cube.table) == full_tabulation(cube.points, _hamming)
    for big_n, big_m, big_k in product(range(1, 5), range(5), range(1, 5)):
        space, parts = example_3_12_truncation(TruncationParams(big_n, big_m, big_k))
        a = [(x, 0) for x in range(1, big_n + 1)]
        b = [(m, k) for m in range(big_m + 1) for k in range(1, big_k + 1)]
        coords = {f"{x}+{y}i": (x, y) for x, y in a + b}
        assert list(space.points) == list(coords) and parts.a == frozenset(list(coords)[:big_n])
        assert space.table == tuple(tuple(truncation_distance(z, w) for w in coords.values()) for z in coords.values())
        assert space == build_space(space.points, space.table)
        assert space == full_tabulation(coords, lambda p, q: truncation_distance(coords[p], coords[q]))


def test_random_semimetric_space_deterministic_and_valid():
    s1 = random_semimetric_space(6, 3)
    assert s1 == random_semimetric_space(6, 3)
    assert s1.size == 6
