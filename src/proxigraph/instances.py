"""Instance generators: worked examples, hypercubes, and random families.

The worked examples (`example_3_1` .. `example_3_16`) reproduce a published
collection of 4-bit Hamming instances and a complex-lattice metric; the
random generators back the exhaustive and randomized verification sweeps.
The hypercube and the truncation are built as the space's int rows at their
scale (1 and 2); `_hamming` and `truncation_distance` state their distances
pair by pair, as the tests' oracles.
"""

from __future__ import annotations

import random
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, combinations, compress, islice, repeat, starmap
from operator import add
from typing import Iterator, Sequence

from .graphs import Bipartition, SimpleGraph, build_graph, edge_key, induced_subgraph
from .spaces import FiniteSemimetricSpace, RationalLike, space_from_distance, to_rational

MAX_HYPERCUBE_DIM = 10
MAX_ENUMERATION_VERTICES = 6
MAX_RANDOM_ULTRAMETRIC_POINTS = 16
MAX_TRUNCATION_POINTS = 200


def _hamming(p: Sequence, q: Sequence) -> int:
    """Number of coordinates where two equal-length sequences differ."""
    return sum(c1 != c2 for c1, c2 in zip(p, q))


def hypercube_space(n: int) -> FiniteSemimetricSpace:
    """Hamming space on all n-bit strings (2**n points)."""
    if not 1 <= n <= MAX_HYPERCUBE_DIM:
        raise ValueError(f"hypercube dimension must be in 1..{MAX_HYPERCUBE_DIM}, got {n}")
    size = 2**n
    rows = tuple(tuple(map(int.bit_count, map(i.__xor__, range(size)))) for i in range(size))
    return FiniteSemimetricSpace(tuple(format(i, f"0{n}b") for i in range(size)), 1, rows)


def hamming_graph(space: FiniteSemimetricSpace) -> SimpleGraph:
    """Graph joining points of a space at distance exactly 1."""
    edges = [[p, q] for p, q in combinations(space.points, 2) if space.d(p, q) == 1]
    return build_graph(list(space.points), edges)


# Coordinates for the 16-vertex worked example.  The original tabulation
# lists (1,1,1,1) twice (for x14 and x16); x14 is stored as (1,1,1,0), the
# unique assignment that keeps all 16 points distinct and makes every
# listed edge a Hamming-distance-1 pair.
EXAMPLE_COORDINATES: dict[str, tuple[int, int, int, int]] = {
    "x1": (1, 0, 0, 0), "x2": (0, 1, 0, 0), "x3": (0, 0, 1, 0), "x4": (0, 0, 0, 1),
    "x5": (1, 0, 1, 0), "x6": (1, 1, 0, 0), "x7": (1, 0, 0, 1), "x8": (0, 0, 0, 0),
    "x9": (0, 1, 1, 0), "x10": (0, 1, 0, 1), "x11": (0, 0, 1, 1), "x12": (0, 1, 1, 1),
    "x13": (1, 1, 0, 1), "x14": (1, 1, 1, 0), "x15": (1, 0, 1, 1), "x16": (1, 1, 1, 1),
}

EXAMPLE_ERRATA = {
    "x14": "originally tabulated as (1,1,1,1), identical to x16; corrected to (1,1,1,0)",
}

_EXAMPLE_EDGES = [
    ("x1", "x5"), ("x1", "x6"), ("x1", "x7"), ("x1", "x8"), ("x2", "x6"),
    ("x2", "x9"), ("x2", "x10"), ("x3", "x5"), ("x3", "x8"), ("x3", "x9"),
    ("x3", "x11"), ("x4", "x7"), ("x4", "x8"), ("x4", "x10"), ("x5", "x14"),
    ("x5", "x15"), ("x6", "x13"), ("x6", "x14"), ("x7", "x15"), ("x9", "x12"),
    ("x10", "x12"), ("x11", "x12"), ("x13", "x16"), ("x14", "x16"), ("x15", "x16"),
]

_EXAMPLE_PART_A = ("x1", "x2", "x3", "x4", "x9", "x10", "x11", "x12")
_EXAMPLE_PART_B = ("x5", "x6", "x7", "x8", "x13", "x14", "x15", "x16")

# B_path list as originally published for the Hamming-adjacency instance.
# It is a strict subset of the computed set (46 of 64 pairs); kept verbatim
# so the discrepancy can be reported.
PUBLISHED_BPATH_PAIRS: tuple[tuple[str, str], ...] = (
    ("x1", "x5"), ("x1", "x6"), ("x1", "x7"), ("x1", "x8"), ("x1", "x13"),
    ("x1", "x14"), ("x1", "x15"), ("x1", "x16"),
    ("x2", "x6"), ("x2", "x13"), ("x2", "x16"),
    ("x3", "x5"), ("x3", "x8"), ("x3", "x14"), ("x3", "x15"), ("x3", "x16"),
    ("x4", "x7"), ("x4", "x8"), ("x4", "x13"), ("x4", "x15"), ("x4", "x16"),
    ("x9", "x5"), ("x9", "x6"), ("x9", "x8"), ("x9", "x13"), ("x9", "x14"),
    ("x9", "x15"), ("x9", "x16"),
    ("x10", "x6"), ("x10", "x8"), ("x10", "x13"), ("x10", "x14"), ("x10", "x16"),
    ("x11", "x5"), ("x11", "x8"), ("x11", "x14"), ("x11", "x15"), ("x11", "x16"),
    ("x12", "x5"), ("x12", "x6"), ("x12", "x7"), ("x12", "x8"), ("x12", "x13"),
    ("x12", "x14"), ("x12", "x15"), ("x12", "x16"),
)


def example_3_1() -> tuple[SimpleGraph, Bipartition]:
    """The 16-vertex, 25-edge connected path-bipartite instance."""
    graph = build_graph(list(EXAMPLE_COORDINATES), [list(e) for e in _EXAMPLE_EDGES])
    return graph, Bipartition.of(_EXAMPLE_PART_A, _EXAMPLE_PART_B)


def example_3_2() -> tuple[FiniteSemimetricSpace, Bipartition]:
    """Hamming space over the 16 example points, with the same partition."""
    coords = EXAMPLE_COORDINATES
    space = space_from_distance(list(coords), lambda p, q: _hamming(coords[p], coords[q]))
    return space, Bipartition.of(_EXAMPLE_PART_A, _EXAMPLE_PART_B)


def example_3_7() -> tuple[SimpleGraph, Bipartition]:
    """The 4-vertex path (a1, b1, a2, b2): connected but not path-complete."""
    graph = build_graph(["a1", "b1", "a2", "b2"], [["a1", "b1"], ["b1", "a2"], ["a2", "b2"]])
    return graph, Bipartition.of(["a1", "a2"], ["b1", "b2"])


def example_3_16() -> SimpleGraph:
    """Hamming-adjacency graph induced on part A; x1 comes out isolated."""
    space, parts = example_3_2()
    return induced_subgraph(hamming_graph(space), parts.a)


@dataclass(frozen=True)
class TruncationParams:
    """Index bounds for the finite truncation of the complex-lattice example."""

    N: int
    M: int
    K: int

    def __post_init__(self) -> None:
        if self.N < 1 or self.K < 1 or self.M < 0:
            raise ValueError(f"need N >= 1, M >= 0, K >= 1; got N={self.N}, M={self.M}, K={self.K}")


def truncation_distance(z1: tuple[int, int], z2: tuple[int, int]) -> Fraction:
    """Half the real gap plus the imaginary gap plus one, for distinct points."""
    if z1 == z2:
        return Fraction(0)
    return Fraction(abs(z1[0] - z2[0]) + 2 * abs(z1[1] - z2[1]) + 2, 2)


def example_3_12_truncation(params: TruncationParams) -> tuple[FiniteSemimetricSpace, Bipartition]:
    """Finite truncation of the complex-lattice instance.

    Part A holds the real-axis points 1..N; part B the lattice points
    m + ik with 0 <= m <= M and 1 <= k <= K.  For M >= 1 the part
    separation is exactly 2, matching the untruncated instance.
    """
    size = params.N + (params.M + 1) * params.K
    if size > MAX_TRUNCATION_POINTS:
        raise ValueError(f"truncation would have {size} points; limit is {MAX_TRUNCATION_POINTS}")
    a_coords = [(n, 0) for n in range(1, params.N + 1)]
    b_coords = [(m, k) for m in range(params.M + 1) for k in range(1, params.K + 1)]

    def label(z: tuple[int, int]) -> str:
        return f"{z[0]}+{z[1]}i"

    coords = a_coords + b_coords
    # twice `truncation_distance`: (|Δre| + 1) + (2|Δim| + 1) off the diagonal, one gap row per coordinate value
    re_gap = [[abs(x - u) + 1 for u, _ in coords] for x in range(max(params.N, params.M) + 1)]
    im_gap = [[2 * abs(y - v) + 1 for _, v in coords] for y in range(params.K + 1)]
    rows = [list(map(add, re_gap[x], im_gap[y])) for x, y in coords]
    for i, row in enumerate(rows):
        row[i] = 0
    # scale 2 is the LCM of the denominators: d(1, i) = 5/2 in every truncation
    space = FiniteSemimetricSpace(tuple(map(label, coords)), 2, tuple(map(tuple, rows)))
    parts = Bipartition.of([label(z) for z in a_coords], [label(z) for z in b_coords])
    return space, parts


def _subsets_in_mask_order(items: Sequence) -> Iterator[frozenset]:
    """{items[i] : bit i of mask set} for mask = 0 .. 2**len(items) - 1, in that order.

    Each subset is one union of two precomputed tables, over the low and the
    high half of the bits; a table built by doubling lists its subsets in mask order.
    """
    def table(part: Sequence) -> list[frozenset]:
        subsets = [frozenset()]
        for item in part:
            subsets += [subset | {item} for subset in subsets]
        return subsets

    half = len(items) // 2
    low = table(items[:half])
    for high in table(items[half:]):
        for subset in low:
            yield high | subset


def enumerate_labeled_graphs(n: int) -> Iterator[SimpleGraph]:
    """All 2**(n(n-1)/2) labeled graphs on vertices v1..vn, in bitmask order over the sorted pairs, read lazily;
    n is checked at the call."""
    if not 1 <= n <= MAX_ENUMERATION_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_ENUMERATION_VERTICES}, got {n}")
    labels = [f"v{i}" for i in range(1, n + 1)]
    pairs = [edge_key(u, v) for u, v in combinations(labels, 2)]
    return map(partial(SimpleGraph, frozenset(labels)), _subsets_in_mask_order(pairs))


def all_bipartitions(vertices: frozenset[str] | set[str]) -> Iterator[Bipartition]:
    """All 2**n - 2 ordered pairs of disjoint nonempty covering subsets, A by bitmask over the sorted labels."""
    labels = sorted(vertices)
    if len(labels) < 2:
        raise ValueError(f"need at least 2 vertices to bipartition, got {len(labels)}")
    full = frozenset(labels)
    for a in islice(_subsets_in_mask_order(labels), 1, 2 ** len(labels) - 1):
        yield Bipartition(a, full - a)


def random_ultrametric_space(n: int, seed: int) -> FiniteSemimetricSpace:
    """Random ultrametric space from a seeded laminar hierarchy.

    The point set is split recursively into at least two blocks; pairs get
    the level of the block where they separate, and levels strictly
    decrease along each branch, which forces the strong triangle
    inequality.  Deterministic per seed.
    """
    if not 2 <= n <= MAX_RANDOM_ULTRAMETRIC_POINTS:
        raise ValueError(f"point count must be in 2..{MAX_RANDOM_ULTRAMETRIC_POINTS}, got {n}")
    rng = random.Random(seed)
    labels = [f"p{i:02d}" for i in range(1, n + 1)]
    dist: dict[tuple[str, str], Fraction] = {}

    def split(block: list[str], level: Fraction) -> None:
        order = block[:]
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, len(order)), rng.randint(1, len(order) - 1)))
        chunks = [order[i:j] for i, j in zip([0] + cuts, cuts + [len(order)])]
        for c1, c2 in combinations(chunks, 2):
            for p in c1:
                for q in c2:
                    dist[edge_key(p, q)] = level
        for chunk in chunks:
            if len(chunk) > 1:
                split(chunk, level * Fraction(rng.randint(1, 7), 8))

    split(labels, Fraction(rng.randint(8, 24), rng.randint(1, 4)))
    return space_from_distance(labels, lambda p, q: dist[edge_key(p, q)])


def random_semimetric_space(n: int, seed: int) -> FiniteSemimetricSpace:
    """Random semimetric with small rational distances (no triangle axiom)."""
    if n < 2:
        raise ValueError(f"point count must be at least 2, got {n}")
    rng = random.Random(seed)
    labels = [f"q{i:02d}" for i in range(1, n + 1)]
    values = [Fraction(num, den) for num in range(1, 7) for den in (1, 2)]
    dist = {edge_key(p, q): rng.choice(values) for p, q in combinations(labels, 2)}
    return space_from_distance(labels, lambda p, q: dist[edge_key(p, q)])


def _draws_below(rng: random.Random, p: Fraction, words: int = 8192) -> Iterator[list[bool]]:
    """`rng.randrange(q) < a` for p = a/q with q < 2**32, call after call, one list per chunk of `words` words.

    In CPython `randrange(q)` repeats `getrandbits(k)`, k = q.bit_length(), until a draw is below q, and
    `getrandbits(k)` is one Mersenne Twister word less its low s = 32 - k bits, below q (a) iff the word
    is below q << s (a << s).
    """
    s = -p.denominator.bit_length() % 32
    keep, below = p.denominator << s, p.numerator << s
    while True:
        keys = array("I", rng.getrandbits(32 * words).to_bytes(4 * words, "little"))
        yield [key < below for key in keys if key < keep]


def random_graph(n: int, edge_probability: RationalLike, seed: int) -> SimpleGraph:
    """Seeded Erdős–Rényi graph with an exact rational edge probability a/q: the i-th pair of
    `combinations(v1..vn, 2)` is an edge iff the i-th `random.Random(seed).randrange(q)` is below a.

    For q < 2**32 on a little-endian machine `_draws_below` reads the words in chunks, to the same graph;
    a wider q calls `randrange` per pair.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"vertex count must be an int of at least 1, got {n!r}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"seed must be an int, got {seed!r}")
    p = to_rational(edge_probability)
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    labels = [f"v{i}" for i in range(1, n + 1)]
    rng = random.Random(seed)
    if p.denominator.bit_length() > 32 or sys.byteorder != "little":
        flags = map(p.numerator.__gt__, map(rng.randrange, repeat(p.denominator)))
    else:
        flags = chain.from_iterable(_draws_below(rng, p))
    return SimpleGraph(frozenset(labels), frozenset(starmap(edge_key, compress(combinations(labels, 2), flags))))
