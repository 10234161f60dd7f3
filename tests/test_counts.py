"""Counting oracles: closed-form true counts of fast routes over their sweep families.

Each family counted here is a labeled structure built from connected
components whose weight depends on their vertex count alone, so one
recurrence in plain ints counts it: the component holding the smallest
label has k vertices, chosen in C(n−1, k−1) ways.  No graph code runs on
this side.  A count checks a whole family at once, including the
bipartitions whose be-path oracle answer sweeps t3.4 and t3.9 mirror from
the complement order instead of enumerating it.  A count cannot see a false
true and a false false that cancel; it adds to the per-instance oracles.
"""

from collections import Counter
from math import comb, prod

import pytest

from proxigraph import theorems
from proxigraph.theorems import _labeled_graphs, _with_bipartitions


def connected_counts(top: int) -> list[int]:
    """C_0..C_top, the connected labeled graphs (C_0 = 0), from 2^C(n,2) = Σₖ C(n−1, k−1)·C_k·2^C(n−k,2)."""
    c = [0]
    for n in range(1, top + 1):
        c.append(2 ** comb(n, 2) - sum(comb(n - 1, k - 1) * c[k] * 2 ** comb(n - k, 2) for k in range(1, n)))
    return c


def by_components(weight, top: int) -> list[int]:
    """Per n = 0..top: labeled structures on n vertices whose components on k vertices weigh weight(k) each."""
    total = [1]
    for n in range(1, top + 1):
        total.append(sum(comb(n - 1, k - 1) * weight(k) * total[n - k] for k in range(1, n + 1)))
    return total


C = connected_counts(7)
# (G, A, B) with ordered parts, path-bipartite: each component meets both parts
PATH_BIPARTITE = by_components(lambda k: C[k] * (2 ** k - 2), 7)
NO_ISOLATED_VERTEX = by_components(lambda k: C[k] if k > 1 else 0, 7)  # OEIS A006129
EVERY_DEGREE_ONE = by_components(lambda k: int(k == 2), 7)  # the perfect matchings


def test_the_recurrences_give_the_known_sequences():
    assert C[1:] == [1, 1, 4, 38, 728, 26704, 1866256]  # OEIS A001187
    assert PATH_BIPARTITE[2:] == [2, 24, 544, 22320, 1677488, 236522496]
    assert NO_ISOLATED_VERTEX[1:] == [0, 1, 4, 41, 768, 27449, 1887284]
    assert EVERY_DEGREE_ONE[1:] == [0 if n % 2 else prod(range(n - 1, 0, -2)) for n in range(1, 8)]


def _true_counts(route, family) -> dict[int, int]:
    """Per vertex count n of the family: on how many of its instances `route` answers true."""
    counts = Counter()
    for instance in family:
        counts[len(instance[0].vertices)] += bool(route(*instance))
    return dict(counts)


def _graphs(max_n):
    return lambda: ((graph,) for graph in _labeled_graphs(max_n))


# Per sweep: its fast route, its family on min_n..max_n vertices, and the formula counting the route's trues
FAMILIES = {
    "t3.9": (lambda graph, parts: theorems.is_path_bipartite(graph, parts),
             lambda: _with_bipartitions(_labeled_graphs(5, 2)), range(2, 6), PATH_BIPARTITE),
    "t3.16": (lambda graph: theorems.is_path_proximinal_graph(graph) is not None,
              _graphs(6), range(1, 7), NO_ISOLATED_VERTEX),
    "c3.10": (lambda graph: theorems.find_path_bipartite_partition(graph) is not None,
              _graphs(6), range(1, 7), NO_ISOLATED_VERTEX),
    "c3.12": (lambda graph: theorems.check_corollary_3_12(graph), _graphs(6), range(1, 7), EVERY_DEGREE_ONE),
    "t3.10": (lambda graph: theorems.witness_ultrametric(graph) is not None,
              _graphs(6), range(1, 7), EVERY_DEGREE_ONE),
}


@pytest.mark.parametrize("sweep_id", sorted(FAMILIES))
def test_fast_route_true_counts_match_their_formula(sweep_id):
    route, family, sizes, formula = FAMILIES[sweep_id]
    assert _true_counts(route, family()) == {n: formula[n] for n in sizes}
