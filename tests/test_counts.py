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

from proxigraph.theorems import SWEEPS


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


# Per sweep: the formula counting the trues of its fast route, and the vertex counts its family runs over
FORMULAS = {
    "t3.9": (PATH_BIPARTITE, range(2, 6)),
    "t3.16": (NO_ISOLATED_VERTEX, range(1, 7)),
    "c3.10": (NO_ISOLATED_VERTEX, range(1, 7)),
    "c3.12": (EVERY_DEGREE_ONE, range(1, 7)),
    "t3.10": (EVERY_DEGREE_ONE, range(1, 7)),
}


@pytest.mark.parametrize("sweep_id", sorted(FORMULAS))
def test_fast_route_true_counts_match_their_formula(sweep_id):
    """The declared fast route over the declared family: a certificate or partition returned counts as true."""
    spec, (formula, sizes) = SWEEPS[sweep_id], FORMULAS[sweep_id]
    counts = Counter()
    for instance in spec.family(max_n=sizes[-1]):
        counts[len(instance[0].vertices)] += spec.fast(*instance) not in (None, False)
    assert dict(counts) == {n: formula[n] for n in sizes}
