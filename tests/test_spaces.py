"""Semimetric spaces: validation, classification, distances, proximity."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from proxigraph import (
    Bipartition,
    FiniteSemimetricSpace,
    SpaceClass,
    SpaceError,
    best_approximations,
    build_graph,
    build_space,
    build_threshold_graph,
    check_theorem_2_1,
    classify,
    diameter,
    hypercube_space,
    is_proximinal,
    proximity_report,
    random_semimetric_space,
    random_ultrametric_space,
    set_distance,
    spaces,
)
from proxigraph.instances import all_bipartitions, example_3_2, example_3_12_truncation, TruncationParams
from proxigraph.proximinal import adjacency_metric
from proxigraph.spaces import to_rational


def ultrametric_u1():
    # diam(B) = 1 <= dist(A, B) = 2; every cross pair attains 2
    return build_space(
        ["a1", "a2", "b1", "b2"],
        [[0, 2, 2, 2], [2, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]],
    )


def ultrametric_u2():
    # diam(B) = 3 > dist(A, B) = 1; only (a1, b1) attains the distance
    return build_space(
        ["a1", "a2", "b1", "b2"],
        [[0, 3, 1, 3], [3, 0, 3, 3], [1, 3, 0, 3], [3, 3, 3, 0]],
    )


# independent axiom scans used as oracles against classify()

def semimetric_axioms_hold(space):
    return all(
        space.d(p, q) == space.d(q, p) and (space.d(p, q) == 0) == (p == q)
        for p in space.points
        for q in space.points
    )


def metric_axiom_holds(space):
    return all(
        space.d(a, b) <= space.d(a, c) + space.d(c, b)
        for a in space.points
        for b in space.points
        for c in space.points
    )


def ultrametric_axiom_holds(space):
    return all(
        space.d(a, b) <= max(space.d(a, c), space.d(c, b))
        for a in space.points
        for b in space.points
        for c in space.points
    )


def test_build_space_valid():
    s = build_space(["a", "b"], [[0, 1], [1, 0]])
    assert s.d("a", "b") == 1


def test_build_space_rejects_asymmetry():
    with pytest.raises(SpaceError, match=r"asymmetric entries at \(a, b\)"):
        build_space(["a", "b"], [[0, 1], [2, 0]])


def test_build_space_rejects_nonzero_diagonal():
    with pytest.raises(SpaceError, match="nonzero diagonal"):
        build_space(["a", "b"], [[1, 1], [1, 0]])


def test_build_space_rejects_zero_off_diagonal():
    with pytest.raises(SpaceError, match="zero distance"):
        build_space(["a", "b"], [[0, 0], [0, 0]])


def test_build_space_rejects_negative():
    with pytest.raises(SpaceError, match="negative entry"):
        build_space(["a", "b"], [[0, -1], [-1, 0]])


def test_build_space_rejects_non_square():
    with pytest.raises(SpaceError, match="rows"):
        build_space(["a", "b"], [[0, 1]])
    with pytest.raises(SpaceError, match="entries"):
        build_space(["a", "b"], [[0, 1, 2], [1, 0, 2]])


def test_build_space_accepts_hamming_table():
    s = hypercube_space(4)
    assert s.size == 16
    assert s.d("0000", "1111") == 4


def test_to_rational():
    assert to_rational("1/2") == Fraction(1, 2)
    assert to_rational(3) == 3
    with pytest.raises(SpaceError, match="malformed rational"):
        to_rational("1/0")
    with pytest.raises(SpaceError, match="malformed rational"):
        to_rational("abc")
    with pytest.raises(SpaceError, match="not a rational"):
        to_rational(True)
    for text in ("2.5", " 3/4 ", "1_000", "1e3", "1e-20000000", "+1", "1/-2", "", "1/", "\u0663"):
        with pytest.raises(SpaceError, match="malformed rational"):
            to_rational(text)


def test_classify_hamming_is_metric_not_ultrametric():
    s = hypercube_space(4)
    assert classify(s) is SpaceClass.METRIC
    # the witness triple: 0000-1100 = 2 exceeds max over 0100
    assert s.d("0000", "1100") > max(s.d("0000", "0100"), s.d("0100", "1100"))


def test_classify_equilateral_is_ultrametric():
    s = build_space(["a", "b", "c"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert classify(s) is SpaceClass.ULTRAMETRIC


def test_classify_triangle_violation_is_semimetric():
    s = build_space(["a", "b", "c"], [[0, 5, 1], [5, 0, 1], [1, 1, 0]])
    assert classify(s) is SpaceClass.SEMIMETRIC


def test_classify_matches_axiom_scans_on_random_spaces():
    # metric inputs with triangle equalities, so the oracle sees all three classes
    spaces = [
        hypercube_space(3),
        example_3_12_truncation(TruncationParams(2, 1, 2))[0],
        example_3_2()[0],
        adjacency_metric(build_graph(["a", "b", "c"], [["a", "b"], ["b", "c"]])),
        adjacency_metric(build_graph(["a", "b", "c", "d"], [["a", "b"], ["b", "c"], ["c", "d"]])),
    ]
    for seed in range(30):
        spaces += [random_ultrametric_space(6, seed), random_semimetric_space(5, seed)]
    seen = set()
    for space in spaces:
        got = classify(space)
        seen.add(got)
        assert semimetric_axioms_hold(space)
        assert metric_axiom_holds(space) == (got in (SpaceClass.METRIC, SpaceClass.ULTRAMETRIC))
        assert ultrametric_axiom_holds(space) == (got is SpaceClass.ULTRAMETRIC)
    assert seen == set(SpaceClass)


def oracle_class(space):
    """The class read off the ordered-triple axiom scans."""
    if not metric_axiom_holds(space):
        return SpaceClass.SEMIMETRIC
    return SpaceClass.ULTRAMETRIC if ultrametric_axiom_holds(space) else SpaceClass.METRIC


def random_table_space(size, values, seed):
    """A space whose distinct-pair entries are drawn from `values`."""
    rng = random.Random(seed)
    table = [[Fraction(0)] * size for _ in range(size)]
    for i, j in combinations(range(size), 2):
        table[i][j] = table[j][i] = Fraction(rng.choice(values))
    return build_space([f"p{i}" for i in range(size)], table)


def test_classify_exact_at_a_mixed_denominator_boundary():
    # 1/3 + 1/2 = 5/6 exactly: a triangle equality over the common denominator 6
    def triangle(ab):
        return build_space(["a", "b", "c"], [[0, ab, "1/3"], [ab, 0, "1/2"], ["1/3", "1/2", 0]])

    assert classify(triangle("5/6")) is SpaceClass.METRIC
    assert classify(triangle("1")) is SpaceClass.SEMIMETRIC  # 5/6 + 1/6
    assert classify(triangle("1/2")) is SpaceClass.ULTRAMETRIC
    assert classify(triangle("3/7")) is SpaceClass.METRIC  # a third denominator: lcm 42
    for ab in ("5/6", "1", "1/2", "3/7", "1/3"):
        assert classify(triangle(ab)) is oracle_class(triangle(ab))
    # Mersenne-prime denominators: a common denominator of over 1000 bits
    p, q = 2**521 - 1, 2**607 - 1
    for ab, expected in ((Fraction(1, p) + Fraction(1, q), SpaceClass.METRIC),
                         (Fraction(1, p) + Fraction(1, q) + Fraction(1, p * q), SpaceClass.SEMIMETRIC)):
        space = build_space(["a", "b", "c"], [[0, ab, Fraction(1, p)], [ab, 0, Fraction(1, q)],
                                              [Fraction(1, p), Fraction(1, q), 0]])
        assert classify(space) is oracle_class(space) is expected


def test_classify_matches_axiom_scans_on_few_distinct_values():
    seen = set()
    for seed in range(60):
        values = ([1, 2], [1, 3], [1, 2, 3], ["1/2", 1, "3/2"], [2, 3, 5])[seed % 5]
        space = random_table_space(4 + seed % 5, values, seed)
        got = classify(space)
        seen.add(got)
        assert got is oracle_class(space)
    assert seen == set(SpaceClass)


def test_classify_matches_axiom_scans_on_larger_metric_spaces():
    cube = hypercube_space(5)
    truncation = example_3_12_truncation(TruncationParams(10, 5, 5))[0]
    assert truncation.size == 40
    for space in (cube, truncation):
        assert classify(space) is oracle_class(space) is SpaceClass.METRIC


def test_classify_finds_a_violation_only_at_the_last_pair():
    # in the 4-cube the last two points are adjacent and every other point is
    # at distance 3 or more through them, so raising their entry to 4 breaks
    # only triangles that use both of them
    cube = hypercube_space(4)
    table = [list(row) for row in cube.table]
    table[-1][-2] = table[-2][-1] = Fraction(4)
    space = build_space(cube.points, table)
    violating = {
        frozenset((a, b, c))
        for a, b, c in combinations(space.points, 3)
        if max(space.d(a, b), space.d(a, c), space.d(b, c)) * 2
        > space.d(a, b) + space.d(a, c) + space.d(b, c)
    }
    assert violating and all(set(space.points[-2:]) <= triple for triple in violating)
    assert classify(space) is oracle_class(space) is SpaceClass.SEMIMETRIC


def test_class_is_computed_once_per_space(monkeypatch):
    calls = []
    kernel = spaces._table_class
    monkeypatch.setattr(spaces, "_table_class", lambda table: calls.append(table) or kernel(table))
    space = random_ultrametric_space(6, 3)
    verdicts = [check_theorem_2_1(space, parts) for parts in all_bipartitions(space.point_set())]
    assert len(verdicts) > 1
    assert len(calls) == 1
    # an equal space built afresh is a new object and classifies again
    assert classify(build_space(space.points, space.table)) is SpaceClass.ULTRAMETRIC
    assert len(calls) == 2


def test_int_table_is_built_once_per_space_and_classify_reads_it(monkeypatch):
    built, classified = [], []
    scale, kernel = spaces._scaled_table, spaces._table_class
    monkeypatch.setattr(spaces, "_scaled_table", lambda table: built.append(scale(table)) or built[-1])
    monkeypatch.setattr(spaces, "_table_class", lambda rows: classified.append(rows) or kernel(rows))
    space = random_ultrametric_space(6, 3)
    for parts in all_bipartitions(space.point_set()):
        check_theorem_2_1(space, parts)
        build_threshold_graph(space, parts)
    assert classify(space) is SpaceClass.ULTRAMETRIC
    assert len(built) == 1 and built[0][0] > 1  # the table has fractional entries
    assert len(classified) == 1 and classified[0] is built[0][1]


# plain per-pair Fraction scans through space.d(), the oracles of the int-row distance layer

def scan_set_distance(space, a, b):
    return min(space.d(x, y) for x in a for y in b)


def scan_threshold_edges(space, parts):
    limit = scan_set_distance(space, parts.a, parts.b)
    return {(x, y) for x, y in combinations(sorted(space.points), 2) if space.d(x, y) <= limit}


def distance_layer_spaces():
    p, q = 2**521 - 1, 2**607 - 1
    ab = Fraction(1, p) + Fraction(1, q)
    f = Fraction
    return [
        # mixed denominators 3, 2, 6 with ties at the minimum 1/3
        build_space(["a", "b", "c", "d"], [[0, "1/3", "1/3", "5/6"], ["1/3", 0, "1/2", "1/3"],
                                           ["1/3", "1/2", 0, "1/2"], ["5/6", "1/3", "1/2", 0]]),
        # every threshold of {x} against the rest equals the within-part distance 3/4
        build_space(["x", "y", "z"], [[0, "3/4", "3/4"], ["3/4", 0, "3/4"], ["3/4", "3/4", 0]]),
        # built directly, without build_space; denominators 4, 3, 5 and 7, each needed by the scale
        FiniteSemimetricSpace(("u", "v", "w", "z"), (
            (f(0), f(1, 4), f(2, 3), f(3, 5)), (f(1, 4), f(0), f(2, 7), f(1, 4)),
            (f(2, 3), f(2, 7), f(0), f(2, 3)), (f(3, 5), f(1, 4), f(2, 3), f(0)))),
        # a common denominator past 512 bits: the rows stay Fractions
        build_space(["a", "b", "c"], [[0, ab, Fraction(1, p)], [ab, 0, Fraction(1, q)],
                                      [Fraction(1, p), Fraction(1, q), 0]]),
    ]


def test_distance_layer_matches_plain_fraction_scans():
    within_part_ties = 0
    for space in distance_layer_spaces():
        assert type(diameter(space, space.points)) is Fraction
        assert diameter(space, space.points) == max(space.d(x, y) for x in space.points for y in space.points)
        for parts in all_bipartitions(space.point_set()):
            dist = set_distance(space, parts.a, parts.b)
            assert type(dist) is Fraction and dist == scan_set_distance(space, parts.a, parts.b)
            report = proximity_report(space, parts)
            pairs = {(x, y) for x in parts.a for y in parts.b if space.d(x, y) == dist}
            assert report.distance == dist and report.pairs == pairs
            assert report.a0 == {x for x, _ in pairs} and report.b0 == {y for _, y in pairs}
            for part in (parts.a, parts.b):
                assert diameter(space, part) == max(space.d(x, y) for x in part for y in part)
                for x in space.points:
                    best = min(space.d(x, y) for y in part)
                    assert best_approximations(space, x, part) == {y for y in part if space.d(x, y) == best}
            edges = scan_threshold_edges(space, parts)
            assert build_threshold_graph(space, parts).edges == edges
            within_part_ties += any(
                space.d(x, y) == dist for x, y in edges if (x in parts.a) == (y in parts.a))
    assert within_part_ties  # some threshold equals a within-part distance, so `<=` vs `<` shows


def test_set_distance_hypercube_partition():
    space, parts = example_3_2()
    assert set_distance(space, parts.a, parts.b) == 1


def test_set_distance_truncation():
    for params in (TruncationParams(1, 1, 1), TruncationParams(2, 2, 2), TruncationParams(3, 1, 2)):
        space, parts = example_3_12_truncation(params)
        assert set_distance(space, parts.a, parts.b) == 2


def test_set_distance_same_singleton_is_zero():
    s = build_space(["x", "y"], [[0, 3], [3, 0]])
    assert set_distance(s, {"x"}, {"x"}) == 0


def test_set_distance_symmetric_and_antitone():
    for seed in range(10):
        space = random_semimetric_space(6, seed)
        pts = sorted(space.points)
        a, a_bigger, b = set(pts[:2]), set(pts[:4]), set(pts[4:])
        assert set_distance(space, a, b) == set_distance(space, b, a)
        assert set_distance(space, a_bigger, b) <= set_distance(space, a, b)


def test_set_distance_errors():
    s = build_space(["x", "y"], [[0, 3], [3, 0]])
    with pytest.raises(SpaceError, match="nonempty"):
        set_distance(s, set(), {"x"})
    with pytest.raises(SpaceError, match="unknown points"):
        set_distance(s, {"zz"}, {"x"})


def test_best_approximations_self_is_unique_minimum():
    s = build_space(["x", "y", "z"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert best_approximations(s, "x", {"x", "y", "z"}) == {"x"}


def test_best_approximations_all_weight_one_points():
    s = hypercube_space(4)
    assert best_approximations(s, "0000", {"1000", "0100", "0010", "0001"}) == {
        "1000", "0100", "0010", "0001",
    }


def test_best_approximations_nearest_only():
    s = build_space(["x", "a", "b"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert best_approximations(s, "x", {"a", "b"}) == {"a"}


def test_is_proximinal_always_true_in_finite_spaces():
    s = hypercube_space(3)
    assert is_proximinal(s, s.points)
    assert is_proximinal(s, {"000"})
    assert is_proximinal(s, {"101", "010"})
    with pytest.raises(SpaceError, match="nonempty"):
        is_proximinal(s, set())


def test_is_proximinal_agrees_with_best_approximation_oracle():
    # every point has a nonempty best approximation in every nonempty subset
    for seed in range(12):
        space = random_semimetric_space(2 + seed % 5, seed)
        for size in range(1, space.size + 1):
            for subset in combinations(space.points, size):
                assert is_proximinal(space, subset)
                assert all(best_approximations(space, x, subset) for x in space.points)


def test_proximity_report_hypercube_saturates_both_parts():
    space, parts = example_3_2()
    report = proximity_report(space, parts)
    assert report.distance == 1
    assert report.a0 == parts.a
    assert report.b0 == parts.b


def test_proximity_report_two_points():
    s = build_space(["a", "b"], [[0, 3], [3, 0]])
    report = proximity_report(s, Bipartition.of(["a"], ["b"]))
    assert report.distance == 3
    assert report.pairs == {("a", "b")}


def test_proximity_report_unique_minimum():
    s = build_space(
        ["a1", "a2", "b1", "b2"],
        [[0, 2, 1, 2], [2, 0, 2, 2], [1, 2, 0, 2], [2, 2, 2, 0]],
    )
    report = proximity_report(s, Bipartition.of(["a1", "a2"], ["b1", "b2"]))
    assert report.a0 == {"a1"}
    assert report.b0 == {"b1"}


def test_proximity_report_invariants_on_random_spaces():
    for seed in range(15):
        space = random_semimetric_space(5, seed)
        for parts in all_bipartitions(space.point_set()):
            report = proximity_report(space, parts)
            assert report.a0 and report.b0
            assert all(space.d(x, y) == report.distance for x, y in report.pairs)
            assert report.a0 == {x for x, _ in report.pairs}
            assert report.b0 == {y for _, y in report.pairs}


def test_diameter():
    s = hypercube_space(4)
    assert diameter(s, {"0000"}) == 0
    assert diameter(s, set()) == 0
    assert diameter(s, {"0000", "0001"}) == 1
    assert diameter(s, s.points) == 4


def test_theorem_2_1_positive_instance():
    space = ultrametric_u1()
    assert classify(space) is SpaceClass.ULTRAMETRIC
    parts = Bipartition.of(["a1", "a2"], ["b1", "b2"])
    assert check_theorem_2_1(space, parts) == (True, True)
    # swapping the parts keeps both statements true: diam = 2 <= dist = 2
    assert check_theorem_2_1(space, Bipartition(parts.b, parts.a)) == (True, True)


def test_theorem_2_1_negative_instance():
    space = ultrametric_u2()
    assert classify(space) is SpaceClass.ULTRAMETRIC
    parts = Bipartition.of(["a1", "a2"], ["b1", "b2"])
    assert check_theorem_2_1(space, parts) == (False, False)


def test_theorem_2_1_requires_ultrametric():
    s = hypercube_space(2)
    with pytest.raises(SpaceError, match="ultrametric"):
        check_theorem_2_1(s, Bipartition.of(["00"], ["11"]))


def test_theorem_2_1_statements_agree_on_random_ultrametrics():
    for seed in range(25):
        space = random_ultrametric_space(5, seed)
        for parts in all_bipartitions(space.point_set()):
            stmt1, stmt2 = check_theorem_2_1(space, parts)
            assert stmt1 == stmt2
