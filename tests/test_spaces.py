"""Semimetric spaces: validation, classification, distances, proximity."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from proxigraph import (
    Bipartition,
    FiniteSemimetricSpace,
    GraphError,
    SimpleGraph,
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
from proxigraph.path_proximinal import witness_ultrametric
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


# Each ordered triple (a, b, c) is read off the table rows as d(a, b), d(a, c) and d(c, b).

def metric_axiom_holds(space):
    t = space.table
    return all(ab <= ac + cb for row_a in t for ac, row_c in zip(row_a, t) for ab, cb in zip(row_a, row_c))


def ultrametric_axiom_holds(space):
    t = space.table
    return all(ab <= max(ac, cb) for row_a in t for ac, row_c in zip(row_a, t) for ab, cb in zip(row_a, row_c))


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


def test_build_space_rejects_an_unhashable_entry():
    with pytest.raises(SpaceError, match=r"not a rational value: \[1\]"):
        build_space(["a", "b"], [[0, [1]], [[1], 0]])


@pytest.mark.parametrize("table, flag", [([[0, 1], [True, 0]], True), ([[0, 1], [1, False]], False)])
def test_build_space_rejects_a_boolean_after_the_equal_int(table, flag):
    # True == 1 and False == 0, with equal hashes; the ints come first in row-major order
    with pytest.raises(SpaceError, match=f"not a rational value: {flag}"):
        build_space(["a", "b"], table)


MERSENNE_P, MERSENNE_Q = 2**521 - 1, 2**607 - 1


def test_build_space_keeps_fraction_entries_and_the_messages_of_other_entries(monkeypatch):
    parsed = []
    parse = spaces.to_rational
    monkeypatch.setattr(spaces, "to_rational", lambda value: parsed.append(value) or parse(value))
    half = Fraction(1, 2)
    space = build_space(["a", "b", "c"], [[Fraction(0), half, 1], [half, 0, "3/2"], [1, "3/2", 0]])
    assert space.table[0][1] is half and space.table[2][1] == Fraction(3, 2)
    assert not any(type(value) is Fraction for value in parsed)
    for bad, message in ((True, "not a rational value: True"), (1.5, "not a rational value: 1.5"),
                         ("1/0", "malformed rational '1/0': expected an integer or 'p/q' with q > 0"),
                         ("0.5", "malformed rational '0.5': expected an integer or 'p/q' with q > 0")):
        with pytest.raises(SpaceError) as info:
            build_space(["a", "b"], [[Fraction(0), Fraction(1)], [bad, 0]])
        assert str(info.value) == message


@pytest.mark.parametrize("table, message", [
    ([[0, "-1/2", "1/3"], ["-1/2", 0, 1], ["1/3", 2, 0]], "negative entry at (a, b): -1/2"),
    ([[0, 1, 2], ["3/2", 0, -1], [2, -1, 0]], "asymmetric entries at (a, b): 1 vs 3/2"),
    ([[0, 1, 2], [-1, 0, 3], [2, 4, 0]], "asymmetric entries at (a, b): 1 vs -1"),
    ([[0, 1, 2], [1, 0, 0], [2, 0, "1/2"]], "zero distance between distinct points (b, c)"),
    ([[0, 1, 2], [1, "1/3", -1], [2, 5, 0]], "nonzero diagonal entry at (b, b): 1/3"),
    # a common denominator past 512 bits: the checks run on the Fraction rows
    ([[0, f"1/{MERSENNE_P}", f"-1/{MERSENNE_Q}"], [f"1/{MERSENNE_P}", 0, 1], [f"1/{MERSENNE_Q}", 2, 0]],
     f"negative entry at (a, c): -1/{MERSENNE_Q}"),
])
def test_build_space_reports_the_first_defect_in_row_major_order(table, message):
    with pytest.raises(SpaceError) as info:
        build_space(["a", "b", "c"], table)
    assert str(info.value) == message


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


def test_classify_matches_axiom_scans_with_ties_at_a_merge_level():
    pts = ["a", "b", "c", "d"]
    cases = [
        # two merges at level 1, then one at level 2 whose four cross pairs all lie at 2
        ([[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]], SpaceClass.ULTRAMETRIC),
        # every pair at level 3: three merges, each a tie with the pairs checked before it
        ([[0, 3, 3, 3], [3, 0, 3, 3], [3, 3, 0, 3], [3, 3, 3, 0]], SpaceClass.ULTRAMETRIC),
        # a path of pairs at level 1: the second merge at 1 meets a cross pair at 2
        ([[0, 1, 2, 2], [1, 0, 1, 2], [2, 1, 0, 1], [2, 2, 1, 0]], SpaceClass.METRIC),
        ([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]], SpaceClass.METRIC),
        ([[0, 1, 3, 2], [1, 0, 1, 2], [3, 1, 0, 2], [2, 2, 2, 0]], SpaceClass.SEMIMETRIC),
    ]
    for table, expected in cases:
        space = build_space(pts, table)
        assert classify(space) is oracle_class(space) is expected
    for seed in range(20):  # the triangles of an ultrametric are isosceles, so these have ties too
        space = random_ultrametric_space(8, seed)
        assert classify(space) is oracle_class(space) is SpaceClass.ULTRAMETRIC


def test_classify_finds_a_violation_only_at_the_last_merge():
    # d(x, y) = bit length of x ^ y is an ultrametric on 16 points; its last merge, at level 4,
    # joins 0-7 to 8-15, and one cross pair one unit above that level is the only defect
    pts = [f"p{x:02d}" for x in range(16)]
    table = [[(x ^ y).bit_length() for y in range(16)] for x in range(16)]
    assert classify(build_space(pts, table)) is SpaceClass.ULTRAMETRIC
    table[7][15] = table[15][7] = 5
    space = build_space(pts, table)
    assert classify(space) is oracle_class(space) is SpaceClass.METRIC
    without_15 = build_space(pts[:15], [row[:15] for row in table[:15]])
    without_7 = build_space(pts[:7] + pts[8:], [row[:7] + row[8:] for row in table[:7] + table[8:]])
    assert oracle_class(without_15) is oracle_class(without_7) is SpaceClass.ULTRAMETRIC


def test_classify_matches_axiom_scans_on_fraction_rows_past_512_bits():
    near, far = Fraction(1, MERSENNE_Q), Fraction(1, MERSENNE_P)
    for ac, expected in ((near, SpaceClass.ULTRAMETRIC), (2 * near, SpaceClass.METRIC),
                         (3 * near, SpaceClass.SEMIMETRIC)):
        space = build_space(["a", "b", "c", "e"], [[0, near, ac, far], [near, 0, near, far],
                                                    [ac, near, 0, far], [far, far, far, 0]])
        scale, rows = space._scaled
        assert scale == 1 and type(rows[0][1]) is Fraction
        assert classify(space) is oracle_class(space) is expected


def integral_copy(space):
    """The same table with plain int entries, so that the triple scans stay fast on 128 points."""
    assert all(v.denominator == 1 for row in space.table for v in row)
    return FiniteSemimetricSpace(space.points, tuple(tuple(int(v) for v in row) for row in space.table))


def test_classify_matches_axiom_scans_on_the_128_point_matching_space():
    # the {0,1,2} space that witness_ultrametric builds for the perfect matching of the 7-cube
    points = [format(i, "07b") for i in range(128)]
    matching = build_graph(points, [[p, "1" + p[1:]] for p in points if p[0] == "0"])
    witness = witness_ultrametric(matching).space
    assert classify(witness) is oracle_class(integral_copy(witness)) is SpaceClass.ULTRAMETRIC
    # 1111101 and 1111111 are unmatched, at 2: at 1 only the strong triangle inequality
    # breaks, at 3 every triangle holds (as an equality through a partner), at 4 one breaks
    i, j = witness.index["1111101"], witness.index["1111111"]
    for value, expected in ((1, SpaceClass.METRIC), (3, SpaceClass.METRIC), (4, SpaceClass.SEMIMETRIC)):
        table = [list(row) for row in witness.table]
        table[i][j] = table[j][i] = Fraction(value)
        space = build_space(witness.points, table)
        assert classify(space) is oracle_class(integral_copy(space)) is expected


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


# edge cases of the packed-field triangle test, each checked against the ordered-triple scans

def line_space(positions):
    """Points on a line at the given rational positions: every triangle through a middle point is tight."""
    xs = [Fraction(x) for x in positions]
    return build_space([f"p{k}" for k in range(len(xs))], [[abs(x - y) for y in xs] for x in xs])


def with_entry(space, x, y, value):
    """A copy of `space` with d(x, y) = d(y, x) = value."""
    table = [list(row) for row in space.table]
    i, j = space.index[x], space.index[y]
    table[i][j] = table[j][i] = Fraction(value)
    return build_space(space.points, table)


def test_packed_test_keeps_exact_equalities_and_catches_one_unit_over():
    line = line_space([0, 1, 3, 4, 7, 9])
    assert classify(line) is oracle_class(line) is SpaceClass.METRIC
    for x, y in (("p0", "p2"), ("p1", "p3"), ("p2", "p5"), ("p0", "p5")):
        over = with_entry(line, x, y, line.d(x, y) + 1)  # d(x, k) + d(k, y) one unit below d(x, y)
        assert classify(over) is oracle_class(over) is SpaceClass.SEMIMETRIC


@pytest.mark.parametrize("middle", [0, 5], ids=["lowest-field", "highest-field"])
def test_packed_test_finds_a_violation_in_the_lowest_and_highest_field(middle):
    # entries in {2, 3} keep every triangle; d(a, k) = d(k, b) = 1 under d(a, b) = 3 breaks
    # only the triangle through k, so only field k of the pair (a, b) loses its guard bit
    table = [[0 if i == j else 2 + (i + j) % 2 for j in range(6)] for i in range(6)]
    a, b = [k for k in range(6) if k != middle][1:3]
    table[a][b] = table[b][a] = 3
    for end in (a, b):
        table[middle][end] = table[end][middle] = 1
    space = build_space([f"p{k}" for k in range(6)], table)
    assert classify(space) is oracle_class(space) is SpaceClass.SEMIMETRIC
    table[a][b] = table[b][a] = 2
    space = build_space([f"p{k}" for k in range(6)], table)
    assert classify(space) is oracle_class(space) is SpaceClass.METRIC


@pytest.mark.parametrize("top", [4, 8, 16, 3, 7, 15])
def test_packed_test_at_field_width_boundaries(top):
    # 2·top a power of two (4, 8, 16), or the nearest even value below one (3, 7, 15);
    # d(a, c) = d(b, c) = top over d(a, b) = 1 gives a field d(a, c) + d(c, b) - d(a, b)
    # of 2·top - 1, the largest a metric table can put in a field
    table = [[0, 1, top, 2], [1, 0, top, 3], [top, top, 0, top], [2, 3, top, 0]]
    space = build_space(["a", "b", "c", "e"], table)
    assert classify(space) is oracle_class(space) is SpaceClass.METRIC
    for value, expected in ((top - 2, SpaceClass.METRIC), (top - 3, SpaceClass.SEMIMETRIC)):
        # d(c, e) lowered: d(c, e) + d(e, a) = value + 2 against d(c, a) = top
        if value > 0:
            table[2][3] = table[3][2] = value
            space = build_space(["a", "b", "c", "e"], table)
            assert classify(space) is oracle_class(space) is expected


def test_packed_test_on_int_rows_just_under_the_512_bit_cutover():
    denominator = 3**315  # 500 bits
    line = line_space([0, Fraction(1, denominator), 1, Fraction(3, 2), 2 + Fraction(2, denominator)])
    scale, rows = line._scaled
    assert scale == 2 * denominator and 490 < scale.bit_length() <= 512
    assert type(rows[0][1]) is int and max(map(max, rows)).bit_length() > 500
    assert classify(line) is oracle_class(line) is SpaceClass.METRIC
    over = with_entry(line, "p0", "p4", line.d("p0", "p4") + Fraction(1, scale))
    assert over._scaled[0] == scale
    assert classify(over) is oracle_class(over) is SpaceClass.SEMIMETRIC


def test_packed_test_agrees_with_axiom_scans_on_random_int_tables():
    seen = set()
    for seed in range(300):
        rng = random.Random(seed)
        top = rng.randint(1, 40)
        space = random_table_space(rng.randint(3, 8), range(rng.randint(1, top), top + 1), seed)
        got = classify(space)
        seen.add(got)
        assert got is oracle_class(space)
    assert seen == set(SpaceClass)


def test_classify_8_cube_is_metric():
    assert classify(hypercube_space(8)) is SpaceClass.METRIC


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


# the per-space memos: one threshold graph per dist(A, B), row indices per frozenset

def memo_spaces():
    near, far = Fraction(1, MERSENNE_Q), Fraction(1, MERSENNE_P)
    yield build_space(["a", "b", "c", "e"], [[0, near, 2 * near, far], [near, 0, near, far],
                                             [2 * near, near, 0, far], [far, far, far, 0]])
    for seed in range(4):
        for n in range(2, 8):
            yield random_ultrametric_space(n, seed)
            yield random_semimetric_space(n, seed)


def test_threshold_graphs_are_shared_per_distance_and_match_a_plain_scan():
    fraction_rows = 0
    for space in memo_spaces():
        fraction_rows += type(space._scaled[1][0][1]) is Fraction
        by_limit, bipartitions = {}, 0
        for parts in all_bipartitions(space.point_set()):
            graph = build_threshold_graph(space, parts)
            assert graph == SimpleGraph(space.point_set(), frozenset(scan_threshold_edges(space, parts)))
            assert by_limit.setdefault(scan_set_distance(space, parts.a, parts.b), graph) is graph
            bipartitions += 1
        assert len(space._threshold_graphs) == len(by_limit)
        if space.size > 3:
            assert bipartitions > len(by_limit)  # some graphs were handed out again
    assert fraction_rows == 1  # the space past the 512-bit common denominator


def test_a_warm_memo_still_rejects_bad_partitions_and_unknown_points():
    space = random_semimetric_space(5, 1)
    for parts in all_bipartitions(space.point_set()):
        build_threshold_graph(space, parts)
        proximity_report(space, parts)
    pts = sorted(space.points)
    assert frozenset(pts[:2]) in space._row_indices
    with pytest.raises(GraphError, match="cover the point set exactly"):
        build_threshold_graph(space, Bipartition.of(pts[:2], pts[2:4]))
    with pytest.raises(GraphError, match=r"extraneous=\['zz'\]"):
        build_threshold_graph(space, Bipartition.of(pts[:2], pts[2:] + ["zz"]))
    unknown = frozenset([pts[0], "zz"])
    for query in (lambda: set_distance(space, unknown, frozenset(pts[2:])),
                  lambda: diameter(space, unknown),
                  lambda: is_proximinal(space, unknown),
                  lambda: best_approximations(space, pts[0], unknown)):
        with pytest.raises(SpaceError, match=r"unknown points: \['zz'\]"):
            query()
    assert unknown not in space._row_indices
    assert set_distance(space, set(pts[:2]), pts[2:]) == \
        set_distance(space, frozenset(pts[:2]), frozenset(pts[2:]))


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
