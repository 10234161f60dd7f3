"""Semimetric spaces: validation, classification, distances, proximity."""

import random
from fractions import Fraction
from itertools import combinations, islice
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from proxigraph import (
    Bipartition,
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
from proxigraph.fileio import load_space, save_json, space_to_obj
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

def metric_axiom_holds(t):
    return all(ab <= ac + cb for row_a in t for ac, row_c in zip(row_a, t) for ab, cb in zip(row_a, row_c))


def ultrametric_axiom_holds(t):
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
    # with or without Fraction entries, each distinct int or str entry is parsed once, no Fraction is
    # parsed, and a bad entry is worded alike
    parsed = []
    parse = spaces.to_rational
    monkeypatch.setattr(spaces, "to_rational", lambda value: parsed.append(value) or parse(value))
    half = Fraction(1, 2)
    for zero, first in ((Fraction(0), half), (0, "1/2")):
        parsed.clear()
        space = build_space(["a", "b", "c"], [[zero, first, 1], ["1/2", 0, "3/2"], [1, "3/2", 0]])
        assert space.table[0][1] == half and space.table[2][1] == Fraction(3, 2)
        assert (space.scale, space.rows) == (2, ((0, 1, 2), (1, 0, 3), (2, 3, 0)))
        assert sorted(map(repr, parsed)) == ["'1/2'", "'3/2'", "0", "1"]
        for bad, message in ((True, "not a rational value: True"), (1.5, "not a rational value: 1.5"),
                             ("1/0", "malformed rational '1/0': expected an integer or 'p/q' with q > 0"),
                             ("0.5", "malformed rational '0.5': expected an integer or 'p/q' with q > 0")):
            with pytest.raises(SpaceError) as info:
                build_space(["a", "b"], [[zero, 1], [bad, 0]])
            assert str(info.value) == message
    space = build_space(["a", "b"], [[0, half], [half, 0]])
    assert (space.scale, space.rows, space.table) == (2, ((0, 1), (1, 0)), ((0, half), (half, 0)))


@pytest.mark.parametrize("table, message", [
    ([[0, "x/y", True], ["x/y", 0, 1.5], [True, 1.5, 0]],
     "malformed rational 'x/y': expected an integer or 'p/q' with q > 0"),
    ([[0, 1, True], [1, 0, "1/0"], [True, "1/0", 0]], "not a rational value: True"),
    ([[0, 2.5, "0.5"], [2.5, 0, "0.5"], ["0.5", "0.5", 0]], "not a rational value: 2.5"),
    ([[0, 1, 2], [1, 0, [3]], [2, "bad", 0]], "not a rational value: [3]"),
    ([[0, 1, 2], [1, 0, "1/0"], [2, [3], 0]], "malformed rational '1/0': expected an integer or 'p/q' with q > 0"),
    ([[0, -1, "x"], [-1, 0, 1], ["x", 1, 0]], "malformed rational 'x': expected an integer or 'p/q' with q > 0"),
    ([[0, "1/2", 2], ["1/2", 0, None], [2, 1, 0]], "not a rational value: None"),
    ([[0, 1, 2], [1, 0], [2, 1, 0]], "table row 1 has 2 entries for 3 points"),
    ([[0, "q", 2], [1, 0], [2, 1, 0]], "malformed rational 'q': expected an integer or 'p/q' with q > 0"),
])
def test_build_space_names_the_first_of_several_bad_entries(table, message):
    with pytest.raises(SpaceError) as info:
        build_space(["a", "b", "c"], table)
    assert str(info.value) == message


def _outcome(points, table):
    try:
        space = build_space(points, table)
    except SpaceError as exc:
        return str(exc)
    return space.scale, space.rows, space.table


entry_text = st.sampled_from([0, 1, 2, 3, -1, "0", "1", "1/2", "2/4", "3/2", "-1/3", "5/6"])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(entry_text, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * n),
)))
def test_int_or_str_route_matches_the_fraction_route(drawn):
    # the upper triangle mirrored and the diagonal zeroed, then some cells copied across: valid and invalid tables
    cells, mirrored = drawn
    n = len(cells)
    table = [[0 if i == j else cells[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    for i, j in mirrored:
        table[i][j] = cells[i][j]
    points = [f"p{i}" for i in range(n)]
    as_fractions = [[to_rational(v) for v in row] for row in table]
    outcome = _outcome(points, table)
    assert outcome == _outcome(points, as_fractions)
    valid = all((v == 0) == (i == j) and v >= 0 and v == as_fractions[j][i]
                for i, row in enumerate(as_fractions) for j, v in enumerate(row))
    assert isinstance(outcome, str) is not valid
    if valid:  # the rows are the input entries over the LCM of their denominators, the view the entries
        scale = lcm(*(v.denominator for row in as_fractions for v in row))
        assert outcome == (scale, tuple(tuple(int(v * scale) for v in row) for row in as_fractions),
                           tuple(map(tuple, as_fractions)))


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
        assert metric_axiom_holds(space.table) == (got in (SpaceClass.METRIC, SpaceClass.ULTRAMETRIC))
        assert ultrametric_axiom_holds(space.table) == (got is SpaceClass.ULTRAMETRIC)
    assert seen == set(SpaceClass)


def oracle_class(table):
    """The class read off the ordered-triple axiom scans of a table."""
    if not metric_axiom_holds(table):
        return SpaceClass.SEMIMETRIC
    return SpaceClass.ULTRAMETRIC if ultrametric_axiom_holds(table) else SpaceClass.METRIC


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
        assert classify(triangle(ab)) is oracle_class(triangle(ab).table)
    # Mersenne-prime denominators: a common denominator of over 1000 bits
    p, q = 2**521 - 1, 2**607 - 1
    for ab, expected in ((Fraction(1, p) + Fraction(1, q), SpaceClass.METRIC),
                         (Fraction(1, p) + Fraction(1, q) + Fraction(1, p * q), SpaceClass.SEMIMETRIC)):
        space = build_space(["a", "b", "c"], [[0, ab, Fraction(1, p)], [ab, 0, Fraction(1, q)],
                                              [Fraction(1, p), Fraction(1, q), 0]])
        assert classify(space) is oracle_class(space.table) is expected


def test_classify_matches_axiom_scans_on_few_distinct_values():
    seen = set()
    for seed in range(60):
        values = ([1, 2], [1, 3], [1, 2, 3], ["1/2", 1, "3/2"], [2, 3, 5])[seed % 5]
        space = random_table_space(4 + seed % 5, values, seed)
        got = classify(space)
        seen.add(got)
        assert got is oracle_class(space.table)
    assert seen == set(SpaceClass)


def test_classify_matches_axiom_scans_on_larger_metric_spaces():
    cube = hypercube_space(5)
    truncation = example_3_12_truncation(TruncationParams(10, 5, 5))[0]
    assert truncation.size == 40
    for space in (cube, truncation):
        assert classify(space) is oracle_class(space.table) is SpaceClass.METRIC


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
    assert classify(space) is oracle_class(space.table) is SpaceClass.SEMIMETRIC


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
        assert classify(space) is oracle_class(space.table) is expected
    for seed in range(20):  # the triangles of an ultrametric are isosceles, so these have ties too
        space = random_ultrametric_space(8, seed)
        assert classify(space) is oracle_class(space.table) is SpaceClass.ULTRAMETRIC


def test_classify_finds_a_violation_only_at_the_last_merge():
    # d(x, y) = bit length of x ^ y is an ultrametric on 16 points; its last merge, at level 4,
    # joins 0-7 to 8-15, and one cross pair one unit above that level is the only defect
    pts = [f"p{x:02d}" for x in range(16)]
    table = [[(x ^ y).bit_length() for y in range(16)] for x in range(16)]
    assert classify(build_space(pts, table)) is SpaceClass.ULTRAMETRIC
    table[7][15] = table[15][7] = 5
    space = build_space(pts, table)
    assert classify(space) is oracle_class(space.table) is SpaceClass.METRIC
    without_15 = build_space(pts[:15], [row[:15] for row in table[:15]])
    without_7 = build_space(pts[:7] + pts[8:], [row[:7] + row[8:] for row in table[:7] + table[8:]])
    assert oracle_class(without_15.table) is oracle_class(without_7.table) is SpaceClass.ULTRAMETRIC


def test_classify_matches_axiom_scans_on_fraction_rows_past_512_bits():
    near, far = Fraction(1, MERSENNE_Q), Fraction(1, MERSENNE_P)
    for ac, expected in ((near, SpaceClass.ULTRAMETRIC), (2 * near, SpaceClass.METRIC),
                         (3 * near, SpaceClass.SEMIMETRIC)):
        space = build_space(["a", "b", "c", "e"], [[0, near, ac, far], [near, 0, near, far],
                                                    [ac, near, 0, far], [far, far, far, 0]])
        scale, rows = space.scale, space.rows
        assert scale == 1 and type(rows[0][1]) is Fraction
        assert classify(space) is oracle_class(space.table) is expected


def pivot_refutes(t):
    """True iff some d(i, j) exceeds max(d(i, 0), d(0, j)): a plain scan of the triples through point 0."""
    return any(t[i][j] > max(t[i][0], t[0][j]) for i in range(len(t)) for j in range(len(t)))


@pytest.mark.parametrize("points, table", [
    ([], []),
    (["a"], [[0]]),
    (["a", "b"], [[0, "3/2"], ["3/2", 0]]),
    (["a", "b"], [[0, f"1/{MERSENNE_P}"], [f"1/{MERSENNE_P}", 0]]),  # Fraction rows past 512 bits
])
def test_classify_spaces_without_three_points_are_ultrametric(points, table):
    space = build_space(points, table)
    assert classify(space) is oracle_class(space.table) is SpaceClass.ULTRAMETRIC


def test_classify_refutes_what_avoids_point_0():
    # d(x, y) = bit length of x ^ y on 16 points; 8..15 all lie at 4 from point 0, so the
    # triples through point 0 cannot see a change among them
    pts = [f"p{x:02d}" for x in range(16)]
    for value, expected in ((4, SpaceClass.METRIC), (2, SpaceClass.METRIC), (1, SpaceClass.SEMIMETRIC)):
        table = [[(x ^ y).bit_length() for y in range(16)] for x in range(16)]
        table[8][12] = table[12][8] = value  # was 3: (8, 9, 12) breaks the strong triangle inequality
        space = build_space(pts, table)
        assert not pivot_refutes(space.table)
        assert classify(space) is oracle_class(space.table) is expected


def test_classify_with_point_0_tied_at_the_top_of_every_row():
    # row 0 is one tie at the largest value, so every triple through it holds; the other
    # points carry a random table, at small ints, halves, or Fractions past 512 bits
    near = Fraction(1, MERSENNE_Q)
    seen = set()
    for seed in range(150):
        values = ([1, 2], [1, 2, 3], ["1/2", 1, "3/2"], [near, 2 * near, 3 * near])[seed % 4]
        rest = random_table_space(2 + seed % 6, values, seed)
        top = max(map(Fraction, values))
        table = [[0] + [top] * rest.size] + [[top, *row] for row in rest.table]
        space = build_space(["z", *rest.points], table)
        assert not pivot_refutes(space.table)
        assert (seed % 4 == 3) == (type(space.rows[0][1]) is Fraction)
        got = classify(space)
        seen.add(got)
        assert got is oracle_class(space.table)
    assert seen == set(SpaceClass)


def test_classify_matches_axiom_scans_whichever_check_refutes():
    outcomes = set()
    for seed in range(200):
        space = random_table_space(3 + seed % 6, ([1, 2], [1, 2, 3], ["1/2", 1, "3/2"])[seed % 3], seed)
        got = classify(space)
        assert got is oracle_class(space.table)
        outcomes.add((got, pivot_refutes(space.table)))
    non_ultrametric = {(c, refuted) for c in (SpaceClass.METRIC, SpaceClass.SEMIMETRIC) for refuted in (False, True)}
    assert outcomes == {(SpaceClass.ULTRAMETRIC, False), *non_ultrametric}  # each class, by each check


def integral_table(space):
    """The table with plain int entries, so that the triple scans stay fast on 128 points."""
    assert all(v.denominator == 1 for row in space.table for v in row)
    return [[int(v) for v in row] for row in space.table]


def test_classify_matches_axiom_scans_on_the_128_point_matching_space():
    # the {0,1,2} space that witness_ultrametric builds for the perfect matching of the 7-cube
    points = [format(i, "07b") for i in range(128)]
    matching = build_graph(points, [[p, "1" + p[1:]] for p in points if p[0] == "0"])
    witness = witness_ultrametric(matching).space
    assert classify(witness) is oracle_class(integral_table(witness)) is SpaceClass.ULTRAMETRIC
    # 1111101 and 1111111 are unmatched, at 2: at 1 only the strong triangle inequality
    # breaks, at 3 every triangle holds (as an equality through a partner), at 4 one breaks
    i, j = witness.index["1111101"], witness.index["1111111"]
    for value, expected in ((1, SpaceClass.METRIC), (3, SpaceClass.METRIC), (4, SpaceClass.SEMIMETRIC)):
        table = [list(row) for row in witness.table]
        table[i][j] = table[j][i] = Fraction(value)
        space = build_space(witness.points, table)
        assert classify(space) is oracle_class(integral_table(space)) is expected


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
    # build_space scales its input once, at birth, to the LCM of the input denominators;
    # classify reads those very rows, and no query scales again
    built, classified = [], []
    scaled_rows, kernel = spaces._scaled_rows, spaces._table_class
    monkeypatch.setattr(spaces, "_scaled_rows", lambda *args: built.append(scaled_rows(*args)) or built[-1])
    monkeypatch.setattr(spaces, "_table_class", lambda rows: classified.append(rows) or kernel(rows))
    source = random_ultrametric_space(6, 3)
    fractions = [list(row) for row in source.table]
    scale = lcm(*(v.denominator for row in fractions for v in row))
    expected = (scale, tuple(tuple(int(v * scale) for v in row) for row in fractions))
    for table in (fractions, [[str(v) for v in row] for row in fractions]):
        built.clear()
        classified.clear()
        space = build_space(source.points, table)
        for parts in all_bipartitions(space.point_set()):
            check_theorem_2_1(space, parts)
            build_threshold_graph(space, parts)
        assert classify(space) is SpaceClass.ULTRAMETRIC
        assert scale > 1 and built == [expected] and space == source
        assert space.rows is built[0][1] and classified == [space.rows]


def test_queries_and_the_writer_never_build_the_fraction_view(tmp_path):
    path = tmp_path / "space.json"
    save_json(path, {"points": ["a", "b", "c"], "distances": [[0, "1/2", 1], ["1/2", 0, 1], [1, 1, 0]]})
    generated = [
        load_space(path),
        hypercube_space(3),
        example_3_12_truncation(TruncationParams(2, 1, 2))[0],
        example_3_2()[0],
        adjacency_metric(build_graph(["a", "b", "c", "d"], [["a", "b"], ["c", "d"]])),
        random_ultrametric_space(6, 1),
        random_semimetric_space(5, 1),
    ]
    for space in generated:
        for parts in islice(all_bipartitions(space.point_set()), 40):
            build_threshold_graph(space, parts)
            if classify(space) is SpaceClass.ULTRAMETRIC:
                check_theorem_2_1(space, parts)
        space_to_obj(space)
        assert "table" not in vars(space)
        space.d(space.points[0], space.points[1])
        assert "table" not in vars(space)  # d() reads the rows
        space.table
        assert "table" in vars(space)  # the first read of the view builds it


# edge cases of the packed-field pass, each checked against the ordered-triple scans

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
    assert classify(line) is oracle_class(line.table) is SpaceClass.METRIC
    for x, y in (("p0", "p2"), ("p1", "p3"), ("p2", "p5"), ("p0", "p5")):
        over = with_entry(line, x, y, line.d(x, y) + 1)  # d(x, k) + d(k, y) one unit below d(x, y)
        assert classify(over) is oracle_class(over.table) is SpaceClass.SEMIMETRIC


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
    assert classify(space) is oracle_class(space.table) is SpaceClass.SEMIMETRIC
    table[a][b] = table[b][a] = 2
    space = build_space([f"p{k}" for k in range(6)], table)
    assert classify(space) is oracle_class(space.table) is SpaceClass.METRIC


@pytest.mark.parametrize("top", [4, 8, 16, 3, 7, 15])
def test_packed_test_at_field_width_boundaries(top):
    # 2·top a power of two (4, 8, 16), or the nearest even value below one (3, 7, 15);
    # d(a, c) = d(b, c) = top over d(a, b) = 1 gives a field d(a, c) + d(c, b) - d(a, b)
    # of 2·top - 1, the largest a metric table can put in a field
    table = [[0, 1, top, 2], [1, 0, top, 3], [top, top, 0, top], [2, 3, top, 0]]
    space = build_space(["a", "b", "c", "e"], table)
    assert classify(space) is oracle_class(space.table) is SpaceClass.METRIC
    for value, expected in ((top - 2, SpaceClass.METRIC), (top - 3, SpaceClass.SEMIMETRIC)):
        # d(c, e) lowered: d(c, e) + d(e, a) = value + 2 against d(c, a) = top
        if value > 0:
            table[2][3] = table[3][2] = value
            space = build_space(["a", "b", "c", "e"], table)
            assert classify(space) is oracle_class(space.table) is expected


def test_packed_test_on_int_rows_just_under_the_512_bit_cutover():
    denominator = 3**315  # 500 bits
    line = line_space([0, Fraction(1, denominator), 1, Fraction(3, 2), 2 + Fraction(2, denominator)])
    scale, rows = line.scale, line.rows
    assert scale == 2 * denominator and 490 < scale.bit_length() <= 512
    assert type(rows[0][1]) is int and max(map(max, rows)).bit_length() > 500
    assert classify(line) is oracle_class(line.table) is SpaceClass.METRIC
    over = with_entry(line, "p0", "p4", line.d("p0", "p4") + Fraction(1, scale))
    assert over.scale == scale
    assert classify(over) is oracle_class(over.table) is SpaceClass.SEMIMETRIC


def test_a_512_bit_scale_keeps_int_rows_and_a_513_bit_one_falls_back_to_fractions():
    for denominator, scale, entry in ((2**511, 2**511, int), (2**512, 1, Fraction)):
        d = Fraction(1, denominator)
        space = build_space(["a", "b"], [[0, d], [d, 0]])
        assert space.scale == scale and type(space.rows[0][1]) is entry
        assert space.d("a", "b") == d


def test_packed_test_agrees_with_axiom_scans_on_random_int_tables():
    seen = set()
    for seed in range(300):
        rng = random.Random(seed)
        top = rng.randint(1, 40)
        space = random_table_space(rng.randint(3, 8), range(rng.randint(1, top), top + 1), seed)
        got = classify(space)
        seen.add(got)
        assert got is oracle_class(space.table)
    assert seen == set(SpaceClass)


@pytest.mark.parametrize("top", [4, 8, 16, 3, 7, 15])
def test_packed_strong_test_at_field_width_boundaries(top):
    # d(a, b) = 1 and every other pair at top: ultrametric; field c of S_a at d(a, b) = 1 and
    # field a of S_a at d(a, c) = top sit top - 1 above and top below the guard bit, the
    # ends of the range that a table with largest entry top can give
    points = ["a", "b", "c", "e"]
    table = [[0, 1, top, top], [1, 0, top, top], [top, top, 0, top], [top, top, top, 0]]
    space = build_space(points, table)
    assert classify(space) is oracle_class(space.table) is SpaceClass.ULTRAMETRIC
    for pairs, value, expected in (
        ([(2, 3)], top - 1, SpaceClass.ULTRAMETRIC),  # one pair of the top cluster lowered
        ([(0, 3)], top - 1, SpaceClass.METRIC),  # (a, e, c): top over max(top - 1, top - 1)
        ([(0, 3), (2, 3)], 1, SpaceClass.SEMIMETRIC),  # (a, e, c): top over 1 + 1
    ):
        for x, y in pairs:
            table[x][y] = table[y][x] = value
        space = build_space(points, table)
        assert classify(space) is oracle_class(space.table) is expected


@pytest.mark.parametrize("place", ["first", "middle", "last"])
def test_packed_pass_finds_a_strong_violation_at_the_first_middle_or_last_pair(place):
    # every entry 2 except one (1, 1, 2) triangle: metric, and the strong triangle
    # inequality breaks only at the pair at 2 of that triangle, put at the first, a
    # middle or the last pair i < j in the order of the pass
    n = 8
    i, j = {"first": (0, 1), "middle": (3, 5), "last": (n - 2, n - 1)}[place]
    k = next(k for k in range(n) if k not in (i, j))
    table = [[0 if x == y else 2 for y in range(n)] for x in range(n)]
    for x, y in ((i, k), (k, j)):
        table[x][y] = table[y][x] = 1
    space = build_space([f"p{x}" for x in range(n)], table)
    assert classify(space) is oracle_class(space.table) is SpaceClass.METRIC
    table[i][j] = table[j][i] = 3  # now (i, k, j) breaks the triangle inequality too
    space = build_space([f"p{x}" for x in range(n)], table)
    assert classify(space) is oracle_class(space.table) is SpaceClass.SEMIMETRIC


def test_packed_pass_on_a_64_point_bit_length_ultrametric():
    table = [[(x ^ y).bit_length() for y in range(64)] for x in range(64)]
    space = build_space([f"p{x:02d}" for x in range(64)], table)
    assert classify(space) is oracle_class(space.table) is SpaceClass.ULTRAMETRIC
    table[40][45] = table[45][40] = 4  # was 3: (40, 41, 45) breaks only the strong triangle inequality
    space = build_space(space.points, table)
    assert classify(space) is oracle_class(space.table) is SpaceClass.METRIC


def test_fraction_rows_past_512_bits_take_both_scans():
    unit = Fraction(1, MERSENNE_Q)
    table = [[(x ^ y).bit_length() * unit for y in range(8)] for x in range(8)]
    space = build_space([f"p{x}" for x in range(8)], table)
    assert space.scale == 1 and type(space.rows[0][1]) is Fraction
    assert classify(space) is oracle_class(space.table) is SpaceClass.ULTRAMETRIC
    # d(0, 2) is 2 units and d(2, 3) 1 unit, so d(0, 3) keeps the strong triangle inequality
    # at 2 units only, and the triangle inequality from 1 to 3 units
    for value, expected in ((unit, SpaceClass.METRIC), (2 * unit, SpaceClass.ULTRAMETRIC),
                            (3 * unit, SpaceClass.METRIC), (4 * unit, SpaceClass.SEMIMETRIC)):
        table[0][3] = table[3][0] = value
        space = build_space(space.points, table)
        assert classify(space) is oracle_class(space.table) is expected


def test_classify_8_cube_is_metric():
    assert classify(hypercube_space(8)) is SpaceClass.METRIC


# plain per-pair Fraction scans of the tables the spaces were built from, the oracles of the int-row distance layer

def input_distances(points, table):
    """d(x, y) read off an input table, for every ordered pair of points."""
    return {(x, y): to_rational(v) for x, row in zip(points, table) for y, v in zip(points, row)}


def scan_set_distance(d, a, b):
    return min(d[x, y] for x in a for y in b)


def scan_threshold_edges(d, points, parts):
    limit = scan_set_distance(d, parts.a, parts.b)
    return {(x, y) for x, y in combinations(sorted(points), 2) if d[x, y] <= limit}


def built_from(points, table):
    """The space built from a table, with the distances of that table."""
    return build_space(points, table), input_distances(points, table)


def distance_layer_spaces():
    p, q = 2**521 - 1, 2**607 - 1
    ab = Fraction(1, p) + Fraction(1, q)
    f = Fraction
    return [
        # integer distances: scale 1
        built_from(["a", "b", "c", "d"], [[0, 1, 2, 2], [1, 0, 3, 1], [2, 3, 0, 2], [2, 1, 2, 0]]),
        # mixed denominators 3, 2, 6 with ties at the minimum 1/3
        built_from(["a", "b", "c", "d"], [[0, "1/3", "1/3", "5/6"], ["1/3", 0, "1/2", "1/3"],
                                          ["1/3", "1/2", 0, "1/2"], ["5/6", "1/3", "1/2", 0]]),
        # every threshold of {x} against the rest equals the within-part distance 3/4
        built_from(["x", "y", "z"], [[0, "3/4", "3/4"], ["3/4", 0, "3/4"], ["3/4", "3/4", 0]]),
        # Fraction entries with denominators 4, 3, 5 and 7, each needed by the scale
        built_from(["u", "v", "w", "z"], [
            [f(0), f(1, 4), f(2, 3), f(3, 5)], [f(1, 4), f(0), f(2, 7), f(1, 4)],
            [f(2, 3), f(2, 7), f(0), f(2, 3)], [f(3, 5), f(1, 4), f(2, 3), f(0)]]),
        # a common denominator past 512 bits: the rows stay Fractions
        built_from(["a", "b", "c"], [[0, ab, Fraction(1, p)], [ab, 0, Fraction(1, q)],
                                     [Fraction(1, p), Fraction(1, q), 0]]),
    ]


def test_distance_layer_matches_plain_fraction_scans():
    within_part_ties = 0
    for space, d in distance_layer_spaces():
        scale = lcm(*(v.denominator for v in d.values()))
        assert space.scale == (scale if scale.bit_length() <= 512 else 1)
        assert type(diameter(space, space.points)) is Fraction
        assert diameter(space, space.points) == max(d.values())
        for parts in all_bipartitions(space.point_set()):
            dist = set_distance(space, parts.a, parts.b)
            assert type(dist) is Fraction and dist == scan_set_distance(d, parts.a, parts.b)
            assert set_distance(space, parts.a, parts.b) == dist
            report = proximity_report(space, parts)
            pairs = {(x, y) for x in parts.a for y in parts.b if d[x, y] == dist}
            assert report.distance == dist and report.pairs == pairs
            assert report.a0 == {x for x, _ in pairs} and report.b0 == {y for _, y in pairs}
            for part in (parts.a, parts.b):
                assert diameter(space, part) == max(d[x, y] for x in part for y in part)
                assert diameter(space, list(part)) == diameter(space, part)
                for x in space.points:
                    best = min(d[x, y] for y in part)
                    assert best_approximations(space, x, part) == {y for y in part if d[x, y] == best}
            edges = scan_threshold_edges(d, space.points, parts)
            assert build_threshold_graph(space, parts).edges == edges
            within_part_ties += any(d[x, y] == dist for x, y in edges if (x in parts.a) == (y in parts.a))
    assert within_part_ties  # some threshold equals a within-part distance, so `<=` vs `<` shows


@pytest.mark.parametrize("make", [list, iter, set, frozenset], ids=["list", "generator", "set", "frozenset"])
def test_unknown_point_messages_name_the_sorted_unknown_points(make):
    space = random_semimetric_space(4, 2)
    known = sorted(space.points)
    bad = ["zz", known[0], "aa", known[1], "zz"]
    for query, message in ((lambda s: set_distance(space, s, known[2:]), "first set"),
                           (lambda s: set_distance(space, known[2:], s), "second set"),
                           (lambda s: diameter(space, s), "subset"),
                           (lambda s: is_proximinal(space, s), "subset"),
                           (lambda s: best_approximations(space, known[2], s), "candidate set")):
        with pytest.raises(SpaceError) as caught:
            query(make(bad))
        assert str(caught.value) == f"{message} contains unknown points: ['aa', 'zz']"


# the per-space memos: one threshold graph per dist(A, B), row indices per frozenset

def memo_spaces():
    near, far = Fraction(1, MERSENNE_Q), Fraction(1, MERSENNE_P)
    yield built_from(["a", "b", "c", "e"], [[0, near, 2 * near, far], [near, 0, near, far],
                                            [2 * near, near, 0, far], [far, far, far, 0]])
    for seed in range(4):
        for n in range(2, 8):
            for generated in (random_ultrametric_space(n, seed), random_semimetric_space(n, seed)):
                yield built_from(generated.points, generated.table)


def test_threshold_graphs_are_shared_per_distance_and_match_a_plain_scan():
    fraction_rows = 0
    for space, d in memo_spaces():
        fraction_rows += type(space.rows[0][1]) is Fraction
        by_limit, bipartitions = {}, 0
        for parts in all_bipartitions(space.point_set()):
            graph = build_threshold_graph(space, parts)
            assert graph == SimpleGraph(space.point_set(), frozenset(scan_threshold_edges(d, space.points, parts)))
            assert by_limit.setdefault(scan_set_distance(d, parts.a, parts.b), graph) is graph
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
    assert set_distance(space, set(pts[:2]), pts[2:]) == \
        set_distance(space, frozenset(pts[:2]), frozenset(pts[2:]))


def test_cross_minima_are_kept_per_validated_pair_and_unknown_points_still_raise():
    generated = random_semimetric_space(6, 4)
    space, d = built_from(generated.points, generated.table)
    for parts in all_bipartitions(space.point_set()):
        found = spaces._cross_minimum(space, parts.a, parts.b)
        assert found is space._cross_minima[parts.a, parts.b]
        assert found is spaces._cross_minimum(space, parts.a, parts.b)
        assert found[0] == min(space.rows[space.index[x]][space.index[y]] for x in parts.a for y in parts.b)
        assert set_distance(space, parts.a, parts.b) == scan_set_distance(d, parts.a, parts.b)
    assert len(space._cross_minima) == 2 ** 6 - 2
    pts = sorted(space.points)
    a, b = frozenset(pts[:2]), frozenset(pts[2:])
    for bad_a, bad_b, message in ((a, b | {"zz"}, r"second set contains unknown points: \['zz'\]"),
                                  (a | {"zz"}, b, r"first set contains unknown points: \['zz'\]"),
                                  (a, frozenset(), "two nonempty sets")):
        with pytest.raises(SpaceError, match=message):
            set_distance(space, bad_a, bad_b)
        assert (bad_a, bad_b) not in space._cross_minima
    assert set_distance(space, set(a), list(b)) == set_distance(space, a, b)
    assert len(space._cross_minima) == 2 ** 6 - 2  # only pairs of frozensets are kept


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


@pytest.mark.parametrize("query, message", [
    (lambda s: s.d("x", "zz"), "unknown point 'zz'"),
    (lambda s: s.d("zz", "x"), "unknown point 'zz'"),
    (lambda s: best_approximations(s, "x", []), "best approximation needs a nonempty candidate set"),
    (lambda s: best_approximations(s, "zz", ["x"]), "unknown point 'zz'"),
], ids=["d-second", "d-first", "no-candidates", "unknown-x"])
def test_point_queries_reject_an_unknown_point_or_no_candidates(query, message):
    s = build_space(["x", "y"], [[0, 3], [3, 0]])
    with pytest.raises(SpaceError) as caught:
        query(s)
    assert str(caught.value) == message


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
