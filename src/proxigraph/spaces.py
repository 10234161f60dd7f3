"""Finite semimetric spaces with exact rational distances.

A space is its points and one distance table, stored as rows of Python ints
over a common scale, the LCM of the entry denominators: d(i, j) is
rows[i][j] / scale.  Past 512 bits of scale the rows stay `Fraction`s at
scale 1.  `build_space` converts each distinct entry once and validates the
rows; `classify`, every dist(A, B) question and `build_threshold_graph`
compare them, and floating point never enters.  `d()`, `table`, reports and
files give `fractions.Fraction`s; `table` is a view of the rows, built on
first read.  `classify` decides the class of int rows in one packed-field
pass of O(n²) big-int operations (Lamport 1975, "Multiple byte processing
with full-word instructions"): row i is one Python int P_i with a w-bit field
per point, d(i, k) in field k, w = (2·max entry).bit_length() + 1; G holds
the guard bit 2^(w-1) of every field and ONES a 1 in every field.  Per pair
i < j at d = d(i, j), field k of S_i = P_i + G - d·ONES is
d(i, k) + 2^(w-1) - d, and field k of S_i + P_j is d(i, k) + d(k, j) +
2^(w-1) - d.  Entries are nonnegative and 2·max < 2^(w-1), so both lie in
[0, 2^w): no field borrows from or carries into its neighbour.  Field k of
S_i keeps its guard bit iff d(i, k) >= d, so the strong triangle inequality
holds at (i, j) iff (S_i | S_j) & G == G, and the triangle inequality iff
(S_i + P_j) & G == G.

A space also keeps what its bipartitions derive again: the cross minimum and
the proximity report of each validated pair of frozensets, one scan for both
orders of a pair, the threshold graph per dist(A, B), and one `Fraction` per
distinct scaled distance that it answers, built on its first ask.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, combinations, repeat
from math import lcm
from operator import add
from typing import Iterable, Sequence, Union

from .graphs import Bipartition, SimpleGraph, cached_attribute, check_label, edge_key, require_cover


class SpaceError(ValueError):
    """Malformed distance table or invalid space query."""


RationalLike = Union[Fraction, int, str]


def to_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string of plain digits to an exact Fraction."""
    if isinstance(value, bool):
        raise SpaceError(f"not a rational value: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if re.fullmatch(r"-?[0-9]+(/[0-9]+)?", value):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError):  # zero denominator, or too many digits
                pass
        raise SpaceError(f"malformed rational {value!r}: expected an integer or 'p/q' with q > 0")
    raise SpaceError(f"not a rational value: {value!r}")


class SpaceClass(Enum):
    SEMIMETRIC = "Semimetric"
    METRIC = "Metric"
    ULTRAMETRIC = "Ultrametric"


@dataclass(frozen=True)
class FiniteSemimetricSpace:
    """Point labels plus a symmetric, positive-off-diagonal distance table: d(i, j) = rows[i][j] / scale.

    Unvalidated; `build_space` validates and finds the scale.
    """

    points: tuple[str, ...]
    scale: int
    rows: tuple[tuple, ...]

    @cached_attribute
    def table(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distances as `Fraction`s, one per distinct row entry, built on first read."""
        value = {v: Fraction(v, self.scale) for v in set(chain.from_iterable(self.rows))}
        return tuple(tuple(map(value.__getitem__, row)) for row in self.rows)

    @cached_attribute
    def index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    @cached_attribute
    def space_class(self) -> SpaceClass:
        return _table_class(self.rows)

    @cached_attribute
    def _threshold_graphs(self) -> dict[int | Fraction, SimpleGraph]:
        return {}  # per scaled dist(A, B): the threshold graph at that limit

    @cached_attribute
    def _cross_minima(self) -> dict[tuple[frozenset[str], frozenset[str]], tuple]:
        return {}  # per validated (A, B), both orientations: what `_cross_minimum` returns

    @cached_attribute
    def _reports(self) -> dict[tuple[frozenset[str], frozenset[str]], ProximityReport]:
        return {}  # per validated (A, B), both orientations: what `proximity_report` returns

    @cached_attribute
    def _fractions(self) -> dict[int | Fraction, Fraction]:
        return {}  # per scaled value answered: its Fraction, built by `_fraction`

    @cached_attribute
    def _point_set(self) -> frozenset[str]:
        return frozenset(self.points)

    def __contains__(self, point: str) -> bool:
        return point in self.index

    def d(self, x: str, y: str) -> Fraction:
        try:
            return Fraction(self.rows[self.index[x]][self.index[y]], self.scale)
        except KeyError as exc:
            raise SpaceError(f"unknown point {exc.args[0]!r}") from None

    @property
    def size(self) -> int:
        return len(self.points)

    def point_set(self) -> frozenset[str]:
        return self._point_set


def build_space(points: Sequence[str], table: Sequence[Sequence[RationalLike]]) -> FiniteSemimetricSpace:
    """Validate and build a finite semimetric space.

    Checks: square table matching the point count, symmetry, zero diagonal,
    strictly positive off-diagonal entries, no negative entries.  Each distinct
    entry is converted once and the scaled rows are checked by row-level
    operations; only a table that fails is scanned in row-major order, to word
    its first defect.
    """
    pts = tuple(points)
    seen: set[str] = set()
    for p in pts:
        check_label(p)
        if p in seen:
            raise SpaceError(f"duplicate point {p!r}")
        seen.add(p)
    n = len(pts)
    if len(table) != n:
        raise SpaceError(f"table has {len(table)} rows for {n} points")
    kinds = set(map(type, chain.from_iterable(table)))
    if not kinds <= {int, str, Fraction}:  # a bool, a float, an unhashable entry: parsed in row-major order
        table = _parsed(table, n)
    scaled = _scaled_rows(table, Fraction in kinds) if all(len(row) == n for row in table) else None
    if scaled is None or not _is_semimetric(scaled[1]):
        raise SpaceError(_first_defect(pts, _parsed(table, n)))
    return FiniteSemimetricSpace(pts, *scaled)


def _parsed(table: Sequence[Sequence[RationalLike]], n: int) -> list[tuple[Fraction, ...]]:
    """The table as `Fraction` rows, read in row-major order: SpaceError names the first row
    of the wrong length or the first malformed entry."""
    rows = []
    for i, row in enumerate(table):
        if len(row) != n:
            raise SpaceError(f"table row {i} has {len(row)} entries for {n} points")
        rows.append(tuple(map(to_rational, row)))
    return rows


def _scaled_rows(table: Sequence[Sequence[RationalLike]], has_fractions: bool):
    """(scale, rows) of a square table of ints, strs and Fractions, or None if an entry is malformed.

    Each distinct entry is converted once; a `Fraction` is keyed by its (numerator, denominator),
    whose hash is computed in C.  The rows are ints over the LCM of the denominators; past
    512 bits, where an int entry outgrows the Fraction it replaces, Fractions at scale 1.
    """
    if has_fractions:
        table = [[v.as_integer_ratio() if type(v) is Fraction else v for v in row] for row in table]
    try:
        ratio = {v: v if type(v) is tuple else to_rational(v).as_integer_ratio()
                 for v in set(chain.from_iterable(table))}
    except SpaceError:
        return None
    scale = 1
    for d in {d for _, d in ratio.values()}:
        scale = lcm(scale, d)
        if scale.bit_length() > 512:
            scale, value = 1, {v: Fraction(*r) for v, r in ratio.items()}
            break
    else:
        value = {v: n * (scale // d) for v, (n, d) in ratio.items()}
    return scale, tuple(tuple(map(value.__getitem__, row)) for row in table)


def _is_semimetric(rows: Sequence[tuple]) -> bool:
    """Zero diagonal, symmetry, no negative entry and no zero off the diagonal, by row-level C operations."""
    return not (
        any(map(tuple.__getitem__, rows, range(len(rows))))  # a nonzero diagonal entry
        or not all(map(tuple.__eq__, rows, zip(*rows)))  # each row against its column, lazily
        or min(map(min, rows), default=0) < 0
        or sum(map(tuple.count, rows, repeat(0))) != len(rows)  # a zero off the diagonal
    )


def _first_defect(pts: tuple[str, ...], rows: Sequence[tuple[Fraction, ...]]) -> str:
    """The first defect of rows that fail `_is_semimetric`, in row-major order: per row, its
    diagonal entry, then the sign, symmetry and zero check of each entry right of it."""
    for i, row in enumerate(rows):
        if row[i] != 0:
            return f"nonzero diagonal entry at ({pts[i]}, {pts[i]}): {row[i]}"
        for j in range(i + 1, len(rows)):
            if row[j] < 0:
                return f"negative entry at ({pts[i]}, {pts[j]}): {row[j]}"
            if row[j] != rows[j][i]:
                return f"asymmetric entries at ({pts[i]}, {pts[j]}): {row[j]} vs {rows[j][i]}"
            if row[j] == 0:
                return f"zero distance between distinct points ({pts[i]}, {pts[j]})"


def space_from_distance(points: Sequence[str], dist_fn) -> FiniteSemimetricSpace:
    """Build a space from a symmetric distance function, read once per pair of distinct points."""
    pts = tuple(points)
    n = len(pts)
    table = [[0] * n for _ in pts]
    for i, p in enumerate(pts):
        row = table[i]
        for j in range(i + 1, n):
            row[j] = table[j][i] = dist_fn(p, pts[j])
    return build_space(pts, table)


def _packed_class(rows: Sequence[Sequence[int]]) -> SpaceClass:
    """Axiom class of nonnegative int rows, by one packed-field pass (see the module docstring).

    A pair that passes the strong test passes the triangle test, so the triangle test
    runs only from the first pair that fails the strong test on.
    """
    n = len(rows)
    w = (2 * max(map(max, rows))).bit_length() + 1
    ones = int("1".zfill(w) * n, 2)
    guards = ones << (w - 1)
    field = {v: format(v, f"0{w}b") for v in set(chain.from_iterable(rows))}.__getitem__
    packed = [int("".join(map(field, reversed(row))), 2) for row in rows]  # field 0 lowest
    ultrametric = True
    for i, row in enumerate(rows):
        base, shifted = packed[i], {}  # shifted[d] = (G - d·ONES, S_i), per value in row i
        for j in range(i + 1, n):
            d = row[j]
            if d not in shifted:
                low = guards - d * ones
                shifted[d] = low, base + low
            low, s_i = shifted[d]
            if ultrametric:
                if (s_i | (packed[j] + low)) & guards == guards:
                    continue
                ultrametric = False
            if (s_i + packed[j]) & guards != guards:
                return SpaceClass.SEMIMETRIC
    return SpaceClass.ULTRAMETRIC if ultrametric else SpaceClass.METRIC


def _table_class(rows: Sequence[Sequence]) -> SpaceClass:
    """Axiom class of the scaled rows of a distance table.

    Int rows take the packed-field pass.  Fraction rows (past the 512-bit common
    denominator) take a scan per inequality: as d(i, i) = 0, the minimum over k of
    op(d(i, k), d(k, j)) is at most d(i, j) for op = max and op = add, and below it
    iff some k breaks the strong triangle inequality (max) or the triangle inequality (add).
    """
    if len(rows) < 3:
        return SpaceClass.ULTRAMETRIC
    if type(rows[0][0]) is int:
        return _packed_class(rows)
    for op, verdict in ((max, SpaceClass.ULTRAMETRIC), (add, SpaceClass.METRIC)):
        if not any(
            min(map(op, row_i, row_j)) < row_i[j]
            for i, row_i in enumerate(rows)
            for j, row_j in enumerate(rows[i + 1:], i + 1)
        ):
            return verdict
    return SpaceClass.SEMIMETRIC


def classify(space: FiniteSemimetricSpace) -> SpaceClass:
    """Strongest axiom class holding over all triples of points, cached per space.

    The hierarchy is Ultrametric ⊂ Metric ⊂ Semimetric; symmetry and
    positive-definiteness are already enforced at construction.
    """
    return space.space_class


def _indices(space: FiniteSemimetricSpace, subset: Iterable[str], what: str) -> tuple[int, ...]:
    """Row indices of the distinct points of `subset`, looked up in C (a frozenset is not
    copied); only a failed lookup rescans the set, for the SpaceError that names its unknown points."""
    s = frozenset(subset)
    try:
        return tuple(map(space.index.__getitem__, s))
    except KeyError:
        raise SpaceError(f"{what} contains unknown points: {sorted(p for p in s if p not in space)}") from None


def _cross_minimum(space: FiniteSemimetricSpace, a: Iterable[str], b: Iterable[str]):
    """(m, ia, ib): the least scaled row entry over A x B, with the row indices of A and B.

    Kept for (A, B) and, with ia and ib swapped, for (B, A) once both frozensets have
    passed the checks, so an unknown point or an empty set still raises however often asked.
    """
    memo, kept = space._cross_minima, type(a) is frozenset and type(b) is frozenset
    if kept and (found := memo.get((a, b))):
        return found
    ia = _indices(space, a, "first set")
    ib = _indices(space, b, "second set")
    if not ia or not ib:
        raise SpaceError("set distance needs two nonempty sets")
    rows = space.rows
    found = min([rows[i][j] for i in ia for j in ib]), ia, ib
    if kept:
        memo[b, a] = found[0], ib, ia
        memo[a, b] = found
    return found


def _fraction(space: FiniteSemimetricSpace, value: int | Fraction) -> Fraction:
    """Fraction(value, scale), one per distinct scaled value of the space, built on its first ask."""
    fractions = space._fractions
    return fractions.get(value) or fractions.setdefault(value, Fraction(value, space.scale))


def set_distance(space: FiniteSemimetricSpace, a: Iterable[str], b: Iterable[str]) -> Fraction:
    """Minimum distance over all cross pairs of two nonempty point sets."""
    return _fraction(space, _cross_minimum(space, a, b)[0])


def best_approximations(space: FiniteSemimetricSpace, x: str, candidates: Iterable[str]) -> frozenset[str]:
    """All points of `candidates` at minimum distance from x."""
    s = _indices(space, candidates, "candidate set")
    if not s:
        raise SpaceError("best approximation needs a nonempty candidate set")
    if x not in space:
        raise SpaceError(f"unknown point {x!r}")
    row = space.rows[space.index[x]]
    best = min([row[j] for j in s])
    return frozenset(space.points[j] for j in s if row[j] == best)


def is_proximinal(space: FiniteSemimetricSpace, subset: Iterable[str]) -> bool:
    """True iff every point of the space has a best approximation in `subset`.

    In a finite space the minimum is always attained, so this holds for
    every nonempty subset and only the subset is validated; the tests keep
    `best_approximations` as the oracle of that fact.
    """
    if not _indices(space, subset, "subset"):
        raise SpaceError("proximinality is defined for nonempty subsets only")
    return True


def diameter(space: FiniteSemimetricSpace, subset: Iterable[str]) -> Fraction:
    """Maximum pairwise distance within a set; 0 for empty or singleton sets."""
    s = _indices(space, subset, "subset")
    rows = space.rows
    return _fraction(space, max((rows[i][j] for i, j in combinations(s, 2)), default=0))


@dataclass(frozen=True)
class ProximityReport:
    """Set distance together with the pairs attaining it.

    `a0` and `b0` are the projections of `pairs` onto the two parts; every
    listed pair realizes exactly `distance`.
    """

    distance: Fraction
    a0: frozenset[str]
    b0: frozenset[str]
    pairs: frozenset[tuple[str, str]]


def proximity_report(space: FiniteSemimetricSpace, parts: Bipartition) -> ProximityReport:
    """Distance between the parts, plus all pairs realizing it; kept like `_cross_minimum`,
    (B, A) by the same list, with A0 and B0 swapped and every pair reversed."""
    a, b = parts.a, parts.b
    reports, kept = space._reports, type(a) is frozenset and type(b) is frozenset
    if kept and (report := reports.get((a, b))):
        return report
    m, ia, ib = _cross_minimum(space, a, b)
    rows, pts = space.rows, space.points
    hits = [(pts[i], pts[j]) for i in ia for j in ib if rows[i][j] == m]
    xs, ys = zip(*hits)  # m is attained, so there is a hit
    a0, b0, distance = frozenset(xs), frozenset(ys), _fraction(space, m)
    report = ProximityReport(distance, a0, b0, frozenset(hits))
    if kept:
        reports[b, a] = ProximityReport(distance, b0, a0, frozenset(zip(ys, xs)))
        reports[a, b] = report
    return report


def build_threshold_graph(space: FiniteSemimetricSpace, parts: Bipartition) -> SimpleGraph:
    """Graph on all points with edges where 0 < d(x, y) <= dist(A, B).

    Unlike a proximinal graph, within-part edges are allowed whenever the
    distance stays at or below the part separation.  Bipartitions at one
    dist(A, B) get the one graph the space keeps for that limit.
    """
    require_cover(space.point_set(), parts, "point set")
    limit = _cross_minimum(space, parts.a, parts.b)[0]  # dist(A, B) on the scale of the rows
    graphs = space._threshold_graphs
    if limit not in graphs:
        pts = space.points
        graphs[limit] = SimpleGraph(space.point_set(), frozenset(
            edge_key(pts[i], pts[j])
            for i, row in enumerate(space.rows)
            for j in range(i + 1, len(pts))
            if row[j] <= limit
        ))
    return graphs[limit]


def check_theorem_2_1(space: FiniteSemimetricSpace, parts: Bipartition) -> tuple[bool, bool]:
    """Evaluate both sides of the diameter/best-proximity equivalence.

    For an ultrametric space with proximinal parts the two statements are
    equivalent:
      1. diam(B) <= dist(A, B);
      2. A0 is proximinal, B0 = B, and every pair in A0 x B0 attains
         dist(A, B).
    Both are evaluated independently and returned as (stmt1, stmt2).  Statement
    1 reads "no pair of B is farther apart than dist(A, B)" on the row scale,
    over the B indices of the cross minimum, and stops at the first pair that
    fails.  A0 is nonempty, as dist(A, B) is attained, and every nonempty
    subset of a finite space is proximinal, so statement 2 does not test it.
    """
    if classify(space) is not SpaceClass.ULTRAMETRIC:
        raise SpaceError("the diameter equivalence is stated for ultrametric spaces only")
    report = proximity_report(space, parts)
    m, _, ib = _cross_minimum(space, parts.a, parts.b)
    rows = space.rows
    stmt1 = all(rows[i][j] <= m for i, j in combinations(ib, 2))
    stmt2 = (
        report.b0 == parts.b
        # the listed pairs lie in A0 x B0, so all of it attains dist(A, B) iff all of it is listed
        and len(report.pairs) == len(report.a0) * len(report.b0)
    )
    return stmt1, stmt2
