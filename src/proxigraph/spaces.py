"""Finite semimetric spaces with exact rational distances.

All distance values are `fractions.Fraction`, so classification thresholds
and set-distance comparisons are exact; floating point never enters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import add
from typing import Iterable, Sequence, Union

from .graphs import Bipartition, check_label


class SpaceError(ValueError):
    """Malformed distance table or invalid space query."""


RationalLike = Union[Fraction, int, str]


def to_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string of plain digits to an exact Fraction."""
    if isinstance(value, bool):
        raise SpaceError(f"not a rational value: {value!r}")
    if isinstance(value, (int, Fraction)):
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
    """Point labels plus a symmetric, positive-off-diagonal distance table."""

    points: tuple[str, ...]
    table: tuple[tuple[Fraction, ...], ...]

    @cached_property
    def index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def space_class(self) -> SpaceClass:
        return _table_class(self.table)

    def __contains__(self, point: str) -> bool:
        return point in self.index

    def d(self, x: str, y: str) -> Fraction:
        try:
            return self.table[self.index[x]][self.index[y]]
        except KeyError as exc:
            raise SpaceError(f"unknown point {exc.args[0]!r}") from None

    @property
    def size(self) -> int:
        return len(self.points)

    def point_set(self) -> frozenset[str]:
        return frozenset(self.points)


def build_space(points: Sequence[str], table: Sequence[Sequence[RationalLike]]) -> FiniteSemimetricSpace:
    """Validate and build a finite semimetric space.

    Checks: square table matching the point count, symmetry, zero diagonal,
    strictly positive off-diagonal entries, no negative entries.
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
    rows: list[tuple[Fraction, ...]] = []
    for i, row in enumerate(table):
        if len(row) != n:
            raise SpaceError(f"table row {i} has {len(row)} entries for {n} points")
        rows.append(tuple(to_rational(v) for v in row))
    for i in range(n):
        if rows[i][i] != 0:
            raise SpaceError(f"nonzero diagonal entry at ({pts[i]}, {pts[i]}): {rows[i][i]}")
        for j in range(i + 1, n):
            if rows[i][j] < 0:
                raise SpaceError(f"negative entry at ({pts[i]}, {pts[j]}): {rows[i][j]}")
            if rows[i][j] != rows[j][i]:
                raise SpaceError(
                    f"asymmetric entries at ({pts[i]}, {pts[j]}): {rows[i][j]} vs {rows[j][i]}"
                )
            if rows[i][j] == 0:
                raise SpaceError(f"zero distance between distinct points ({pts[i]}, {pts[j]})")
    return FiniteSemimetricSpace(pts, tuple(rows))


def space_from_distance(points: Sequence[str], dist_fn) -> FiniteSemimetricSpace:
    """Build a space by tabulating a distance function over the points."""
    pts = tuple(points)
    return build_space(pts, [[dist_fn(p, q) for q in pts] for p in pts])


def _table_class(table: Sequence[Sequence[Fraction]]) -> SpaceClass:
    """Axiom class of a distance table, in ints over one common denominator.

    As d(i, i) = 0, the minimum over k of d(i, k) + d(k, j), or of max(d(i, k), d(k, j)),
    is at most d(i, j), and below it iff some k breaks the (strong) triangle inequality.
    """
    scale = lcm(*{v.denominator for row in table for v in row})
    if scale.bit_length() <= 512:  # past that an int entry outgrows the Fraction it replaces
        table = [[v.numerator * (scale // v.denominator) for v in row] for row in table]
    is_ultra = True
    for i, row_i in enumerate(table):
        for j, row_j in enumerate(table[i + 1:], i + 1):
            if min(map(add, row_i, row_j)) < row_i[j]:
                return SpaceClass.SEMIMETRIC
            if is_ultra and min(map(max, row_i, row_j)) < row_i[j]:
                is_ultra = False
    return SpaceClass.ULTRAMETRIC if is_ultra else SpaceClass.METRIC


def classify(space: FiniteSemimetricSpace) -> SpaceClass:
    """Strongest axiom class holding over all triples of points, cached per space.

    The hierarchy is Ultrametric ⊂ Metric ⊂ Semimetric; symmetry and
    positive-definiteness are already enforced at construction.
    """
    return space.space_class


def _check_subset(space: FiniteSemimetricSpace, subset: Iterable[str], what: str) -> frozenset[str]:
    s = frozenset(subset)
    unknown = [p for p in s if p not in space]
    if unknown:
        raise SpaceError(f"{what} contains unknown points: {sorted(unknown)}")
    return s


def set_distance(space: FiniteSemimetricSpace, a: Iterable[str], b: Iterable[str]) -> Fraction:
    """Minimum distance over all cross pairs of two nonempty point sets."""
    sa = _check_subset(space, a, "first set")
    sb = _check_subset(space, b, "second set")
    if not sa or not sb:
        raise SpaceError("set distance needs two nonempty sets")
    return min(space.d(x, y) for x in sa for y in sb)


def best_approximations(space: FiniteSemimetricSpace, x: str, candidates: Iterable[str]) -> frozenset[str]:
    """All points of `candidates` at minimum distance from x."""
    s = _check_subset(space, candidates, "candidate set")
    if not s:
        raise SpaceError("best approximation needs a nonempty candidate set")
    if x not in space:
        raise SpaceError(f"unknown point {x!r}")
    best = min(space.d(x, a) for a in s)
    return frozenset(a for a in s if space.d(x, a) == best)


def is_proximinal(space: FiniteSemimetricSpace, subset: Iterable[str]) -> bool:
    """True iff every point of the space has a best approximation in `subset`.

    In a finite space the minimum is always attained, so this holds for
    every nonempty subset and only the subset is validated; the tests keep
    `best_approximations` as the oracle of that fact.
    """
    s = _check_subset(space, subset, "subset")
    if not s:
        raise SpaceError("proximinality is defined for nonempty subsets only")
    return True


def diameter(space: FiniteSemimetricSpace, subset: Iterable[str]) -> Fraction:
    """Maximum pairwise distance within a set; 0 for empty or singleton sets."""
    s = _check_subset(space, subset, "subset")
    if len(s) <= 1:
        return Fraction(0)
    return max(space.d(x, y) for x, y in combinations(sorted(s), 2))


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
    """Distance between the parts, plus all pairs realizing it."""
    dist = set_distance(space, parts.a, parts.b)
    pairs = frozenset((x, y) for x in parts.a for y in parts.b if space.d(x, y) == dist)
    a0 = frozenset(x for x, _ in pairs)
    b0 = frozenset(y for _, y in pairs)
    return ProximityReport(dist, a0, b0, pairs)


def check_theorem_2_1(space: FiniteSemimetricSpace, parts: Bipartition) -> tuple[bool, bool]:
    """Evaluate both sides of the diameter/best-proximity equivalence.

    For an ultrametric space with proximinal parts the two statements are
    equivalent:
      1. diam(B) <= dist(A, B);
      2. A0 is proximinal, B0 = B, and every pair in A0 x B0 attains
         dist(A, B).
    Both are evaluated independently and returned as (stmt1, stmt2).
    """
    if classify(space) is not SpaceClass.ULTRAMETRIC:
        raise SpaceError("the diameter equivalence is stated for ultrametric spaces only")
    report = proximity_report(space, parts)
    stmt1 = diameter(space, parts.b) <= report.distance
    stmt2 = (
        bool(report.a0)
        and is_proximinal(space, report.a0)
        and report.b0 == parts.b
        and all(space.d(x, y) == report.distance for x in report.a0 for y in report.b0)
    )
    return stmt1, stmt2
