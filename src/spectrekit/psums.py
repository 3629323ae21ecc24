"""Translation structure around the gaps of P-sum sets.

A P-sum set collects the values sum of xi_n * a_n where each coefficient
xi_n ranges over a fixed finite menu P containing 0; it is the achievement
set of the series ``series_spec(terms, coeffs=P)``, and P = {0, 1} gives
the subset sums.  For a gap (a, b) of such a set T, the translation
predicate at radius eps asks whether shifting the initial segment T in
[0, eps] by b reproduces T in [b, b + eps] exactly.  It holds exactly on
[0, e*), where e* is the least defect of the gap, so the checker returns e*
alone: the supremum of the working radii, not attained, and always positive
since max(T) is a defect.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import List, NamedTuple, Tuple

from .errors import DomainError
from .groups import RationalSpace, to_grid
from .rational import Rat, RatLike, as_rat
from .series import achievement_set, series_spec
from .sets import FiniteSet

# T = {sum of xi_n a_n : xi_n in P} for a series with menu P.
psum_set = achievement_set


def gap_translation_check(T: FiniteSet, gap: Tuple[RatLike, RatLike]) -> Rat:
    """The least defect e* of a gap (a, b) of T, found in one hash-set pass.

    The predicate at radius eps:  b + (T in [0, eps]) == T in [b, b + eps].
    A defect is a positive x in T with b + x not in T, or y - b for a y > b
    in T with y - b not in T.  The predicate holds at eps exactly when no
    defect lies in (0, eps], so it holds on [0, e*) and fails from e* on.
    max(T) is always a defect, so e* exists and is positive.  T must contain
    0 and (a, b) must be a gap: both endpoints in T with nothing strictly
    between.
    """
    if not isinstance(T.ctx, RationalSpace) or T.ctx.dim != 1:
        raise DomainError("a one-dimensional rational set is required")
    xs = [x for (x,) in T.ints]
    if xs[0] != 0:
        raise DomainError("the set must contain 0 as its minimum")
    a, b = as_rat(gap[0]), as_rat(gap[1])
    ends = to_grid((a, b), T.scale)
    i = 0 if ends is None else bisect_left(xs, ends[0])
    if ends is None or xs[i:i + 2] != list(ends):  # a gap's ends are consecutive in T
        raise DomainError(f"({a}, {b}) is not a gap of the set")
    bi = ends[1]

    members = set(xs)
    defects = [x for x in xs if x > 0 and bi + x not in members]
    defects.extend(y - bi for y in xs if y > bi and y - bi not in members)
    return Fraction(min(defects), T.scale)


# -- the paired-Cantor demonstration ------------------------------------------

class DemoReport(NamedTuple):
    """Per-level translation radii for the paired endpoint construction.

    Each row is (level, radius) for the gap (1/4, 1/2) of the level's set;
    the radius is the supremum of the radii at which the predicate holds,
    not attained.  The construction glues two self-similar endpoint families
    of different contraction ratios, so the radii shrink as the level grows;
    at every finite level the predicate still holds below a positive radius,
    while the radii witness that no single radius survives all levels.
    """

    rows: Tuple[Tuple[int, Rat], ...]
    strictly_decreasing: bool
    note: str


_DEMO_GAP = (Fraction(1, 4), Fraction(1, 2))
_MAX_DEMO_LEVELS = 8


def demo_level_set(m: int) -> FiniteSet:
    """Level m of the paired construction: a ratio-1/4 endpoint family scaled
    into [0, 1/4], glued to a ratio-1/3 family scaled into [1/2, 3/4].  The
    level-m interval endpoints of the self-similar set on [0, 1] with ratio r
    at both ends are the achievement set of (1 - r) r^i for i < m and r^m, so
    each family is that of these terms over 4, shifted by 0 or by 1/2."""
    points = []
    for r, shift in ((Fraction(1, 4), 0), (Fraction(1, 3), Fraction(1, 2))):
        terms = [(1 - r) * r ** i / 4 for i in range(m)] + [r ** m / 4]
        points += [(x + shift,) for (x,) in achievement_set(series_spec(terms))]
    return FiniteSet(RationalSpace(1), points)


def cantor_pair_demo(levels: int) -> DemoReport:
    """Translation radii for the gap (1/4, 1/2) across levels 0..``levels``."""
    if not 1 <= levels <= _MAX_DEMO_LEVELS:
        raise DomainError(f"levels must lie in [1, {_MAX_DEMO_LEVELS}]")
    rows: List[Tuple[int, Rat]] = []
    for m in range(levels + 1):
        rows.append((m, gap_translation_check(demo_level_set(m), _DEMO_GAP)))
    decreasing = all(rows[i][1] > rows[i + 1][1] for i in range(len(rows) - 1))
    return DemoReport(
        rows=tuple(rows),
        strictly_decreasing=decreasing,
        note=("finite levels only: each row reports the supremum, not "
              "attained, of the radii at which the gap-translation predicate "
              "holds for that level's finite endpoint set"),
    )
