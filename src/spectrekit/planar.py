"""Planar achievement sets: axis gaps, rectangular gaps, and the gap lemmas.

A rectangular gap of a planar set E is a closed axis-parallel rectangle
[a,b] x [c,d] with a < b and c < d that meets E in exactly its lower-left
and upper-right corners.  An axis gap is an open interval between two
consecutive values in the projection of E onto one coordinate; for
achievement sets the corresponding full strip contains no point of E.

The one-dimensional story that every dominating gap is explained by a term
and a tail sum does not survive in the plane; this module carries a small
fixed series whose largest rectangular gap refutes the direct analogue, and
checkers for the statements that do survive.

Series and sets are stored on integer grids, and E has the scale of a
nonempty series, so the checkers do their sums, tails and corner tests on
integers and build ``Fraction`` values only for the gaps they return.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import List, NamedTuple, Optional

from .errors import DomainError
from .groups import IntPoint, RationalSpace, to_grid
from .rational import Point, Rat, format_scaled
from .reports import CheckItem, LemmaReport
from .series import (SeriesSpec, _check_k, _consecutive, _explains, _first_gap_axis,
                     _subset_sums, _tail, achievement_set, series_spec)
from .sets import FiniteSet

RECT_GAP_MODES = ("all", "largest-by-area")


class RectGap(NamedTuple):
    """The rectangle [a,b] x [c,d]; corners (a,c) and (b,d) belong to the
    ambient set, nothing else in the rectangle does."""

    a: Rat
    b: Rat
    c: Rat
    d: Rat

    @property
    def area(self) -> Rat:
        return (self.b - self.a) * (self.d - self.c)

    @property
    def lower(self) -> Point:
        return (self.a, self.c)

    @property
    def upper(self) -> Point:
        return (self.b, self.d)


class AxisGap(NamedTuple):
    axis: str  # "x" or "y"
    lo: Rat
    hi: Rat

    @property
    def length(self) -> Rat:
        return self.hi - self.lo


def _require_planar(E: FiniteSet) -> None:
    if not isinstance(E.ctx, RationalSpace) or E.ctx.dim != 2:
        raise DomainError("a two-dimensional rational set is required")


def achievement_set_2d(s: SeriesSpec, budget: Optional[int] = None) -> FiniteSet:
    """Subset sums of a nonnegative planar series."""
    if s.dim != 2:
        raise DomainError("planar enumeration needs two-dimensional terms")
    return achievement_set(s, budget)


def axis_gaps(E: FiniteSet) -> List[AxisGap]:
    """Open intervals between consecutive distinct coordinate values, for
    both axes; x-gaps first, each list left to right."""
    _require_planar(E)
    out: List[AxisGap] = []
    for axis, idx in (("x", 0), ("y", 1)):
        values = [Fraction(v, E.scale) for v in sorted({p[idx] for p in E.ints})]
        out.extend(AxisGap(axis, lo, hi) for lo, hi in zip(values, values[1:]))
    return out


def rect_gaps(E: FiniteSet, mode: str = "all") -> List[RectGap]:
    """All rectangular gaps of E, or only those of maximal area.

    For a fixed lower corner p the admissible upper corners are exactly the
    minimal elements of the part of E strictly above and to the right of p
    in the product order.  Those all follow p in lexicographic order, so a
    sweep over the points after p finds them by tracking the least y seen
    so far.
    """
    if mode not in RECT_GAP_MODES:
        raise DomainError(f"unknown rect-gap mode {mode!r}")
    _require_planar(E)
    pts = E.ints
    found = []  # (a, c, b, d) on the grid
    for i, (ax, ay) in enumerate(pts):
        min_y = None
        for qx, qy in pts[i + 1:]:
            if qy >= ay and (min_y is None or qy < min_y):
                if qx > ax and qy > ay:
                    found.append((ax, ay, qx, qy))
                min_y = qy
    found.sort()
    if mode == "largest-by-area" and found:
        best = max((b - a) * (d - c) for a, c, b, d in found)
        found = [g for g in found if (g[2] - g[0]) * (g[3] - g[1]) == best]
    # One Fraction per grid value: corners repeat across many gaps.
    value = {v: Fraction(v, E.scale) for v in {v for g in found for v in g}}
    return [RectGap(value[a], value[b], value[c], value[d]) for a, c, b, d in found]


def is_rect_gap(E: FiniteSet, a: Rat, b: Rat, c: Rat, d: Rat) -> bool:
    """Direct check of the defining property, independent of the sweep."""
    _require_planar(E)
    corners = to_grid((a, c, b, d), E.scale)
    return corners is not None and _is_grid_rect_gap(E, corners[:2], corners[2:])


def _is_grid_rect_gap(E: FiniteSet, lower: IntPoint, upper: IntPoint) -> bool:
    """The defining property for corners on E's grid."""
    if not (lower[0] < upper[0] and lower[1] < upper[1]):
        return False
    pts = E.ints
    # The points with a <= x <= b form one slice of the lexicographic order.
    inside = pts[bisect_left(pts, (lower[0],)):bisect_left(pts, (upper[0] + 1,))]
    return [p for p in inside if lower[1] <= p[1] <= upper[1]] == [lower, upper]


# -- gap lemmas ---------------------------------------------------------------

def first_gap_lemma_2d(s: SeriesSpec, k: int,
                       budget: Optional[int] = None) -> LemmaReport:
    """Gap predictions from the k-th term of a nonnegative planar series.

    With A_x the indices whose x-term is strictly below x_k: when x_k
    exceeds the x-sum over A_x, the interval (that sum, x_k) is an x-axis
    gap.  Symmetrically for y.  When additionally A_x and A_y coincide and
    both hypotheses hold, the rectangle they span is a rectangular gap.
    Parts whose hypothesis fails are reported as not applicable.
    """
    _check_k(s, k, 1)
    E = achievement_set_2d(s, budget)  # on the series' grid
    S = s.scale
    # The line's rule on each axis: E projects onto that axis's achievement set.
    (ax_idx, sum_x, xk), (ay_idx, sum_y, yk) = axes = [
        _first_gap_axis([t[i] for t in s.ints], k) for i in (0, 1)]
    items: List[CheckItem] = []
    for i, (_, lo, hi) in enumerate(axes):
        if hi <= lo:
            items.append(CheckItem(f"{'xy'[i]}-gap prediction", True,
                                   "hypothesis not satisfied"))
            continue
        hit = _consecutive(sorted({p[i] for p in E.ints}), lo, hi)
        label = f"{'xy'[i]}-gap ({format_scaled(lo, S)}, {format_scaled(hi, S)})"
        items.append(CheckItem(label, hit,
                               "" if hit else "predicted interval is not an axis gap"))

    if ax_idx == ay_idx and xk > sum_x and yk > sum_y:
        hit = _is_grid_rect_gap(E, (sum_x, sum_y), (xk, yk))
        items.append(CheckItem(
            f"rect gap ({format_scaled(sum_x, S)}, {format_scaled(xk, S)}) x "
            f"({format_scaled(sum_y, S)}, {format_scaled(yk, S)})", hit,
            "" if hit else "predicted rectangle is not a gap"))
    else:
        items.append(CheckItem("rect-gap prediction", True,
                               "hypothesis not satisfied"))
    return LemmaReport("first-gap-2d", tuple(items))


def second_gap_lemma_2d(s: SeriesSpec, gap: RectGap,
                        budget: Optional[int] = None) -> LemmaReport:
    """Decompose the corners of a rectangular gap of a planar achievement set.

    With k the last index whose term reaches the gap's width or height, the
    upper corner is an initial sum from the first k terms, and the lower
    corner is an initial sum plus the full tail beyond k.  A rectangle that
    is not actually a gap fails the report.
    """
    E = achievement_set_2d(s, budget)  # on the series' grid
    S = s.scale
    corners = to_grid(gap.lower + gap.upper, S)
    items: List[CheckItem] = []
    if corners is None or not _is_grid_rect_gap(E, corners[:2], corners[2:]):
        items.append(CheckItem("input rectangle is a gap of E", False,
                               "the defining property fails"))
        return LemmaReport("second-gap-2d", tuple(items))
    items.append(CheckItem("input rectangle is a gap of E", True))

    a, c, b, d = corners
    # Some term reaches the gap size: otherwise (a, c) plus any term outside
    # its index set would be a third point of E in the rectangle.
    k = max(n for n, (x, y) in enumerate(s.ints, 1) if x >= b - a or y >= d - c)
    F_k = _subset_sums(s, s.ints[:k], S, budget)
    items.append(CheckItem(
        f"upper corner in F_{k}", F_k.contains_int((b, d), S),
        f"corner ({format_scaled(b, S)}, {format_scaled(d, S)})"))
    tail_x, tail_y = _tail(s, k)
    f = (a - tail_x, c - tail_y)
    items.append(CheckItem(
        f"lower corner is an F_{k} sum plus the tail", F_k.contains_int(f, S),
        f"initial part ({format_scaled(f[0], S)}, {format_scaled(f[1], S)})"))
    return LemmaReport("second-gap-2d", tuple(items))


# -- the fixed counterexample -------------------------------------------------

def example_series() -> SeriesSpec:
    """The planar series whose largest rectangular gap has no term-and-tail
    explanation: terms (7/8, 1/8), (1/8, 7/8), (3/16, 3/16), (3/16, 3/16)."""
    return series_spec([
        ("7/8", "1/8"),
        ("1/8", "7/8"),
        ("3/16", "3/16"),
        ("3/16", "3/16"),
    ])


# The achievement set of the example series, in sixteenths, in canonical order.
_EXAMPLE_SIXTEENTHS = ((0, 0), (2, 14), (3, 3), (5, 17), (6, 6), (8, 20),
                       (14, 2), (16, 16), (17, 5), (19, 19), (20, 8), (22, 22))

_EXAMPLE_GAP = RectGap(Fraction(3, 8), Fraction(1), Fraction(3, 8), Fraction(1))


def third_gap_failure_witness(budget: Optional[int] = None) -> LemmaReport:
    """Check the built-in counterexample to a planar third-gap principle.

    The achievement set of the example series has twelve points; its largest
    rectangular gap is (3/8, 1) x (3/8, 1), and no index m explains that gap
    in the one-dimensional shape (m-th term equal to the upper corner, tail
    beyond m equal to the lower corner).
    """
    s = example_series()
    E = achievement_set_2d(s, budget)
    items: List[CheckItem] = []
    items.append(CheckItem(
        "achievement set has the expected 12 points",
        (E.scale, E.ints) == (16, _EXAMPLE_SIXTEENTHS),
        ", ".join(f"({format_scaled(x, E.scale)}, {format_scaled(y, E.scale)})"
                  for x, y in E.ints)))
    largest = rect_gaps(E, mode="largest-by-area")
    items.append(CheckItem(
        "unique largest rectangular gap is (3/8, 1) x (3/8, 1)",
        largest == [_EXAMPLE_GAP],
        f"found {len(largest)} maximal gap(s)"))
    # The line's rule: some m with a_m the upper corner and r_m the lower one.
    key = (to_grid(_EXAMPLE_GAP.upper, s.scale), to_grid(_EXAMPLE_GAP.lower, s.scale))
    items.append(CheckItem(
        "no term and tail explain the gap corners", key not in _explains(s),
        "corner (1, 1) is achieved only as a two-term sum"))
    return LemmaReport("third-gap-failure", tuple(items))
