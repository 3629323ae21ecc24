"""Achievement sets of finite-support series and their gap structure.

A series with terms a_1, ..., a_N achieves the subset sums E = {sum over I}
for I a subset of indices.  Splitting at k gives the initial sums F_k (from
the first k terms) and the remainder sums E_k (from the rest), with
E = F_k + E_k as a Minkowski sum.  For one-dimensional nonnegative series
the complement of E decomposes into maximal open intervals, the gaps; a gap
is dominating when it is strictly longer than every gap to its left, and
those gaps are pinned down exactly by a term and a tail sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import DomainError, SpectreKitError, check_budget_power
from .groups import SUP, Grid, RationalSpace
from .rational import Point, Rat, RatLike, as_rat, format_rat, point
from .reports import CheckItem, LemmaReport, report
from .sets import FiniteSet, spectre

TermLike = Union[RatLike, Sequence[RatLike]]


@dataclass(frozen=True)
class SeriesSpec:
    """Terms of a finite-support series, each a point of a fixed dimension.

    An empty term list is allowed (the zero series); its dimension is
    whatever the factory was told, defaulting to 1.
    """

    terms: Tuple[Point, ...]
    _dim: int = 1

    @property
    def dim(self) -> int:
        return len(self.terms[0]) if self.terms else self._dim

    @property
    def count(self) -> int:
        return len(self.terms)

    @property
    def nonnegative(self) -> bool:
        return all(c >= 0 for t in self.terms for c in t)

    @property
    def nonincreasing(self) -> bool:
        """Weakly decreasing term sizes; only meaningful for scalar series."""
        if self.dim != 1:
            return False
        return all(self.terms[i][0] >= self.terms[i + 1][0]
                   for i in range(len(self.terms) - 1))

    def ctx(self) -> RationalSpace:
        return RationalSpace(self.dim, SUP)


def series_spec(terms: Iterable[TermLike], dim: Optional[int] = None) -> SeriesSpec:
    """Normalize scalars or coordinate sequences into a SeriesSpec.

    ``dim`` fixes the dimension of an empty series (default 1); for a
    nonempty series it must agree with the terms if given.
    """
    pts: List[Point] = []
    for t in terms:
        if isinstance(t, (tuple, list)):
            pts.append(point(*t))
        else:
            pts.append((as_rat(t),))
    if not pts:
        if dim is not None and dim < 1:
            raise DomainError(f"dimension must be at least 1, got {dim}")
        return SeriesSpec((), dim if dim is not None else 1)
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise DomainError(f"terms have mixed dimensions {sorted(dims)}")
    if dim is not None and dim != len(pts[0]):
        raise DomainError(f"terms have dimension {len(pts[0])}, not {dim}")
    return SeriesSpec(tuple(pts), len(pts[0]))


def _subset_sums(ctx: RationalSpace, terms: Sequence[Point],
                 budget: Optional[int]) -> FiniteSet:
    check_budget_power(2, len(terms), budget)
    return _subset_sums_cached(ctx, tuple(terms))


@lru_cache(maxsize=128)
def _subset_sums_cached(ctx: RationalSpace, terms: Tuple[Point, ...],
                        menu: Tuple[Rat, ...] = (1,)) -> FiniteSet:
    """All sums of c_n * t_n over the terms with each c_n either 0 or taken
    from ``menu``: the subset sums for the menu (1,), the P-sums for the
    nonzero coefficients of P.  The menu is part of the cache key."""
    # The budget check stays in the caller so a tight budget still raises
    # even when the enumeration happens to be cached.  FiniteSet is frozen,
    # so sharing one instance across callers is safe.
    steps = [[tuple(c * x for x in t) for c in menu] for t in terms]
    grid = Grid.of(ctx, *steps)
    add = grid.add
    sums = {(0,) * ctx.dim}
    for row in steps:
        ints = [grid.to_int(p) for p in row]
        sums |= {add(s, d) for d in ints for s in sums}
    return grid.to_set(sums)


def initial_subsums(s: SeriesSpec, k: int,
                    budget: Optional[int] = None) -> FiniteSet:
    """F_k: sums over subsets of the first k terms.  F_0 = {0}."""
    if not 0 <= k <= s.count:
        raise DomainError(f"k must lie in [0, {s.count}], got {k}")
    return _subset_sums(s.ctx(), s.terms[:k], budget)


def remainder_subsums(s: SeriesSpec, k: int,
                      budget: Optional[int] = None) -> FiniteSet:
    """E_k: sums over subsets of the terms after position k.  E_N = {0}."""
    if not 0 <= k <= s.count:
        raise DomainError(f"k must lie in [0, {s.count}], got {k}")
    return _subset_sums(s.ctx(), s.terms[k:], budget)


def remainder_sum(s: SeriesSpec, k: int) -> Rat:
    """The full tail sum r_k = a_{k+1} + ... + a_N of a scalar series."""
    if s.dim != 1:
        raise DomainError("remainder sums are defined for scalar series")
    if not 0 <= k <= s.count:
        raise DomainError(f"k must lie in [0, {s.count}], got {k}")
    return sum((t[0] for t in s.terms[k:]), Fraction(0))


def achievement_set(s: SeriesSpec, budget: Optional[int] = None) -> FiniteSet:
    """E: all subset sums of a nonnegative series."""
    if not s.nonnegative:
        raise DomainError("achievement sets are defined for nonnegative terms")
    return _subset_sums(s.ctx(), s.terms, budget)


# -- one-dimensional gaps -----------------------------------------------------

@dataclass(frozen=True)
class Gap1D:
    """A maximal open interval (alpha, beta) missing from a scalar set whose
    endpoints belong to it.  ``dominating`` marks gaps strictly longer than
    every gap to their left; the leftmost gap qualifies vacuously."""

    alpha: Rat
    beta: Rat
    dominating: bool

    @property
    def length(self) -> Rat:
        return self.beta - self.alpha


def find_gaps(E: FiniteSet) -> List[Gap1D]:
    """All gaps of a scalar set, left to right, with dominating flags."""
    if not isinstance(E.ctx, RationalSpace) or E.ctx.dim != 1:
        raise DomainError("gap scans need a one-dimensional rational set")
    xs = [x for (x,) in E.ints]
    rats = [Fraction(x, E.scale) for x in xs]
    gaps: List[Gap1D] = []
    longest = 0
    for i in range(len(xs) - 1):
        length = xs[i + 1] - xs[i]
        gaps.append(Gap1D(rats[i], rats[i + 1], dominating=length > longest))
        longest = max(longest, length)
    return gaps


def first_gap_check_1d(s: SeriesSpec, k: int,
                       budget: Optional[int] = None) -> Optional[Gap1D]:
    """Gap prediction from a single term of a nonnegative scalar series.

    Let A collect the indices with terms strictly below a_k.  When a_k
    exceeds the sum over A, the interval (sum over A, a_k) is a gap of the
    achievement set; the function returns that gap as the detector reports
    it, or None when the hypothesis fails.
    """
    if s.dim != 1:
        raise DomainError("this gap prediction applies to scalar series")
    if not 1 <= k <= s.count:
        raise DomainError(f"k must lie in [1, {s.count}], got {k}")
    if not s.nonnegative:
        raise DomainError("nonnegative terms required")
    a_k = s.terms[k - 1][0]
    below = sum((t[0] for t in s.terms if t[0] < a_k), Fraction(0))
    if a_k <= below:
        return None
    for gap in find_gaps(achievement_set(s, budget)):
        if gap.alpha == below and gap.beta == a_k:
            return gap
    raise SpectreKitError(
        f"predicted gap ({format_rat(below)}, {format_rat(a_k)}) is absent")


def third_gap_check(s: SeriesSpec, budget: Optional[int] = None) -> LemmaReport:
    """Verify that every dominating gap (alpha, beta) of the achievement set
    is explained by an index m with a_m = beta and tail sum r_m = alpha.
    Requires nonnegative, nonincreasing scalar terms."""
    if s.dim != 1 or not s.nonnegative or not s.nonincreasing:
        raise DomainError("nonnegative nonincreasing scalar terms required")
    E = achievement_set(s, budget)
    items: List[CheckItem] = []
    for gap in find_gaps(E):
        if not gap.dominating:
            continue
        label = f"dominating gap ({format_rat(gap.alpha)}, {format_rat(gap.beta)})"
        hit = None
        for m in range(1, s.count + 1):
            if s.terms[m - 1][0] == gap.beta and remainder_sum(s, m) == gap.alpha:
                hit = m
                break
        if hit is None:
            items.append(CheckItem(label, False,
                                   "no index provides this term and tail sum"))
        else:
            items.append(CheckItem(label, True,
                                   f"m={hit}: a_m={format_rat(gap.beta)}, "
                                   f"tail={format_rat(gap.alpha)}"))
    note = "" if items else "no dominating gaps to check"
    return report("third-gap", items, note=note)


# -- spectre behaviour of achievement sets ------------------------------------

def _runs(values: Sequence[Rat]) -> List[Tuple[int, int]]:
    """Maximal runs of equal consecutive values as (start index, length)."""
    runs = []
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[j + 1] == values[i]:
            j += 1
        runs.append((i, j - i + 1))
        i = j + 1
    return runs


def series_spectre_checks(s: SeriesSpec,
                          budget: Optional[int] = None) -> LemmaReport:
    """Verify the spectre-membership laws of achievement sets.

    Every term lies in the spectre of E; a run of 2j-1 equal consecutive
    terms puts the j-fold multiple in the spectre; for scalar series every
    term magnitude lies in the center of distances; and the spectres of the
    initial and remainder sums form monotone chains inside S(E).
    """
    ctx = s.ctx()
    E = _subset_sums(ctx, s.terms, budget)
    SE = spectre(E)
    items: List[CheckItem] = []

    for t in sorted(set(s.terms)):
        items.append(CheckItem(
            f"term {tuple(map(format_rat, t))} in S(E)", t in SE))

    for start, length in _runs(s.terms):
        t = s.terms[start]
        for j in range(2, (length + 1) // 2 + 1):
            multiple = tuple(c * j for c in t)
            items.append(CheckItem(
                f"run of {2 * j - 1} at index {start + 1}: "
                f"{j} * {tuple(map(format_rat, t))} in S(E)",
                multiple in SE))

    if s.dim == 1:
        # In one dimension C(E) is the nonnegative part of S(E), and S(E)
        # is symmetric, so |t| is in C(E) exactly when it is in S(E).
        for t in sorted({abs(t[0]) for t in s.terms}):
            items.append(CheckItem(
                f"|term| {format_rat(t)} in C(E)", (t,) in SE))

    initial = [_subset_sums(ctx, s.terms[:k], budget)
               for k in range(s.count + 1)]
    remainder = [_subset_sums(ctx, s.terms[k:], budget)
                 for k in range(s.count + 1)]
    spectres_f = [spectre(F) for F in initial]
    spectres_e = [spectre(Ek) for Ek in remainder]

    def chain(label: str, pairs: Iterable[Tuple[FiniteSet, FiniteSet]]) -> None:
        for n, (small, large) in enumerate(pairs):
            grid = Grid.of(ctx, small, large)
            member = set(grid.ints(large))
            missing = [i for i, p in enumerate(grid.ints(small)) if p not in member]
            if missing:
                items.append(CheckItem(label, False,
                                       f"fails at n={n}: {small.elements[missing[0]]}"))
                return
        items.append(CheckItem(label, True))

    chain("S(F_n) ascend with n",
          zip(spectres_f, spectres_f[1:]))
    chain("S(F_n) inside S(E)",
          ((sf, SE) for sf in spectres_f))
    chain("S(E_n) descend with n",
          zip(spectres_e[1:], spectres_e))
    chain("S(E_n) inside S(E)",
          ((se, SE) for se in spectres_e))

    return report("series-spectre", items)
