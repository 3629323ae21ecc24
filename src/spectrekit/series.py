"""Achievement sets of finite-support series and their gap structure.

A series with terms a_1, ..., a_N achieves the subset sums E = {sum over I}
for I a subset of indices.  Splitting at k gives the initial sums F_k (from
the first k terms) and the remainder sums E_k (from the rest), with
E = F_k + E_k as a Minkowski sum.  For one-dimensional nonnegative series
the complement of E decomposes into maximal open intervals, the gaps; a gap
is dominating when it is strictly longer than every gap to its left, and
those gaps are pinned down exactly by a term and a tail sum.

A series is stored on an integer grid, like a FiniteSet.  Each term is a
one-term sum, so E has the scale of a nonempty series, and the checkers
compare terms, tails and gap ends with the integer points of E.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from typing import (Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from .errors import DomainError, check_budget_power
from .groups import Frozen, Grid, IntPoint, RationalSpace
from .rational import Point, Rat, RatLike, as_rat, format_scaled, point
from .reports import CheckItem, LemmaReport
from .sets import FiniteSet, pack, spectre

TermLike = Union[RatLike, Sequence[RatLike]]


class SeriesSpec(Frozen):
    """Terms of a finite-support series, each a point of ``ctx``, the space
    Q^dim under the sup metric: ``ints[n]`` is term n times ``scale``, the
    lcm of the reduced term denominators (1 for no terms), so equal series
    have equal fields.  ``terms`` builds the ``Fraction`` tuples when asked.

    An empty term list is allowed (the zero series); its dimension is
    whatever the factory was told, defaulting to 1.
    """

    scale: int
    ints: Tuple[IntPoint, ...]
    ctx: RationalSpace

    def __init__(self, scale: int, ints: Tuple[IntPoint, ...], ctx: RationalSpace):
        vars(self).update(scale=scale, ints=ints, ctx=ctx)

    @cached_property
    def terms(self) -> Tuple[Point, ...]:
        s = self.scale
        return tuple(tuple(Fraction(c, s) for c in t) for t in self.ints)

    @property
    def dim(self) -> int:
        return self.ctx.dim

    @property
    def count(self) -> int:
        return len(self.ints)

    @cached_property
    def _sums(self) -> Dict[tuple, FiniteSet]:
        return {}

    @cached_property
    def nonnegative(self) -> bool:
        return min(map(min, self.ints), default=0) >= 0

    @property
    def nonincreasing(self) -> bool:
        """Weakly decreasing term sizes; only meaningful for scalar series."""
        if self.dim != 1:
            return False
        return all(a >= b for a, b in zip(self.ints, self.ints[1:]))


def series_spec(terms: Iterable[TermLike], dim: Optional[int] = None) -> SeriesSpec:
    """Normalize scalars or coordinate sequences into a SeriesSpec.

    ``dim`` fixes the dimension of an empty series (default 1); for a
    nonempty series it must agree with the terms if given.
    """
    pts = [point(*t) if isinstance(t, (tuple, list)) else (as_rat(t),) for t in terms]
    if not pts:
        return SeriesSpec(1, (), RationalSpace(1 if dim is None else dim))
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise DomainError(f"terms have mixed dimensions {sorted(dims)}")
    if dim is not None and dim != len(pts[0]):
        raise DomainError(f"terms have dimension {len(pts[0])}, not {dim}")
    grid = Grid.of(RationalSpace(len(pts[0])), pts)
    return SeriesSpec(grid.scale, tuple(map(grid.to_int, pts)), grid.ctx)


def _subset_sums(s: SeriesSpec, terms: Sequence[IntPoint], scale: int,
                 budget: Optional[int], menu: Tuple[int, ...] = (1,)) -> FiniteSet:
    """All sums of c_n * t_n / scale over the grid terms t_n, a slice of
    ``s.ints``, with each c_n 0 or from the integer ``menu``: subset sums for
    the menu (1,), P-sums for P's nonzero coefficients on their own grid, run
    on the sorted ints of ``sets.pack``.  The budget is checked on every call,
    and the sums of all of s's terms are kept on s (not each F_k and E_k,
    which their callers build once each, so the peak memory stays low)."""
    check_budget_power(len(menu) + 1, len(terms), budget)
    key = (tuple(terms), scale, menu)
    if key in s._sums:
        return s._sums[key]
    reach = max(menu, default=0) * sum(max(map(abs, t)) for t in terms)  # bounds a sum
    xs, unpack, _, _ = pack([(0,) * s.dim, *terms], None, reach)  # xs[0] is 0
    sums = {0}
    for t in xs[1:]:
        steps = [c * t for c in menu]
        sums |= {v + d for d in steps for v in sums}
    E = Grid(s.ctx, scale).to_set(unpack(sorted(sums)))
    if len(terms) == s.count:
        s._sums[key] = E
    return E


def _check_k(s: SeriesSpec, k: int, least: int = 0) -> None:
    """Raise a DomainError unless least <= k <= N."""
    if not least <= k <= s.count:
        raise DomainError(f"k must lie in [{least}, {s.count}], got {k}")


def _tail(s: SeriesSpec, k: int) -> IntPoint:
    """The tail r_k = a_{k+1} + ... + a_N, coordinate-wise on the series' grid."""
    return tuple(map(sum, zip(*s.ints[k:]))) or (0,) * s.dim


def _explains(s: SeriesSpec) -> Dict[Tuple[IntPoint, IntPoint], int]:
    """The term-and-tail table {(a_m, r_m): the least such m}, m = 1, ..., N."""
    return {(s.ints[m - 1], _tail(s, m)): m for m in range(s.count, 0, -1)}


def initial_subsums(s: SeriesSpec, k: int,
                    budget: Optional[int] = None) -> FiniteSet:
    """F_k: sums over subsets of the first k terms.  F_0 = {0}."""
    _check_k(s, k)
    return _subset_sums(s, s.ints[:k], s.scale, budget)


def remainder_subsums(s: SeriesSpec, k: int,
                      budget: Optional[int] = None) -> FiniteSet:
    """E_k: sums over subsets of the terms after position k.  E_N = {0}."""
    _check_k(s, k)
    return _subset_sums(s, s.ints[k:], s.scale, budget)


def remainder_sum(s: SeriesSpec, k: int) -> Rat:
    """The full tail sum r_k = a_{k+1} + ... + a_N of a scalar series."""
    if s.dim != 1:
        raise DomainError("remainder sums are defined for scalar series")
    _check_k(s, k)
    return Fraction(_tail(s, k)[0], s.scale)


def achievement_set(s: SeriesSpec, budget: Optional[int] = None) -> FiniteSet:
    """E: all subset sums of a nonnegative series."""
    if not s.nonnegative:
        raise DomainError("achievement sets are defined for nonnegative terms")
    return _subset_sums(s, s.ints, s.scale, budget)


# -- one-dimensional gaps -----------------------------------------------------

class Gap1D(NamedTuple):
    """A maximal open interval (alpha, beta) missing from a scalar set whose
    endpoints belong to it.  ``dominating`` marks gaps strictly longer than
    every gap to their left; the leftmost gap qualifies vacuously."""

    alpha: Rat
    beta: Rat
    dominating: bool

    @property
    def length(self) -> Rat:
        return self.beta - self.alpha


def _int_gaps(xs: Sequence[int]) -> Iterator[Tuple[int, int, bool]]:
    """(lo, hi, dominating) for each pair of consecutive grid values."""
    longest = 0
    for lo, hi in zip(xs, xs[1:]):
        yield lo, hi, hi - lo > longest
        longest = max(longest, hi - lo)


def _consecutive(xs: Sequence, lo: object, hi: object) -> bool:
    """Whether lo and hi are consecutive values of the sorted distinct values xs."""
    i = bisect_left(xs, lo)
    return list(xs[i:i + 2]) == [lo, hi]


def _first_gap_axis(xs: Sequence[int], k: int) -> Tuple[List[int], int, int]:
    """The first-gap prediction on one axis: the n with xs[n] < a_k = xs[k - 1], their sum, a_k."""
    a_k = xs[k - 1]
    below = [n for n, x in enumerate(xs) if x < a_k]
    return below, sum(xs[n] for n in below), a_k


def find_gaps(E: FiniteSet) -> List[Gap1D]:
    """All gaps of a scalar set, left to right, with dominating flags."""
    if not isinstance(E.ctx, RationalSpace) or E.ctx.dim != 1:
        raise DomainError("gap scans need a one-dimensional rational set")
    xs = [x for (x,) in E.ints]
    values = [Fraction(x, E.scale) for x in xs]  # one per endpoint, shared by two gaps
    return [Gap1D(lo, hi, dominating)
            for lo, hi, (_, _, dominating) in zip(values, values[1:], _int_gaps(xs))]


def first_gap_check_1d(s: SeriesSpec, k: int,
                       budget: Optional[int] = None) -> Optional[Gap1D]:
    """Gap prediction from a single term of a nonnegative scalar series.

    Let A collect the indices with terms strictly below a_k.  When a_k
    exceeds the sum over A, the interval (sum over A, a_k) is a gap of the
    achievement set; the function returns that gap as the detector reports
    it, or None when the hypothesis fails, building only the 2^|A| sums over A.
    """
    if s.dim != 1:
        raise DomainError("this gap prediction applies to scalar series")
    _check_k(s, k, 1)
    if not s.nonnegative:
        raise DomainError("nonnegative terms required")
    idx, below, a_k = _first_gap_axis([x for (x,) in s.ints], k)
    if a_k <= below:
        return None
    # A sum below a_k uses only A's terms, so E up to a_k is A's sums (at most below) and a_k.
    sums = Grid(s.ctx, s.scale).ints(_subset_sums(s, [s.ints[n] for n in idx], s.scale, budget))
    *_, (_, _, dominating) = _int_gaps([x for (x,) in sums] + [a_k])
    return Gap1D(Fraction(below, s.scale), Fraction(a_k, s.scale), dominating)


def third_gap_check(s: SeriesSpec, budget: Optional[int] = None) -> LemmaReport:
    """Verify that every dominating gap (alpha, beta) of the achievement set
    is explained by an index m with a_m = beta and tail sum r_m = alpha.
    Requires nonnegative, nonincreasing scalar terms."""
    if s.dim != 1 or not s.nonnegative or not s.nonincreasing:
        raise DomainError("nonnegative nonincreasing scalar terms required")
    E = achievement_set(s, budget)  # on the series' grid
    explains = _explains(s)
    S = s.scale
    items: List[CheckItem] = []
    for alpha, beta, dominating in _int_gaps([x for (x,) in E.ints]):
        if not dominating:
            continue
        label = f"dominating gap ({format_scaled(alpha, S)}, {format_scaled(beta, S)})"
        hit = explains.get(((beta,), (alpha,)))
        if hit is None:
            items.append(CheckItem(label, False,
                                   "no index provides this term and tail sum"))
        else:
            items.append(CheckItem(label, True,
                                   f"m={hit}: a_m={format_scaled(beta, S)}, "
                                   f"tail={format_scaled(alpha, S)}"))
    note = "" if items else "no dominating gaps to check"
    return LemmaReport("third-gap", tuple(items), note)


# -- spectre behaviour of achievement sets ------------------------------------

def series_spectre_checks(s: SeriesSpec,
                          budget: Optional[int] = None) -> LemmaReport:
    """Verify the spectre-membership laws of achievement sets.

    Every term lies in the spectre of E; a run of 2j-1 equal consecutive
    terms puts the j-fold multiple in the spectre; for scalar series every
    term magnitude lies in the center of distances; and the spectres of the
    initial and remainder sums form monotone chains inside S(E).
    """
    ctx, S, N = s.ctx, s.scale, s.count
    grid = Grid(ctx, S)  # S(F) lies in F - F, so every spectre here is on this grid

    def spectre_of(terms: Sequence[IntPoint]) -> FrozenSet[IntPoint]:
        return frozenset(grid.ints(spectre(_subset_sums(s, terms, S, budget))))

    member = spectre_of(s.ints)  # S(E)
    items: List[CheckItem] = []

    def show(t: IntPoint) -> str:
        return str(tuple(format_scaled(c, S) for c in t))

    for t in sorted(set(s.ints)):
        items.append(CheckItem(f"term {show(t)} in S(E)", t in member))

    start = 1
    for t, run in itertools.groupby(s.ints):
        length = len(list(run))
        for j in range(2, (length + 1) // 2 + 1):
            items.append(CheckItem(
                f"run of {2 * j - 1} at index {start}: {j} * {show(t)} in S(E)",
                tuple(c * j for c in t) in member))
        start += length

    if s.dim == 1:
        # In one dimension C(E) is the nonnegative part of S(E), and S(E)
        # is symmetric, so |t| is in C(E) exactly when it is in S(E).
        for t in sorted({abs(x) for (x,) in s.ints}):
            items.append(CheckItem(
                f"|term| {format_scaled(t, S)} in C(E)", (t,) in member))

    # F_N = E_0 = E, so S(E) stands in for both.
    spectres_f = [spectre_of(s.ints[:k]) for k in range(N)] + [member]
    spectres_e = [member] + [spectre_of(s.ints[k:]) for k in range(1, N + 1)]

    def chain(label: str,
              pairs: Iterable[Tuple[FrozenSet[IntPoint], FrozenSet[IntPoint]]]) -> None:
        for n, (small, large) in enumerate(pairs):
            if not small <= large:
                p = min(small - large)
                items.append(CheckItem(label, False, f"fails at n={n}: "
                                       f"{tuple(Fraction(c, S) for c in p)}"))
                return
        items.append(CheckItem(label, True))

    chain("S(F_n) ascend with n", zip(spectres_f, spectres_f[1:]))
    chain("S(F_n) inside S(E)", ((sf, member) for sf in spectres_f))
    chain("S(E_n) descend with n", zip(spectres_e[1:], spectres_e))
    chain("S(E_n) inside S(E)", ((se, member) for se in spectres_e))

    return LemmaReport("series-spectre", tuple(items))
