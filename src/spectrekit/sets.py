"""Finite point sets and their distance invariants.

The two central objects are the spectre and the center of distances of a
finite set A in an Abelian metric group:

* z lies in the spectre S(A) when every x in A has x+z in A or x-z in A;
* a distance value lies in the center C(A) when every x in A realizes it
  against some point of A.

Both are computed exactly.  A FiniteSet keeps its points on an integer grid
(``groups.Grid``), so the kernels here run on integers from input to result.
Only ``densify_to_netset`` builds rational points, since the denominators of
its candidates are not known in advance.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from itertools import repeat
from operator import add, lshift, sub
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import DomainError, SpectreKitError, check_budget
from .groups import (
    DistValue,
    FiniteSet,
    Grid,
    GroupCtx,
    IntPoint,
    RationalSpace,
    canonical_set,
    require_same_ctx,
    validate_point,
    zero,
)
from .rational import Point, Rat


def finite_set(ctx: GroupCtx, points: Iterable[Point]) -> FiniteSet:
    """Canonicalize ``points`` into a FiniteSet.  Duplicates collapse silently;
    an empty collection is rejected since spectres of the empty set are not
    defined here."""
    return FiniteSet(ctx, points)


def translate(A: FiniteSet, t: Point) -> FiniteSet:
    return minkowski_sum(A, finite_set(A.ctx, [t]))


def negate(A: FiniteSet) -> FiniteSet:
    grid = Grid.of(A.ctx, A)
    return grid.to_set(map(grid.neg, A.ints))


def minkowski_sum(A: FiniteSet, B: FiniteSet) -> FiniteSet:
    require_same_ctx(A.ctx, B.ctx)
    grid = Grid.of(A.ctx, A, B)
    pb = grid.ints(B)
    return grid.to_set(grid.add(p, q) for p in grid.ints(A) for q in pb)


def difference_set(A: FiniteSet) -> FiniteSet:
    """A - A, the set of pairwise differences (always symmetric, contains 0)."""
    return minkowski_sum(A, negate(A))


# -- spectre and center -------------------------------------------------------

SPECTRE_MODES = ("fast", "oracle")


def spectre(A: FiniteSet, mode: str = "fast", budget: Optional[int] = None) -> FiniteSet:
    """S(A) = {z : for every x in A, x+z in A or x-z in A}.

    The condition does not change when z is replaced by -z, so S(A) = -S(A),
    and every z of S(A) lies in A - A.  On a rational space both modes run on
    the ints of ``pack``: the fast mode is ``line_spectre``, and the oracle
    probes the z >= 0 of A - A.  On a finite group the fast mode tests the
    candidates A - a for one anchor a (z moves a into A one way or the other)
    and reflects the ones that pass, and the oracle scans the whole group.
    The oracle's scan must fit in ``budget``; it exists so the two routes can
    be checked against each other.
    """
    if mode not in SPECTRE_MODES:
        raise DomainError(f"unknown spectre mode {mode!r}")
    grid = Grid.of(A.ctx, A)
    pts = A.ints
    if grid.moduli is None:
        xs, unpack = pack(pts)
        if mode == "oracle":
            check_budget(len(xs) ** 2, budget)
            # A - A is symmetric, so its part z >= 0 holds z or -z for each z.
            zs = _probe_line(xs, {y - x for x, y in itertools.combinations(xs, 2)} | {0})
        else:
            zs = line_spectre(xs)
        return grid.to_set(unpack(zs + [-z for z in zs]))
    candidates = None
    if mode == "oracle":
        check_budget(A.ctx.order(), budget)
        candidates = itertools.product(*(range(m) for m in grid.moduli))
    return grid.to_set(spectre_ints(grid, pts, candidates))


def pack(pts: Sequence[IntPoint]) -> Tuple[List[int], Callable[[Iterable[int]], List[IntPoint]]]:
    """The points of a rational grid as ints, and the map back.

    A vector v becomes the sum of v_i * W^(d-1-i), W = 2^k > 2s + 1 for the
    largest coordinate span s.  The map is linear, and on vectors whose
    coordinates differ by less than W, as the points, x + z and x - z for z
    in A - A, and their differences do, it is injective and keeps the
    lexicographic order.  ``unpack`` reads back vectors with coordinates in
    [-W/2, W/2), such as those of A - A."""
    cols = list(zip(*pts))
    k = (2 * max(max(c) - min(c) for c in cols) + 1).bit_length()
    xs = list(cols[0])
    for col in cols[1:]:
        xs = list(map(add, map(lshift, xs, repeat(k)), col))
    shifts = range(k * (len(cols) - 1), -1, -k)
    half, low_bits = 1 << (k - 1), (1 << k) - 1
    offset = sum(half << s for s in shifts)  # makes every digit nonnegative

    def unpack(zs: Iterable[int]) -> List[IntPoint]:
        return [tuple(((z + offset) >> s & low_bits) - half for s in shifts) for z in zs]

    return xs, unpack


def spectre_ints(grid: Grid, pts: Sequence[IntPoint],
                 candidates: Optional[Iterable[IntPoint]] = None) -> List[IntPoint]:
    """The spectre of the grid points ``pts``: every z of ``candidates`` with
    x+z or x-z in pts for each x in pts, together with its negative, since z
    passes exactly when -z does.  The default candidates are pts - a for the
    anchor a = pts[0], which hold z or -z for each z of the spectre.  The
    result may repeat a point (z = -z), so callers dedupe it.  This is the
    loop for finite groups; ``spectre`` on a rational space does not use it."""
    add, sub = grid.add, grid.sub
    member = frozenset(pts)
    if candidates is None:
        candidates = {sub(p, pts[0]) for p in pts}
    accepted = []
    for z in candidates:
        for x in pts:
            if add(x, z) not in member and sub(x, z) not in member:
                break
        else:
            accepted.append(z)
    return accepted + list(map(grid.neg, accepted))


# The mask route runs while the span holds at most this many grid positions
# per point.  A mask test then costs at most about half of a full probe pass
# over the points (measured at n = 1000 and 4000; at 128 the two are equal).
MASK_SPAN_PER_POINT = 64


def line_spectre(xs: Sequence[int]) -> List[int]:
    """The z >= 0 of the spectre of the distinct ascending integers ``xs``,
    ascending: the fast route on a line.  Such a z moves the minimum up and
    the maximum down into xs, so only the z of xs - min with max - z in xs
    are candidates.

    With g the gcd of the differences, xs is the bit mask M with a bit at
    each position (x - min) / g, and z = k * g passes iff
    ``M & ~((M << k) | (M >> k)) == 0``: every set bit has a set bit k
    places above or below it.  A test costs O(span / g) bit operations, so a
    candidate must first pass the probes of a few points, and sets wider
    than MASK_SPAN_PER_POINT positions per point keep the probe loop."""
    lo, hi = xs[0], xs[-1]
    member = frozenset(xs)
    zs = [x - lo for x in xs if hi - x + lo in member]
    g = math.gcd(*(x - lo for x in xs)) or 1
    if hi - lo > MASK_SPAN_PER_POINT * g * len(xs):
        return _probe_line(xs, zs)
    bits = bytearray((hi - lo) // (8 * g) + 1)
    for x in xs:
        k = (x - lo) // g
        bits[k >> 3] |= 1 << (k & 7)
    M = int.from_bytes(bits, "little")
    head = xs[1:9]
    return [z for z in zs
            if all(x + z in member or x - z in member for x in head)
            and not M & ~((M << z // g) | (M >> z // g))]


def _probe_line(xs: Sequence[int], candidates: Iterable[int]) -> List[int]:
    """The candidates z with x+z or x-z in xs for each x of xs, ascending."""
    member = frozenset(xs)
    accepted = []
    for z in candidates:
        for x in xs:
            if x + z not in member and x - z not in member:
                break
        else:
            accepted.append(z)
    return sorted(accepted)


def distance_set(A: FiniteSet, x: Optional[Point] = None) -> List[DistValue]:
    """Distances realized inside A, or from the point ``x`` to A.  Sorted,
    without repeats; includes zero whenever x (or any point) sees itself."""
    if x is None:
        grid = Grid.of(A.ctx, A)
        raws = {grid.dist(p, q) for p, q in itertools.combinations(A.ints, 2)}
        raws.add(0)
    else:
        x = validate_point(A.ctx, x)
        grid = Grid.of(A.ctx, A, [x])
        xi = grid.to_int(x)
        raws = {grid.dist(xi, p) for p in grid.ints(A)}
    return [grid.dist_value(r) for r in sorted(raws)]


def center_of_distances(A: FiniteSet) -> List[DistValue]:
    """C(A): distance values realized from every point of A.  Always contains
    zero; sorted ascending.

    On a line, x has a partner at distance |z| exactly when x+z or x-z is in
    A, so C(A) is the distance of each z >= 0 of S(A) from 0."""
    grid = Grid.of(A.ctx, A)
    pts = A.ints
    if grid.moduli is None and A.ctx.dim == 1:
        return [grid.dist_value(grid.dist((z,), (0,))) for z in line_spectre([x for (x,) in pts])]
    common: Optional[set] = None
    cols = list(zip(*pts))
    for p in pts:
        row = grid.column_dists(p, cols)
        common = set(row) if common is None else common.intersection(row)
        if len(common) == 1:
            # Zero is realized from every point, so once the intersection
            # shrinks to {0} no later point can change it.
            break
    assert common is not None
    return [grid.dist_value(r) for r in sorted(common)]


# -- structural checkers ------------------------------------------------------

class PairWitness(NamedTuple):
    """Two element pairs certifying a failed check.  ``shared_value`` is the
    difference class both pairs realize (net-set check, a Point) or the
    distance both pairs realize (non-sliding check, a DistValue)."""

    pair_a: Tuple[Point, Point]
    pair_b: Tuple[Point, Point]
    shared_value: Union[Point, DistValue]


class SetVerdict(NamedTuple):
    ok: bool
    witness: Optional[PairWitness] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _first_shared_pair(A: FiniteSet, row: Callable[[int], Iterable[object]],
                       value: Callable, reason: str) -> SetVerdict:
    """Fail on the first pair of point pairs, in combination order, whose key
    agrees with an earlier pair's; pass when all keys differ.  ``row(i)``
    gives the keys of the pairs (i, j) for j > i, in order.  Whole rows are
    taken while their keys are distinct and new; the first row that is not
    holds the first repeat, found by a pair-by-pair rescan."""
    seen: set = set()
    for i in range(len(A) - 1):
        keys = list(row(i))
        if seen.isdisjoint(keys) and len(set(keys)) == len(keys):
            seen.update(keys)
            continue
        first = {}
        for a in range(i + 1):
            for b, k in enumerate(row(a), a + 1):
                if k in first:
                    e = A.elements
                    c, d = first[k]
                    return SetVerdict(False, PairWitness((e[c], e[d]), (e[a], e[b]), value(k)),
                                      reason)
                first[k] = (a, b)
    return SetVerdict(True)


def is_net_set(A: FiniteSet) -> SetVerdict:
    """A net-set has at least three elements and no two distinct 2-element
    subsets whose differences agree up to sign.  Net-sets have trivial
    spectre: S(A) = {0}.  On a rational space the class of a pair x < y is
    ``pack``'s int of y - x."""
    if len(A) < 3:
        return SetVerdict(False, reason="a net-set needs at least three elements")
    grid = Grid.of(A.ctx, A)
    pts = A.ints
    reason = "two pairs share a difference up to sign"
    if grid.moduli is None:
        xs, unpack = pack(pts)
        return _first_shared_pair(A, lambda i: map(sub, xs[i + 1:], repeat(xs[i])),
                                  lambda d: grid.to_set(unpack([d])).elements[0], reason)

    def difference_class(p: IntPoint, q: IntPoint) -> IntPoint:
        d = grid.sub(p, q)
        return max(d, grid.neg(d))

    return _first_shared_pair(A, lambda i: map(difference_class, repeat(pts[i]), pts[i + 1:]),
                              lambda d: grid.to_set([d]).elements[0], reason)


def is_non_sliding(A: FiniteSet) -> SetVerdict:
    """A is non-sliding when every positive distance between its points is
    realized by exactly one unordered pair."""
    grid = Grid.of(A.ctx, A)
    pts = A.ints
    cols = list(zip(*pts))
    return _first_shared_pair(A, lambda i: grid.column_dists(pts[i], [c[i + 1:] for c in cols]),
                              grid.dist_value, "two pairs realize the same distance")


def min_positive_distance(A: FiniteSet) -> Optional[DistValue]:
    """Smallest positive distance between two points of A, or None for a
    singleton."""
    if len(A) < 2:
        return None
    grid = Grid.of(A.ctx, A)
    best = min(grid.dist(p, q) for p, q in itertools.combinations(A.ints, 2))
    return grid.dist_value(best)


# -- constructions ------------------------------------------------------------

def spectre_inflate(B: FiniteSet, x: Point) -> FiniteSet:
    """B together with its translate B + x, forcing {0, x} into the spectre
    of the result."""
    x = validate_point(B.ctx, x)
    if x == zero(B.ctx):
        raise DomainError("the shift must be nonzero")
    return minkowski_sum(B, canonical_set(B.ctx, [zero(B.ctx), x]))


def _perturbations(dim: int, eps: Rat) -> Iterator[Point]:
    """Deterministic stream of nonzero vectors with sup norm below eps.

    Candidates are eps/2^j along one axis plus eps/2^k along another, visited
    by increasing j+k so the stream contains vectors of arbitrarily small
    norm and, for any finite exclusion set, eventually a vector avoiding it.
    The terms (i, j) and (m, k) give the same vector as (m, k) and (i, j), so
    only the first of the two in loop order, (j, i) <= (k, m), is yielded.
    """
    for total in itertools.count(2):
        for j in range(1, total):
            k = total - j
            for i, m in itertools.product(range(dim), repeat=2):
                if (j, i) <= (k, m):
                    v = [Fraction(0)] * dim
                    v[i] += eps / (1 << j)
                    v[m] += eps / (1 << k)
                    if max(abs(c) for c in v) < eps:
                        yield tuple(v)


_DENSIFY_SCAN_CAP = 20000


def _scan(candidates: Iterator[Point], accept: Callable[[Point], bool]) -> Point:
    for _, x in zip(range(_DENSIFY_SCAN_CAP), candidates):
        if accept(x):
            return x
    raise SpectreKitError("perturbation scan exhausted; this should be unreachable")


def densify_to_netset(B: FiniteSet, eps: Rat) -> FiniteSet:
    """A net-set within Hausdorff distance eps of B, in a rational space.

    One greedy rule builds it.  A candidate is kept when it is not kept
    already, its differences to the kept points are distinct up to sign, and
    none of them is, up to sign, a difference of two kept points.  Each point
    b of B, in order, is kept if it passes, and otherwise the first passing
    b + v for v in ``_perturbations`` (norm below eps); then, while fewer
    than three points are kept, the first passing first + v is added.
    """
    if not isinstance(B.ctx, RationalSpace):
        raise DomainError("densification needs a rational-space context")
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    ctx = B.ctx
    kept: List[Point] = []
    members = set()
    index = set()  # differences of kept points, the larger of d and -d

    def differences(c: Point) -> Iterator[Point]:
        for k in kept:
            d = tuple(a - b for a, b in zip(c, k))
            yield max(d, tuple(-a for a in d))

    def passes(c: Point) -> bool:
        if c in members:
            return False
        new = set()
        for d in differences(c):
            if d in new or d in index:
                return False
            new.add(d)
        return True

    def near(p: Point) -> Iterator[Point]:
        yield p
        for v in _perturbations(ctx.dim, eps):
            yield tuple(a + b for a, b in zip(p, v))

    def keep(c: Point) -> None:
        index.update(differences(c))
        kept.append(c)
        members.add(c)

    for b in B:
        keep(_scan(near(b), passes))
    while len(kept) < 3:
        keep(_scan(near(kept[0]), passes))
    return canonical_set(ctx, kept)
