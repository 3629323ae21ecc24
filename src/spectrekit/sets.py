"""Finite point sets and their distance invariants.

The two central objects are the spectre and the center of distances of a
finite set A in an Abelian metric group:

* z lies in the spectre S(A) when every x in A has x+z in A or x-z in A;
* a distance value lies in the center C(A) when every x in A realizes it
  against some point of A.

Both are computed exactly.  A FiniteSet keeps its points on an integer grid
(``groups.Grid``), so the kernels here run on integers from input to result.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from itertools import repeat
from operator import add, itemgetter, lshift, pos, sub
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import DomainError, SpectreKitError, check_budget
from .groups import (
    DistValue,
    FiniteSet,
    Grid,
    IntPoint,
    RationalSpace,
    validate_point,
    zero,
)
from .rational import Point, Rat


finite_set = FiniteSet  # another name for the constructor


def translate(A: FiniteSet, t: Point) -> FiniteSet:
    return minkowski_sum(A, FiniteSet(A.ctx, [t]))


def negate(A: FiniteSet) -> FiniteSet:
    grid = Grid.of(A.ctx, A)
    xs, unpack, wrap, mods = pack(A.ints, grid.moduli, max(map(abs, itertools.chain(*A.ints))))
    mp = sum(mods)
    return grid.to_set(unpack(sorted(wrap(mp - x) for x in xs)))


def minkowski_sum(A: FiniteSet, B: FiniteSet) -> FiniteSet:
    """A + B, each sum wrap(x + y) of ``pack``'s ints, which are sorted and
    unpacked once."""
    grid = Grid.of(A.ctx, A, B)
    pa, pb = grid.ints(A), grid.ints(B)
    reach = 2 * max(map(abs, itertools.chain(*pa, *pb)))  # bounds |coordinate| of a sum
    xs, unpack, wrap, _ = pack(pa, grid.moduli, reach)
    ys = pack(pb, grid.moduli, reach)[0]
    return grid.to_set(unpack(sorted(set(map(wrap, [x + y for x in xs for y in ys])))))


def difference_set(A: FiniteSet) -> FiniteSet:
    """A - A, the set of pairwise differences (always symmetric, contains 0)."""
    return minkowski_sum(A, negate(A))


# -- spectre and center -------------------------------------------------------

SPECTRE_MODES = ("fast", "oracle")


def spectre(A: FiniteSet, mode: str = "fast", budget: Optional[int] = None) -> FiniteSet:
    """S(A) = {z : for every x in A, x+z in A or x-z in A}.

    The condition does not change when z is replaced by -z, so S(A) = -S(A),
    and every z of S(A) lies in A - A.  Both modes run on the ints of
    ``pack`` under its group law: the fast mode is ``line_spectre``, and
    the oracle probes the z >= 0 of A - A and adds their negatives, or
    probes the whole finite group, within ``budget``.  The oracle exists so
    the two routes can be checked against each other.
    """
    if mode not in SPECTRE_MODES:
        raise DomainError(f"unknown spectre mode {mode!r}")
    grid = Grid.of(A.ctx, A)
    ms = grid.moduli
    xs, unpack, wrap, mods = pack(A.ints, ms)
    if mode == "fast":
        zs = line_spectre(xs, wrap, mods)
    elif ms is None:
        check_budget(len(xs) ** 2, budget)
        # A - A is symmetric, so its part z >= 0 holds z or -z for each z.
        zs = probe_line(xs, {y - x for x, y in itertools.combinations(xs, 2)} | {0})
        zs += [-z for z in zs]
    else:
        check_budget(A.ctx.order(), budget)
        zs = probe_line(xs, pack(list(itertools.product(*map(range, ms))), ms)[0], wrap, mods)
    return grid.to_set(unpack(zs))


def pack(pts: Sequence[IntPoint], moduli: Optional[Sequence[int]] = None,
         reach: Optional[int] = None) -> Tuple[List[int], Callable[[Iterable[int]], List[IntPoint]],
                                               Callable[[int], int], List[int]]:
    """The points of a grid as ints, the map back, and the group law on the
    ints: ``xs, unpack, wrap, mods``.

    A vector v becomes the sum of v_i * W^(d-1-i), W = 2^k.  The map is
    linear, and on vectors whose coordinates differ by less than W it is
    injective and keeps the lexicographic order.  ``unpack`` reads back
    coordinates in [-W/2, W/2), a column at a time.

    On Q^d, W > 2 * reach + 1, so unpack reads back every coordinate of
    absolute value at most ``reach``.  It defaults to the largest coordinate
    span s of pts, given in lexicographic order, which covers A - A; a
    kernel that adds points passes the largest |coordinate| a sum can
    reach.  There wrap is the identity and mods is empty.

    On a finite group, W > 3 max(m) covers the digits [0, 3m) of
    ``line_spectre``.  mods holds each modulus at its digit,
    m_i * W^(d-1-i), and wrap takes each digit in [0, 2m) to [0, m) with one
    masked subtraction of their sum, so wrap(x + y) is (x + y) mod m for
    residues x and y.  Either way wrap(sum(mods) - x) is -x, and unpack
    takes wrapped ints."""
    cols = [list(map(itemgetter(i), pts)) for i in range(len(pts[0]))]
    if reach is None:  # the first column of sorted pts ascends
        reach = max([cols[0][-1] - cols[0][0]] + [max(c) - min(c) for c in cols[1:]])
    k = (3 * max(moduli) if moduli else 2 * reach + 1).bit_length()
    xs = cols[0]
    for col in cols[1:]:
        xs = list(map(add, map(lshift, xs, repeat(k)), col))
    shifts = range(k * (len(cols) - 1), -1, -k)
    half, low_bits = 1 << (k - 1), (1 << k) - 1
    high = sum(half << s for s in shifts)  # the top bit of every digit

    def unpack(zs: Iterable[int]) -> List[IntPoint]:
        zs = [z + high for z in zs]  # makes every digit nonnegative
        return list(zip(*[[(z >> s & low_bits) - half for z in zs] for s in shifts]))

    if not moduli:
        return xs, unpack, pos, []
    mods = [m << s for m, s in zip(moduli, shifts)]
    mp = sum(mods)
    bias = high - mp  # sets a digit's top bit iff it is >= m
    return xs, unpack, (lambda v: v - (mp & ((v + bias & high) >> (k - 1)) * low_bits)), mods


# The mask route runs while the span holds at most this many grid positions
# per point.  A mask test then costs at most about half of a full probe pass
# over the points (measured at n = 1000 and 4000; at 128 the two are equal).
MASK_SPAN_PER_POINT = 64
# Past this many positions a mask test costs more than probing a few points
# first (at 500 positions the mask alone is 1.6x faster, at 8000 2.7x slower).
PROBE_FIRST_SPAN = 1024


def line_spectre(xs: Sequence[int], wrap: Callable[[int], int] = pos,
                 mods: Sequence[int] = ()) -> List[int]:
    """The spectre of the ascending ints ``xs`` of ``pack``, under its
    ``wrap`` and ``mods``: the fast route.  One of z and -z moves min xs onto
    some x, so the candidates are the x - min.  Each is taken plus sum(mods),
    which puts a finite group's digits in [0, 2m), and each that passes comes
    back reduced by wrap, followed by its negative.  On a line that is the
    z >= 0, ascending, then the -z, descending; a z equal to -z comes twice.

    With g the gcd of the differences and of mods, xs is the bit mask M with
    a bit at each position (x - min) / g, and N, M moved by the sums of mods,
    has one at each x + e*m for e in {0, 1, 2}^d.  A candidate z passes iff
    every bit of M has a bit of N z / g places above it or one
    (2 * sum(mods) - z) / g places above it, which is -z / g on a line.  A
    test costs O(span / g) bit operations, so a candidate on a wide mask
    must first pass the probes of a few points, and sets wider than
    MASK_SPAN_PER_POINT positions per point keep the probe loop."""
    lo, hi = xs[0], xs[-1]
    mp = sum(mods)
    zs = list(map(add, xs, repeat(mp - lo)))
    g = math.gcd(*map(sub, xs, repeat(lo)), *mods) or 1
    span = (hi - lo) // g
    if span + 2 * mp // g > MASK_SPAN_PER_POINT * len(xs):
        zs = probe_line(xs, map(wrap, zs), wrap, mods)
    else:
        if span > PROBE_FIRST_SPAN:
            zs = probe_line(xs[-1:] + xs[1:8], map(wrap, zs), wrap, mods, xs)
        bits = bytearray(span // 8 + 1)
        for x in xs:
            k = (x - lo) // g
            bits[k >> 3] |= 1 << (k & 7)
        M = N = int.from_bytes(bits, "little")
        for c in mods:
            N |= (N << c // g) | (N << 2 * c // g)
        N <<= span  # then x + z and x - z are both right shifts
        zs = [wrap(z) for z in zs
              if not M & ~((N >> span + z // g) | (N >> span + (2 * mp - z) // g))]
    return zs + [wrap(mp - z) for z in zs]


def probe_line(xs: Sequence[int], candidates: Iterable[int], wrap: Callable[[int], int] = pos,
               mods: Sequence[int] = (), members: Optional[Iterable[int]] = None) -> List[int]:
    """The candidates z with wrap(x + z) or wrap(x - z) in ``members`` (xs
    when not given) for each x of xs, in order, under ``pack``'s law."""
    member = frozenset(xs if members is None else members)
    mp = sum(mods)
    accepted = []
    for z in candidates:
        zn = wrap(mp - z)
        for x in xs:
            if wrap(x + z) not in member and wrap(x + zn) not in member:
                break
        else:
            accepted.append(z)
    return accepted


def distance_set(A: FiniteSet, x: Optional[Point] = None) -> List[DistValue]:
    """Distances realized inside A, or from the point ``x`` to A.  Sorted,
    without repeats; includes zero whenever x (or any point) sees itself."""
    if x is None:
        grid = Grid.of(A.ctx, A)
        raws = {0}.union(*map(_row_dists(grid, A.ints), range(len(A) - 1)))
    else:
        x = validate_point(A.ctx, x)
        grid = Grid.of(A.ctx, A, [x])
        raws = set(grid.column_dists(grid.to_int(x), list(zip(*grid.ints(A)))))
    return [grid.dist_value(r) for r in sorted(raws)]


def _row_dists(grid: Grid, pts: Sequence[IntPoint]) -> Callable[[int], Iterator[int]]:
    """row(i): the raw distances from pts[i] to the later points, in order."""
    cols = list(zip(*pts))
    return lambda i: grid.column_dists(pts[i], [c[i + 1:] for c in cols])


def center_of_distances(A: FiniteSet) -> List[DistValue]:
    """C(A): distance values realized from every point of A.  Always contains
    zero; sorted ascending.

    In one dimension, x has a partner at distance d(0, z) exactly when x+z
    or x-z is in A, so C(A) is the set of d(0, z) for z in S(A)."""
    if A.ctx.dim == 1:
        return distance_set(spectre(A), zero(A.ctx))
    grid = Grid.of(A.ctx, A)
    pts = A.ints
    cols = list(zip(*pts))
    common = set(grid.column_dists(pts[0], cols))
    for p in pts[1:]:
        if len(common) == 1:
            # Zero is realized from every point, so once the intersection
            # shrinks to {0} no later point can change it.
            break
        common.intersection_update(grid.column_dists(p, cols))
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
    gives the keys of the pairs (i, j) for j > i, in order."""
    first = {}
    for a in range(len(A) - 1):
        for b, k in enumerate(row(a), a + 1):
            if k in first:
                e = A.elements
                c, d = first[k]
                return SetVerdict(False, PairWitness((e[c], e[d]), (e[a], e[b]), value(k)), reason)
            first[k] = (a, b)
    return SetVerdict(True)


def is_net_set(A: FiniteSet) -> SetVerdict:
    """A net-set has at least three elements and no two distinct 2-element
    subsets whose differences agree up to sign.  Net-sets have trivial
    spectre: S(A) = {0}.  A pair x < y of ``pack``'s ints is keyed on
    y - x on a rational space, and on the larger of wrap(y - x) and
    wrap(x - y) on a finite group."""
    if len(A) < 3:
        return SetVerdict(False, reason="a net-set needs at least three elements")
    grid = Grid.of(A.ctx, A)
    xs, unpack, wrap, mods = pack(A.ints, grid.moduli)
    if grid.moduli is None:
        row = lambda i: map(sub, xs[i + 1:], repeat(xs[i]))
    else:
        mp = sum(mods)
        row = lambda i: (max(wrap(mp + y - xs[i]), wrap(mp + xs[i] - y)) for y in xs[i + 1:])
    return _first_shared_pair(A, row, lambda d: grid.to_set(unpack([d])).elements[0],
                              "two pairs share a difference up to sign")


def is_non_sliding(A: FiniteSet) -> SetVerdict:
    """A is non-sliding when every positive distance between its points is
    realized by exactly one unordered pair."""
    grid = Grid.of(A.ctx, A)
    return _first_shared_pair(A, _row_dists(grid, A.ints), grid.dist_value,
                              "two pairs realize the same distance")


def min_positive_distance(A: FiniteSet) -> Optional[DistValue]:
    """Smallest positive distance between two points of A, or None for a
    singleton."""
    if len(A) < 2:
        return None
    grid = Grid.of(A.ctx, A)
    return grid.dist_value(min(map(min, map(_row_dists(grid, A.ints), range(len(A) - 1)))))


# -- constructions ------------------------------------------------------------

def spectre_inflate(B: FiniteSet, x: Point) -> FiniteSet:
    """B together with its translate B + x, forcing {0, x} into the spectre
    of the result."""
    x = validate_point(B.ctx, x)
    if x == zero(B.ctx):
        raise DomainError("the shift must be nonzero")
    return minkowski_sum(B, FiniteSet(B.ctx, [zero(B.ctx), x]))


def _perturbations(dim: int) -> Iterator[Tuple[int, int, int, int]]:
    """Deterministic stream of nonzero vectors with sup norm below eps, each
    given as (j, i, k, m).

    Candidates are eps/2^j along axis i plus eps/2^k along axis m, visited
    by increasing j+k so the stream contains vectors of arbitrarily small
    norm and, for any finite exclusion set, eventually a vector avoiding it.
    The terms (i, j) and (m, k) give the same vector as (m, k) and (i, j), so
    only the first of the two in loop order, (j, i) <= (k, m), is yielded.
    The one vector of norm eps, i == m with j == k == 1, is left out.
    """
    for total in itertools.count(2):
        for j in range(1, total):
            k = total - j
            for i, m in itertools.product(range(dim), repeat=2):
                if (j, i) <= (k, m) and not (i == m and k == 1):
                    yield j, i, k, m


_DENSIFY_SCAN_CAP = 20000
# A bound on the exponents j and k of a capped scan, which visits at most
# _DENSIFY_SCAN_CAP - 1 vectors.  Dim 1 has floor(s/2) vectors with j + k = s
# (less the one dropped at s = 2), and a larger dim has more, so a vector
# with j + k = t has at least floor((t-1)^2 / 4) - 1 before it.  Hence
# (t-1)^2 < 4 * cap, and j, k <= t - 1 <= isqrt(4 * cap) in any dim.
_DENSIFY_DEPTH = math.isqrt(4 * _DENSIFY_SCAN_CAP) + 1


def densify_to_netset(B: FiniteSet, eps: Rat) -> FiniteSet:
    """A net-set within Hausdorff distance eps of B, in a rational space.

    One greedy rule builds it.  A candidate is kept when it is not kept
    already, its differences to the kept points are distinct up to sign, and
    none of them is, up to sign, a difference of two kept points.  Each point
    b of B, in order, is kept if it passes, and otherwise the first passing
    b + v for v in ``_perturbations`` (norm below eps); then, while fewer
    than three points are kept, the first passing first + v is added.

    The candidates lie on the grid of B and eps refined by 2^_DENSIFY_DEPTH
    and run as ``pack``'s ints, with a reach that holds every difference of
    two candidates.  Packing is linear and keeps the order, so a difference
    up to sign is keyed as |c - x|, and a key of 0 means c is kept already.
    """
    if not isinstance(B.ctx, RationalSpace):
        raise DomainError("densification needs a rational-space context")
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    dim = B.ctx.dim
    grid = Grid(B.ctx, math.lcm(B.scale, eps.denominator) << _DENSIFY_DEPTH)
    pts = grid.ints(B)
    e = eps.numerator * (grid.scale // eps.denominator)
    reach = 2 * (max(map(abs, itertools.chain(*pts))) + e)
    xs, unpack, _, _ = pack(pts, None, reach)
    axis = pack([tuple(int(i == m) for m in range(dim)) for i in range(dim)], None, reach)[0]
    kept: List[int] = []
    index = {0}  # |c - y| for kept c != y, and 0, which turns away a kept point

    def keep(x: int) -> None:
        moves = ((e >> j) * axis[i] + (e >> k) * axis[m] for j, i, k, m in _perturbations(dim))
        for v in itertools.islice(itertools.chain([0], moves), _DENSIFY_SCAN_CAP):
            c = x + v
            if not index.isdisjoint(map(abs, map(sub, kept, repeat(c)))):
                continue  # stopped at the first key in the index
            keys = set(map(abs, map(sub, kept, repeat(c))))
            if len(keys) == len(kept):
                index.update(keys)
                kept.append(c)
                return
        raise SpectreKitError("perturbation scan exhausted; this should be unreachable")

    for x in xs:
        keep(x)
    while len(kept) < 3:
        keep(kept[0])
    return grid.to_set(unpack(kept))
