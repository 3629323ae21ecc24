"""Ambient groups: rational coordinate spaces and finite Abelian products.

Two kinds of context are supported.  ``RationalSpace(dim, metric)`` is Q^dim
under coordinatewise addition with a translation-invariant metric, and
``FiniteAbelian(moduli)`` is a product of cyclic groups Z_m with the discrete
torus metric.  Every point is a tuple of ``Rat`` coordinates in both kinds;
finite Abelian coordinates are integer-valued residues reduced into
``[0, m)``.

Distances are exact.  The euclidean metric on rational points generally has
an irrational value, so that choice computes the squared distance instead and
tags the result; tagged and untagged values refuse to be ordered against each
other, which keeps comparisons honest without ever leaving the rationals.

``Grid`` encodes the points of one context as integer tuples and carries the
metric over to them.  A ``FiniteSet`` is stored on a grid, so set-level
kernels read and return integer points; ``Fraction`` points are built only
when a caller asks for them.  The group law runs on one int per point, in
``sets.pack``, whose ``wrap`` reduces residues mod m; a finite group shares
the set kernels through it and the torus terms of ``column_dists``.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, reduce, total_ordering
from numbers import Rational
from operator import add, mod, mul, sub
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import DomainError, GroupMismatchError
from .rational import Point, Rat, shorten

SUP = "sup"
TAXICAB = "taxicab"
EUCLIDEAN_SQUARED = "euclidean-squared"
METRICS = (SUP, TAXICAB, EUCLIDEAN_SQUARED)

_ZERO = Fraction(0)


class Frozen:
    """An immutable value whose fields are its class's annotated names, set
    once by ``__init__`` through ``vars(self)`` (as ``cached_property`` does);
    ``==`` and ``hash`` compare them within one class, and the repr lists them."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class RationalSpace(Frozen):
    """Q^dim with coordinatewise addition and a translation-invariant metric."""

    dim: int
    metric: str

    def __init__(self, dim: int, metric: str = SUP):
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise DomainError(f"dim must be a positive integer, got {shorten(repr(dim))}")
        if metric not in METRICS:
            raise DomainError(f"metric must be one of {METRICS}, got {shorten(repr(metric))}")
        vars(self).update(dim=dim, metric=metric)


class FiniteAbelian(Frozen):
    """Z_{m_1} x ... x Z_{m_k}; elements are residue tuples, distances use the
    discrete torus metric min(|a-b|, m-|a-b|) per coordinate, aggregated by max."""

    moduli: Tuple[int, ...]

    def __init__(self, moduli: Iterable[int]):
        moduli = tuple(moduli)
        if not moduli:
            raise DomainError("moduli must be nonempty")
        for i, m in enumerate(moduli):
            if isinstance(m, bool) or not isinstance(m, int) or m < 2:
                raise DomainError(f"moduli[{i}] must be an integer >= 2, got {shorten(repr(m))}")
        vars(self).update(moduli=moduli)

    @property
    def dim(self) -> int:
        return len(self.moduli)

    def order(self) -> int:
        return math.prod(self.moduli)

    def elements(self) -> List[Point]:
        """All group elements as residue tuples, in lexicographic order."""
        return [tuple(map(Fraction, p)) for p in itertools.product(*map(range, self.moduli))]


GroupCtx = Union[RationalSpace, FiniteAbelian]
IntPoint = Tuple[int, ...]


@total_ordering
class DistValue(Frozen):
    """An exact distance value.  ``squared`` marks values produced by the
    euclidean-squared metric; ordering two values with different tags raises,
    since one would be a distance and the other a squared distance."""

    value: Rat
    squared: bool

    def __init__(self, value: Rat, squared: bool = False):
        vars(self).update(value=value, squared=squared)

    def _compatible(self, other: "DistValue") -> None:
        if not isinstance(other, DistValue):
            raise TypeError(f"cannot compare DistValue with {type(other).__name__}")
        if self.squared != other.squared:
            raise DomainError("cannot order a squared distance against a plain one")

    def __lt__(self, other: "DistValue") -> bool:
        self._compatible(other)
        return self.value < other.value

    def is_zero(self) -> bool:
        return self.value == 0


def zero(ctx: GroupCtx) -> Point:
    return (_ZERO,) * ctx.dim


def require_same_ctx(a: GroupCtx, b: GroupCtx) -> None:
    if a is not b and a != b:  # one shared object, the common case, skips two _key() builds
        raise GroupMismatchError(f"ambient groups differ: {a} vs {b}")


def validate_point(ctx: GroupCtx, p: Point) -> Point:
    """Check that ``p`` belongs to ``ctx`` and return it in canonical form.

    Rational-space points pass through unchanged; finite Abelian points must
    have integer coordinates, which are reduced into ``[0, m)``.
    """
    if not isinstance(p, tuple) or len(p) != ctx.dim:
        raise DomainError(f"expected a {ctx.dim}-coordinate point, got {p!r}")
    coords = tuple(Fraction(c) for c in p)
    if isinstance(ctx, FiniteAbelian):
        reduced = []
        for c, m in zip(coords, ctx.moduli):
            if c.denominator != 1:
                raise DomainError(f"residue coordinates must be integers, got {c}")
            reduced.append(Fraction(c.numerator % m))
        return tuple(reduced)
    return coords


def dist(ctx: GroupCtx, p: Point, q: Point) -> DistValue:
    """Exact distance between two points of ``ctx``."""
    p, q = validate_point(ctx, p), validate_point(ctx, q)
    grid = Grid.of(ctx, (p, q))
    return grid.dist_value(grid.dist(grid.to_int(p), grid.to_int(q)))


def triangle_holds(ab: DistValue, bc: DistValue, ac: DistValue) -> bool:
    """Decide d(a,c) <= d(a,b) + d(b,c) exactly.

    For squared values this is the inequality between square roots, decided
    without leaving the rationals:  sqrt(s) <= sqrt(u) + sqrt(v)  iff
    s - u - v <= 0 or (s - u - v)^2 <= 4uv.
    """
    if not (ab.squared == bc.squared == ac.squared):
        raise DomainError("mixed squared and plain distances")
    if not ab.squared:
        return ac.value <= ab.value + bc.value
    gap = ac.value - ab.value - bc.value
    if gap <= 0:
        return True
    return gap * gap <= 4 * ab.value * bc.value


def subgroup_generated(ctx: FiniteAbelian, x: Point):
    """The cyclic subgroup <x> of a finite Abelian group, as a FiniteSet: the
    multiples k*x mod m for k below the order of x, lcm(m_i / gcd(x_i, m_i))."""
    if not isinstance(ctx, FiniteAbelian):
        raise DomainError("subgroup enumeration needs a finite Abelian context")
    grid = Grid(ctx, 1)
    x = grid.to_int(validate_point(ctx, x))
    order = math.lcm(*(m // math.gcd(c, m) for c, m in zip(x, ctx.moduli)))
    return grid.to_set(tuple(k * c % m for c, m in zip(x, ctx.moduli)) for k in range(order))


# -- the integer grid ---------------------------------------------------------

_INT_METRICS = {
    SUP: lambda p, q: max(map(abs, map(sub, p, q))),
    TAXICAB: lambda p, q: sum(map(abs, map(sub, p, q))),
    EUCLIDEAN_SQUARED: lambda p, q: sum(d * d for d in map(sub, p, q)),
}


def to_grid(p: Sequence[Rat], scale: int) -> Optional[IntPoint]:
    """The coordinates of ``p`` times ``scale`` as integers, or None when one
    of them is not a rational whose denominator divides ``scale``."""
    out = []
    for c in p:
        if not isinstance(c, Rational) or scale % c.denominator:
            return None
        out.append(c.numerator * (scale // c.denominator))
    return tuple(out)


class Grid:
    """The points of one context as integer tuples, with the metric carried
    over to them; the group law on them is ``sets.pack``'s.

    A rational coordinate c becomes c * scale, so ``scale`` must be a multiple
    of every denominator the grid sees; ``Grid.of`` takes the lcm.  Residues
    of a finite Abelian group keep scale 1, and ``moduli`` holds their
    moduli (None on a rational space).  ``dist`` is the context's metric on
    grid points, the torus metric on a finite group, and ``column_dists``
    the same a column at a time.  The raw value is the true distance times
    scale (times scale squared under euclidean-squared), and ``dist_value``
    maps it back.
    """

    def __init__(self, ctx: GroupCtx, scale: int):
        self.ctx = ctx
        self.scale = scale
        if isinstance(ctx, FiniteAbelian):
            ms = self.moduli = ctx.moduli
            self.metric = SUP  # of the per-coordinate torus terms
            # The torus metric: per coordinate the shorter way round, min(r, m - r).
            self.dist = lambda p, q: max(map(min, map(mod, map(sub, p, q), ms),
                                             map(mod, map(sub, q, p), ms)))
        else:
            self.moduli, self.metric = None, ctx.metric
            self.dist = _INT_METRICS[ctx.metric]

    @classmethod
    def of(cls, ctx: GroupCtx, *parts: Union["FiniteSet", Iterable[Point]]) -> "Grid":
        """The coarsest grid of ``ctx`` that holds every part: a FiniteSet is
        read by its scale, a sequence of loose points by their denominators.
        A FiniteSet of another group raises a GroupMismatchError."""
        sets = [part for part in parts if isinstance(part, FiniteSet)]
        for A in sets:
            require_same_ctx(ctx, A.ctx)
        dens = {c.denominator for part in parts if not isinstance(part, FiniteSet)
                for p in part for c in p}
        return cls(ctx, math.lcm(1, *(A.scale for A in sets), *dens))

    def column_dists(self, p: IntPoint, cols: Sequence[Sequence[int]]) -> Iterator[int]:
        """The raw distances from p to the points whose coordinate columns are
        ``cols``, in order, a column at a time; min(|d|, m - |d|) on a torus."""
        parts = [map(sub, col, itertools.repeat(c)) for c, col in zip(p, cols)]
        if self.metric == EUCLIDEAN_SQUARED:
            parts = [map(mul, d, d) for d in map(list, parts)]
        else:
            parts = [map(abs, d) for d in parts]
        if self.moduli is not None:
            parts = [map(min, d, map(sub, itertools.repeat(m), d))
                     for d, m in zip(map(list, parts), self.moduli)]
        combine = max if self.metric == SUP else add
        return reduce(lambda acc, part: map(combine, acc, part), parts)

    def sweep_keys(self, pts: Sequence[IntPoint]) -> List[Tuple[int, IntPoint]]:
        """(first coordinate, point) for the pts, sorted; on a torus each point
        also keyed on the far side of m/2, m away, so that for 0 <= x < m the
        nearest key of p is at p's first torus term from x."""
        keyed = [(p[0], p) for p in pts]
        if self.moduli is not None:
            m = self.moduli[0]
            keyed += [(c + m if 2 * c < m else c - m, p) for c, p in keyed]
        return sorted(keyed)

    def to_int(self, p: Point) -> IntPoint:
        return to_grid(p, self.scale)

    def ints(self, A: "FiniteSet") -> Sequence[IntPoint]:
        """The points of the FiniteSet ``A`` on this grid, in A's order."""
        k = self.scale // A.scale
        return A.ints if k == 1 else [tuple(c * k for c in p) for p in A.ints]

    def dist_value(self, raw: int) -> DistValue:
        if self.metric == EUCLIDEAN_SQUARED:
            return DistValue(Fraction(raw, self.scale * self.scale), squared=True)
        return DistValue(Fraction(raw, self.scale))

    def to_set(self, int_points: Iterable[IntPoint]) -> "FiniteSet":
        """The FiniteSet of points made by this grid's operations (valid by
        construction, so not validated again; on one grid, integer order is
        rational order).  The scale is divided by the gcd of all coordinates.
        Duplicates go in insertion order, so sorted input sorts in linear time."""
        pts = sorted(dict.fromkeys(int_points))
        if not pts:
            raise DomainError("a finite set needs at least one point")
        g = math.gcd(self.scale, *itertools.chain.from_iterable(pts))
        if g > 1:
            pts = [tuple(c // g for c in p) for p in pts]
        A = FiniteSet.__new__(FiniteSet)  # skip __init__: fill the fields directly
        vars(A).update(ctx=self.ctx, scale=self.scale // g, ints=tuple(pts))
        return A


class FiniteSet(Frozen):
    """A nonempty finite subset of an ambient group, stored on an integer grid:
    ``ints`` holds the distinct points p * scale in lexicographic order, and
    ``scale`` is the lcm of the reduced denominators (1 for residues), so
    equal sets have equal fields.  ``FiniteSet(ctx, points)`` validates
    rational points; duplicates collapse silently, and an empty collection is
    rejected since spectres of the empty set are not defined here.
    ``elements`` builds the points back as ``Fraction`` tuples."""

    ctx: GroupCtx
    scale: int
    ints: Tuple[IntPoint, ...]

    def __init__(self, ctx: GroupCtx, points: Iterable[Point]):
        canon = {validate_point(ctx, p) for p in points}
        grid = Grid.of(ctx, canon)
        vars(self).update(vars(grid.to_set(map(grid.to_int, canon))))

    @cached_property
    def elements(self) -> Tuple[Point, ...]:
        s = self.scale
        return tuple(tuple(Fraction(c, s) for c in p) for p in self.ints)

    def __contains__(self, p: Point) -> bool:
        """Whether ``p`` is a point of the set.  A tuple of the wrong length,
        a coordinate off this set's grid, or an unreduced residue is not."""
        if not (isinstance(p, tuple) and len(p) == self.ctx.dim):
            return False
        q = to_grid(p, self.scale)
        return q is not None and self.contains_int(q, self.scale)

    def contains_int(self, q: IntPoint, scale: int) -> bool:
        """Whether the point q / scale, given on any integer grid, is in the set."""
        s, ints = self.scale, self.ints
        if any(c * s % scale for c in q):
            return False
        q = tuple(c * s // scale for c in q)
        i = bisect_left(ints, q)
        return i < len(ints) and ints[i] == q

    def __iter__(self) -> Iterator[Point]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.ints)
