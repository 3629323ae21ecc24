"""Seeded random generators shared by the unit and acceptance suites.

All randomness flows through an explicit ``random.Random`` instance, so a
fixed seed reproduces every generated case exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional, Tuple

from spectrekit import (
    FiniteAbelian,
    FiniteSet,
    PSpec,
    RationalSpace,
    SeriesSpec,
    finite_set,
    pspec,
    series_spec,
)

Pt = Tuple[Fraction, ...]


def rand_rat(r: random.Random, lo: int = -4, hi: int = 4,
             max_den: int = 16) -> Fraction:
    den = r.randint(1, max_den)
    return Fraction(r.randint(lo * den, hi * den), den)


def rand_nonneg_rat(r: random.Random, hi: int = 2,
                    max_den: int = 16) -> Fraction:
    den = r.randint(1, max_den)
    return Fraction(r.randint(0, hi * den), den)


def rand_point(r: random.Random, dim: int, **kw) -> Pt:
    return tuple(rand_rat(r, **kw) for _ in range(dim))


def rand_qset(r: random.Random, dim: Optional[int] = None,
              size: Optional[int] = None, max_den: int = 16,
              metric: str = "sup") -> FiniteSet:
    """A random finite set in a 1- or 2-dimensional rational space."""
    if dim is None:
        dim = r.choice((1, 2))
    if size is None:
        size = r.randint(1, 8)
    ctx = RationalSpace(dim, metric)
    pts = set()
    while len(pts) < size:
        pts.add(rand_point(r, dim, max_den=max_den))
    return finite_set(ctx, pts)


WIDE = 4294967291 * 4294967279  # a ~64-bit grid scale


def space_sets(r: random.Random, dim: int, metric: str = "sup",
               rounds: int = 8) -> List[FiniteSet]:
    """Random sets in Q^dim, small enough for the naive oracles: a singleton,
    two points, unions of a set with a translate (nontrivial spectres),
    mirror-symmetric sets, progressions and small lattices along random
    directions, and scattered sets, with negative coordinates and ~64-bit
    grid scales among them."""
    ctx = RationalSpace(dim, metric)

    def vec(dens, span):
        return tuple(Fraction(r.randint(-span * d, span * d), d)
                     for d in (r.choice(dens) for _ in range(dim)))

    def shift(p, t, k=1):
        return tuple(a + k * b for a, b in zip(p, t))

    out = [finite_set(ctx, [vec((1, 3), 5)]),
           finite_set(ctx, [vec((1, WIDE), 5), vec((7, WIDE), 5)])]
    for _ in range(rounds):
        base = [vec((1, 2, 3), 3) for _ in range(r.randint(1, 6))]
        t = vec((1, 2, 3, WIDE), 4)
        out.append(finite_set(ctx, base + [shift(b, t) for b in base]))
        out.append(finite_set(ctx, base + [shift((0,) * dim, b, -1) for b in base]))
        start, u, v = vec((1, 7), 20), vec((1, 5, WIDE), 3), vec((1, 4), 2)
        out.append(finite_set(ctx, [shift(start, u, i) for i in range(r.randint(2, 12))]))
        out.append(finite_set(ctx, [shift(shift(start, u, i), v, j)
                                    for i in range(r.randint(1, 4)) for j in range(3)]))
        out.append(finite_set(ctx, [vec((1, 97, WIDE), 10 ** 6)
                                    for _ in range(r.randint(1, 10))]))
        out.append(finite_set(ctx, [vec((1, 2), 2) for _ in range(r.randint(1, 12))]))
    return out


def rand_unit_qset(r: random.Random, size: int) -> FiniteSet:
    """A random finite subset of [0, 1] in one dimension."""
    ctx = RationalSpace(1)
    pts = set()
    while len(pts) < size:
        den = r.randint(1, 16)
        pts.add((Fraction(r.randint(0, den), den),))
    return finite_set(ctx, pts)


def rand_finab_ctx(r: random.Random) -> FiniteAbelian:
    if r.random() < 0.5:
        return FiniteAbelian((r.randint(2, 16),))
    return FiniteAbelian((r.randint(2, 6), r.randint(2, 6)))


def rand_finab_set(r: random.Random, ctx: FiniteAbelian,
                   size: Optional[int] = None) -> FiniteSet:
    order = ctx.order()
    if size is None:
        size = r.randint(1, min(8, order))
    chosen = r.sample(range(order), size)
    elements = ctx.elements()
    return finite_set(ctx, [elements[i] for i in chosen])


def rand_series(r: random.Random, max_terms: int = 12, dim: int = 1,
                with_runs: bool = False, max_den: int = 16) -> SeriesSpec:
    """A random nonnegative series, optionally with forced equal-term runs."""
    count = r.randint(1, max_terms)
    terms: List[Pt] = []
    while len(terms) < count:
        t = tuple(rand_nonneg_rat(r, max_den=max_den) for _ in range(dim))
        if with_runs and r.random() < 0.4:
            run = r.choice((3, 5))
            terms.extend([t] * min(run, count - len(terms)))
        else:
            terms.append(t)
    return series_spec(terms[:count] if dim > 1 else [t[0] for t in terms[:count]],
                       dim=dim)


def rand_noninc_series(r: random.Random, max_terms: int = 16,
                       max_den: int = 16) -> SeriesSpec:
    """A random nonincreasing nonnegative scalar series."""
    count = r.randint(1, max_terms)
    vals = sorted((rand_nonneg_rat(r, max_den=max_den) for _ in range(count)),
                  reverse=True)
    return series_spec(vals)


def rand_pspec(r: random.Random, max_coeffs: int = 3,
               max_terms: int = 5) -> PSpec:
    coeffs = {Fraction(0)}
    while len(coeffs) < r.randint(2, max_coeffs):
        coeffs.add(Fraction(r.randint(1, 8), r.randint(1, 4)))
    terms = [Fraction(r.randint(1, 8), r.randint(1, 8))
             for _ in range(r.randint(1, max_terms))]
    return pspec(sorted(coeffs), terms)
