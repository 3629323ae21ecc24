"""Differential tests for the integer grid behind every set kernel.

Each kernel that computes on ``groups.Grid`` is compared with the naive
``Fraction`` routes in ``oracles.py`` over Q^1, Q^2 under each metric, Q^3
under the taxicab metric, Z_a and Z_a x Z_b.  Rational points are drawn
near the origin or, with a small span, near +-10^30, where a sum reaches
far past the span of its summands.  A FiniteSet stores its points
on a grid, so its equality, hashing, membership and encoding are compared
with the same questions asked of its ``Fraction`` points.  A SeriesSpec is
stored the same way, and its achievement set shares its scale.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spectrekit import (
    DomainError,
    FiniteAbelian,
    RationalSpace,
    achievement_set,
    achievement_set_2d,
    dist,
    finite_set,
    format_rat,
    initial_subsums,
    minkowski_sum,
    negate,
    psum_set,
    rect_gaps,
    series_spec,
    translate,
)
from gen import difference_set
from spectrekit.formats import encode_set
from spectrekit.groups import EUCLIDEAN_SQUARED, SUP, TAXICAB, Grid
from spectrekit.planar import is_rect_gap

RATIONAL_CTXS = [RationalSpace(1), RationalSpace(2, SUP),
                 RationalSpace(2, TAXICAB), RationalSpace(2, EUCLIDEAN_SQUARED),
                 RationalSpace(3, TAXICAB)]

ORACLE_METRICS = {SUP: oracles.sup_dist, TAXICAB: oracles.taxicab_dist,
                  EUCLIDEAN_SQUARED: oracles.eucl_sq_dist}

rats = st.fractions(min_value=-4, max_value=4, max_denominator=16)


@st.composite
def ctxs(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(RATIONAL_CTXS))
    return FiniteAbelian(tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=2))))


@st.composite
def far_points(draw, dim, min_size=1, max_size=6):
    """Points of span at most 8 whose coordinates lie near +-10^30: a kernel
    that packs their sums with a digit width fitted to the span reads them
    back wrong."""
    center = [draw(st.sampled_from((-1, 1))) * 10 ** 30 + draw(st.integers(-5, 5))
              for _ in range(dim)]
    offsets = draw(st.lists(st.tuples(*[rats] * dim), min_size=min_size, max_size=max_size))
    return [tuple(c + o for c, o in zip(center, p)) for p in offsets]


@st.composite
def points_in(draw, ctx, min_size=1, max_size=6):
    if isinstance(ctx, FiniteAbelian):
        coord = [st.integers(0, m - 1).map(Fraction) for m in ctx.moduli]
    elif draw(st.booleans()):
        return draw(far_points(ctx.dim, min_size, max_size))
    else:
        coord = [rats] * ctx.dim
    return draw(st.lists(st.tuples(*coord), min_size=min_size, max_size=max_size))


@st.composite
def ctx_with_sets(draw, count):
    ctx = draw(ctxs())
    return (ctx,) + tuple(draw(points_in(ctx)) for _ in range(count))


def oracle_ops(ctx):
    """(add, sub, neg, distance) on Fraction tuples for ``ctx``."""
    if isinstance(ctx, FiniteAbelian):
        m = ctx.moduli
        return (lambda p, q: oracles.mod_add(p, q, m),
                lambda p, q: oracles.mod_sub(p, q, m),
                lambda p: oracles.mod_neg(p, m),
                lambda p, q: oracles.torus_dist(p, q, m))
    return oracles.q_add, oracles.q_sub, oracles.q_neg, ORACLE_METRICS[ctx.metric]


def elements(A):
    return [tuple(p) for p in A.elements]


@given(ctx_with_sets(1))
def test_to_set_equals_finite_set(case):
    ctx, pts = case
    grid = Grid.of(ctx, pts)
    assert grid.to_set(grid.to_int(p) for p in pts) == finite_set(ctx, pts)


@given(ctx_with_sets(2))
def test_set_arithmetic_matches_oracles(case):
    ctx, pa, pb = case
    add, sub, neg, _ = oracle_ops(ctx)
    A, B = finite_set(ctx, pa), finite_set(ctx, pb)
    assert elements(minkowski_sum(A, B)) == sorted({add(p, q) for p in A for q in B})
    assert elements(difference_set(A)) == sorted({sub(p, q) for p in A for q in A})
    assert elements(negate(A)) == sorted({neg(p) for p in A})
    t = B.elements[0]
    assert elements(translate(A, t)) == sorted({add(p, t) for p in A})


@given(st.integers(1, 3).flatmap(
    lambda d: st.lists(st.tuples(*[rats] * d), min_size=1, max_size=6) | far_points(d)),
    st.lists(st.fractions(0, 3, max_denominator=4), max_size=2))
def test_subset_sums_match_oracle(terms, menu):
    s = series_spec(terms)
    assert elements(initial_subsums(s, s.count)) == oracles.naive_subset_sums(terms)
    if s.dim == 1:
        ts = [abs(t) for (t,) in terms]  # P-sums take nonnegative terms
        P = sorted({Fraction(0), *menu})
        assert [x for (x,) in psum_set(series_spec(ts, coeffs=P)).elements] == \
            oracles.naive_psum(P, ts)


@given(ctx_with_sets(1))
def test_dist_matches_oracle_metrics(case):
    ctx, pts = case
    distance = oracle_ops(ctx)[3]
    squared = getattr(ctx, "metric", None) == EUCLIDEAN_SQUARED
    for p in pts:
        for q in pts:
            d = dist(ctx, p, q)
            assert (d.value, d.squared) == (distance(p, q), squared)


# -- the stored grid ----------------------------------------------------------

def assert_canonical(got, want):
    """``got`` equals ``want`` field by field and hashes alike, and its scale
    is the lcm of the reduced denominators of its points."""
    assert got == want and hash(got) == hash(want)
    assert got.scale == math.lcm(1, *(c.denominator for p in got.elements for c in p))


@given(ctx_with_sets(2))
def test_joint_grid_results_equal_finite_set_of_their_points(case):
    ctx, pa, pb = case
    add, sub, _, _ = oracle_ops(ctx)
    A, B = finite_set(ctx, pa), finite_set(ctx, pb)
    t = B.elements[-1]
    assert_canonical(minkowski_sum(A, B), finite_set(ctx, [add(p, q) for p in pa for q in pb]))
    assert_canonical(translate(A, t), finite_set(ctx, [add(p, t) for p in pa]))
    assert_canonical(difference_set(A), finite_set(ctx, [sub(p, q) for p in pa for q in pa]))


def test_scale_shrinks_when_denominators_cancel():
    Q1 = RationalSpace(1)
    half = finite_set(Q1, [(Fraction(1, 2),), (Fraction(3, 2),)])
    total = minkowski_sum(half, half)
    assert (total.scale, total.ints) == (1, ((1,), (2,), (3,)))
    assert_canonical(total, finite_set(Q1, [(1,), (2,), (3,)]))


def test_a_grid_holds_a_set_only_at_a_multiple_of_its_scale():
    # A = {0, 1/2, 3/2} has scale 2: on the grids of scale 1 and 3 some of
    # its points fall between grid points.
    Q1 = RationalSpace(1)
    A = finite_set(Q1, [(0,), (Fraction(1, 2),), (Fraction(3, 2),)])
    for scale in (1, 3):
        with pytest.raises(DomainError,
                           match=f"^a grid of scale {scale} cannot hold a set of scale 2$"):
            Grid(Q1, scale).ints(A)
    assert list(Grid(Q1, 6).ints(A)) == [(0,), (3,), (9,)]


def test_equal_series_have_equal_fields():
    s, t = series_spec(["1/2", "2/4"]), series_spec(["1/2", "1/2"])
    assert s == t and hash(s) == hash(t)
    assert (s.scale, s.ints) == (2, ((1,), (1,)))
    assert series_spec([("3/6", "0")]) == series_spec([("1/2", "0/5")])
    assert series_spec([], dim=2) != series_spec([])


series_terms = st.integers(1, 2).flatmap(
    lambda d: st.lists(st.tuples(*[rats] * d), max_size=6))
nonneg_terms = st.integers(1, 2).flatmap(lambda d: st.lists(
    st.tuples(*[st.just(Fraction(0)) | st.fractions(0, 2, max_denominator=16)] * d),
    max_size=8))


@given(series_terms)
def test_series_terms_round_trip(terms):
    s = series_spec(terms)
    assert s.terms == tuple(tuple(Fraction(c) for c in t) for t in terms)
    assert series_spec(s.terms, dim=s.dim) == s
    assert s.scale == math.lcm(1, *(c.denominator for t in terms for c in t))


@given(nonneg_terms)
def test_achievement_set_has_the_series_scale(terms):
    s = series_spec(terms)
    E = achievement_set(s)
    assert E.scale == s.scale
    assert elements(E) == oracles.naive_subset_sums(terms)


@st.composite
def membership_probes(draw, ctx, A):
    """Points of A, other points of the context, points off A's grid,
    tuples of the wrong length, plain-int coordinates and, on a finite
    group, residues outside [0, m)."""
    probes = list(A.elements) + draw(points_in(ctx))
    p = draw(st.sampled_from(A.elements))
    probes += [p + (Fraction(0),), p[:-1], tuple(int(c) for c in p),
               tuple(draw(st.integers(-3, 3)) for _ in p)]
    if isinstance(ctx, FiniteAbelian):
        probes += [tuple(c + m for c, m in zip(p, ctx.moduli)),
                   tuple(c - m for c, m in zip(p, ctx.moduli))]
    else:
        probes.append(tuple(c + Fraction(1, 3 * A.scale) for c in p))
    return probes


@given(ctx_with_sets(1), st.data())
def test_membership_agrees_with_the_rational_points(case, data):
    ctx, pts = case
    A = finite_set(ctx, pts)
    if data.draw(st.booleans()):
        A = difference_set(A)
    members = frozenset(A.elements)
    for q in data.draw(membership_probes(ctx, A)):
        assert (q in A) == (q in members), q


@given(ctx_with_sets(1), st.data())
def test_contains_int_agrees_with_the_rational_points(case, data):
    ctx, pts = case
    A = difference_set(finite_set(ctx, pts))
    members = frozenset(A.elements)
    for q in data.draw(membership_probes(ctx, A)):
        if len(q) == ctx.dim:
            scale = math.lcm(*(Fraction(c).denominator for c in q)) * data.draw(st.integers(1, 5))
            ints = tuple(int(Fraction(c) * scale) for c in q)
            assert A.contains_int(ints, scale) == (q in members), (q, scale)


@given(ctx_with_sets(2))
def test_encode_set_matches_format_rat(case):
    ctx, pa, pb = case
    for A in (finite_set(ctx, pa), minkowski_sum(finite_set(ctx, pa), finite_set(ctx, pb))):
        assert encode_set(A)["points"] == [[format_rat(c) for c in p] for p in A.elements]


def fraction_rect_sweep(points):
    """Rectangular gaps (a, b, c, d) by the lexicographic sweep on Fraction
    points, ordered by (a, c, b, d): for each lower corner p, every later
    point above and right of p that lowers the least y seen so far."""
    pts = sorted(points)
    found = []
    for p in pts:
        ax, ay = p
        min_y = None
        for q in pts:
            if q == p or q[0] < ax or q[1] < ay:
                continue
            if min_y is None or q[1] < min_y:
                if q[0] > ax and q[1] > ay:
                    found.append((ax, q[0], ay, q[1]))
                min_y = q[1]
    return sorted(found, key=lambda g: (g[0], g[2], g[1], g[3]))


nonneg_rats = st.fractions(min_value=0, max_value=2, max_denominator=8)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(nonneg_rats, nonneg_rats), min_size=1, max_size=6), st.data())
def test_rect_gaps_match_the_fraction_sweep_and_the_definition(terms, data):
    E = achievement_set_2d(series_spec(terms))
    pts = E.elements
    got = [(g.a, g.b, g.c, g.d) for g in rect_gaps(E)]
    assert got == fraction_rect_sweep(pts)
    assert sorted(got) == oracles.naive_rect_gaps(pts)
    areas = [(b - a) * (d - c) for a, b, c, d in got]
    assert [(g.a, g.b, g.c, g.d) for g in rect_gaps(E, mode="largest-by-area")] == \
        [g for g, area in zip(got, areas) if area == max(areas)]
    for a, b, c, d in got:
        assert is_rect_gap(E, a, b, c, d)
    xs = sorted({p[0] for p in pts}) + [Fraction(1, 17)]
    ys = sorted({p[1] for p in pts}) + [Fraction(1, 17)]
    for _ in range(20):
        a, b = data.draw(st.sampled_from(xs)), data.draw(st.sampled_from(xs))
        c, d = data.draw(st.sampled_from(ys)), data.draw(st.sampled_from(ys))
        assert is_rect_gap(E, a, b, c, d) == oracles.naive_rect_gap_ok(pts, a, b, c, d)
