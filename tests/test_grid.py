"""Differential tests for the integer grid behind every set kernel.

Each kernel that computes on ``groups.Grid`` is compared with the naive
``Fraction`` routes in ``oracles.py`` over Q^1, Q^2 under each metric, and
Z_a x Z_b.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

import oracles
from spectrekit import (
    FiniteAbelian,
    RationalSpace,
    difference_set,
    dist,
    finite_set,
    initial_subsums,
    minkowski_sum,
    negate,
    series_spec,
    translate,
)
from spectrekit.groups import EUCLIDEAN_SQUARED, SUP, TAXICAB, Grid

RATIONAL_CTXS = [RationalSpace(1), RationalSpace(2, SUP),
                 RationalSpace(2, TAXICAB), RationalSpace(2, EUCLIDEAN_SQUARED)]

ORACLE_METRICS = {SUP: oracles.sup_dist, TAXICAB: oracles.taxicab_dist,
                  EUCLIDEAN_SQUARED: oracles.eucl_sq_dist}

rats = st.fractions(min_value=-4, max_value=4, max_denominator=16)


@st.composite
def ctxs(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(RATIONAL_CTXS))
    return FiniteAbelian((draw(st.integers(2, 6)), draw(st.integers(2, 6))))


@st.composite
def points_in(draw, ctx, min_size=1, max_size=6):
    if isinstance(ctx, FiniteAbelian):
        coord = [st.integers(0, m - 1).map(Fraction) for m in ctx.moduli]
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


@given(st.integers(1, 2).flatmap(
    lambda d: st.lists(st.tuples(*[rats] * d), min_size=1, max_size=6)))
def test_subset_sums_match_oracle(terms):
    s = series_spec(terms)
    assert elements(initial_subsums(s, s.count)) == oracles.naive_subset_sums(terms)


@given(ctx_with_sets(1))
def test_dist_matches_oracle_metrics(case):
    ctx, pts = case
    distance = oracle_ops(ctx)[3]
    squared = getattr(ctx, "metric", None) == EUCLIDEAN_SQUARED
    for p in pts:
        for q in pts:
            d = dist(ctx, p, q)
            assert (d.value, d.squared) == (distance(p, q), squared)
