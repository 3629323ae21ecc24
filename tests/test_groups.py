"""Group contexts, exact metrics, and distance-value semantics."""

from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest

import oracles
from spectrekit import (
    DistValue,
    DomainError,
    FiniteAbelian,
    GroupMismatchError,
    RationalSpace,
    dist,
    finite_set,
    negate,
    point,
    subgroup_generated,
    translate,
    zero,
)
from spectrekit.groups import (
    EUCLIDEAN_SQUARED,
    SUP,
    TAXICAB,
    require_same_ctx,
    triangle_holds,
    validate_point,
)
from gen import rand_finab_ctx, rand_finab_set, rand_point, rand_qset


class TestContexts:
    def test_rational_space_defaults_to_sup(self):
        assert RationalSpace(2).metric == SUP

    def test_rational_space_rejects_bad_dim_and_metric(self):
        with pytest.raises(DomainError):
            RationalSpace(0)
        with pytest.raises(DomainError):
            RationalSpace(1, "manhattan-ish")

    def test_finite_abelian_normalizes_moduli(self):
        assert FiniteAbelian([6]).moduli == (6,)

    def test_finite_abelian_rejects_tiny_moduli(self):
        with pytest.raises(DomainError):
            FiniteAbelian((1,))
        with pytest.raises(DomainError):
            FiniteAbelian(())

    def test_finite_abelian_order_and_elements(self):
        ctx = FiniteAbelian((2, 3))
        assert ctx.order() == 6
        elems = ctx.elements()
        assert len(elems) == 6
        assert elems == sorted(elems)
        assert elems[0] == point(0, 0)

    def test_zero_matches_dimension(self):
        assert zero(RationalSpace(2)) == point(0, 0)
        assert zero(FiniteAbelian((5,))) == point(0)


class TestGroupOps:
    def test_validate_point_checks_dimension(self):
        with pytest.raises(DomainError):
            validate_point(RationalSpace(2), point(1))

    def test_validate_point_reduces_residues(self):
        assert validate_point(FiniteAbelian((6,)), point(8)) == point(2)
        assert validate_point(FiniteAbelian((6,)), point(-1)) == point(5)

    def test_validate_point_rejects_fractional_residues(self):
        with pytest.raises(DomainError):
            validate_point(FiniteAbelian((6,)), point("1/2"))

    def test_require_same_ctx(self):
        with pytest.raises(GroupMismatchError):
            require_same_ctx(RationalSpace(1), RationalSpace(2))
        with pytest.raises(GroupMismatchError):
            require_same_ctx(RationalSpace(1), FiniteAbelian((5,)))


class TestDist:
    def test_sup_example(self):
        d = dist(RationalSpace(2), point(0, 0), point("3/8", 1))
        assert d == DistValue(Fraction(1))
        assert not d.squared

    def test_scalar_example(self):
        assert dist(RationalSpace(1), point("7/8"), point("1/8")).value == Fraction(3, 4)

    def test_taxicab(self):
        d = dist(RationalSpace(2, TAXICAB), point(0, 0), point("1/2", "1/3"))
        assert d.value == Fraction(5, 6)

    def test_euclidean_squared_example(self):
        d = dist(RationalSpace(2, EUCLIDEAN_SQUARED), point(0, 1), point(1, 0))
        assert d.value == Fraction(2)
        assert d.squared

    def test_torus_wraps(self):
        ctx = FiniteAbelian((6,))
        assert dist(ctx, point(1), point(5)).value == 2
        assert dist(ctx, point(0), point(3)).value == 3

    def test_torus_two_dimensional(self):
        ctx = FiniteAbelian((4, 6))
        assert dist(ctx, point(0, 0), point(3, 4)).value == 2

    def test_matches_oracle_metrics(self):
        r = random.Random(101)
        for _ in range(200):
            p, q = rand_point(r, 2), rand_point(r, 2)
            assert dist(RationalSpace(2), p, q).value == oracles.sup_dist(p, q)
            assert dist(RationalSpace(2, TAXICAB), p, q).value == oracles.taxicab_dist(p, q)
            assert dist(RationalSpace(2, EUCLIDEAN_SQUARED), p, q).value == oracles.eucl_sq_dist(p, q)

    def test_identity_and_symmetry(self):
        r = random.Random(102)
        for _ in range(100):
            ctx = RationalSpace(r.choice((1, 2)), r.choice((SUP, TAXICAB, EUCLIDEAN_SQUARED)))
            p, q = rand_point(r, ctx.dim), rand_point(r, ctx.dim)
            assert dist(ctx, p, q) == dist(ctx, q, p)
            assert dist(ctx, p, p).value == 0
            assert dist(ctx, p, p).is_zero()
            if p != q:
                assert dist(ctx, p, q).value > 0

    def test_translation_invariance(self):
        def shifted(ctx, p, t):
            return translate(finite_set(ctx, [p]), t).elements[0]

        r = random.Random(103)
        for _ in range(100):
            ctx = RationalSpace(2)
            p, q, t = (rand_point(r, 2) for _ in range(3))
            assert dist(ctx, p, q) == dist(ctx, shifted(ctx, p, t), shifted(ctx, q, t))
        for _ in range(100):
            ctx = rand_finab_ctx(r)
            if ctx.order() < 3:
                continue
            A = rand_finab_set(r, ctx, 3)
            p, q, t = A.elements[0], A.elements[1], A.elements[2]
            assert dist(ctx, p, q) == dist(ctx, shifted(ctx, p, t), shifted(ctx, q, t))

    def test_triangle_inequality_plain_metrics(self):
        r = random.Random(104)
        for _ in range(200):
            metric = r.choice((SUP, TAXICAB))
            ctx = RationalSpace(2, metric)
            a, b, c = (rand_point(r, 2) for _ in range(3))
            assert dist(ctx, a, c).value <= dist(ctx, a, b).value + dist(ctx, b, c).value

    def test_triangle_inequality_euclidean_squared(self):
        r = random.Random(105)
        ctx = RationalSpace(2, EUCLIDEAN_SQUARED)
        for _ in range(200):
            a, b, c = (rand_point(r, 2) for _ in range(3))
            assert triangle_holds(dist(ctx, a, b), dist(ctx, b, c), dist(ctx, a, c))

    def test_triangle_inequality_torus(self):
        r = random.Random(106)
        for _ in range(200):
            ctx = rand_finab_ctx(r)
            if ctx.order() < 3:
                continue
            A = rand_finab_set(r, ctx, 3)
            a, b, c = A.elements
            assert dist(ctx, a, c).value <= dist(ctx, a, b).value + dist(ctx, b, c).value


class TestDistValue:
    def test_comparisons_within_one_kind(self):
        assert DistValue(Fraction(1, 2)) < DistValue(Fraction(3, 4))
        assert DistValue(Fraction(2), squared=True) >= DistValue(Fraction(2), squared=True)

    def test_same_kind_greater_and_at_most(self):
        half, one = DistValue(Fraction(1, 2)), DistValue(Fraction(1))
        assert one > half and not half > one and not one > one
        assert half <= one and one <= one and not one <= half

    def test_cross_kind_comparison_raises(self):
        plain = DistValue(Fraction(1))
        squared = DistValue(Fraction(1), squared=True)
        with pytest.raises(DomainError):
            plain < squared  # noqa: B015
        with pytest.raises(DomainError):
            squared <= plain  # noqa: B015

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_every_order_operator_raises_across_kinds(self, op):
        plain = DistValue(Fraction(1))
        squared = DistValue(Fraction(2), squared=True)
        for a, b in ((plain, squared), (squared, plain)):
            with pytest.raises(DomainError):
                op(a, b)

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_order_against_a_non_distance_raises_type_error(self, op):
        with pytest.raises(TypeError):
            op(DistValue(Fraction(1)), Fraction(1))

    def test_cross_kind_equality_is_false_not_an_error(self):
        assert DistValue(Fraction(1)) != DistValue(Fraction(1), squared=True)

    def test_triangle_holds_rejects_mixed_kinds(self):
        with pytest.raises(DomainError):
            triangle_holds(DistValue(Fraction(1)), DistValue(Fraction(1)),
                           DistValue(Fraction(1), squared=True))

    def test_triangle_holds_square_root_free_boundary(self):
        # sqrt(4) == sqrt(1) + sqrt(1): equality case for squared values.
        assert triangle_holds(DistValue(Fraction(1), squared=True),
                              DistValue(Fraction(1), squared=True),
                              DistValue(Fraction(4), squared=True))
        assert not triangle_holds(DistValue(Fraction(1), squared=True),
                                  DistValue(Fraction(1), squared=True),
                                  DistValue(Fraction(5), squared=True))

    def test_triangle_holds_on_plain_values(self):
        # 1 <= 1/2 + 1/2 holds with equality; 2 > 1/2 + 1 fails.
        half, one, two = (DistValue(Fraction(v)) for v in ("1/2", 1, 2))
        assert triangle_holds(half, half, one)
        assert not triangle_holds(half, one, two)


def _moduli_up_to(order, prefix=()):
    """Every tuple of moduli >= 2 whose product is at most ``order``."""
    for m in range(2, order + 1):
        yield prefix + (m,)
        yield from _moduli_up_to(order // m, prefix + (m,))


SMALL_GROUPS = list(_moduli_up_to(12))


class TestSubgroups:
    def test_generated_subgroup_example(self):
        ctx = FiniteAbelian((12,))
        sub = subgroup_generated(ctx, point(8))
        assert [p[0] for p in sub.elements] == [0, 4, 8]

    def test_generated_subgroup_is_closed(self):
        r = random.Random(107)
        for _ in range(50):
            ctx = rand_finab_ctx(r)
            g = rand_finab_set(r, ctx, 1).elements[0]
            sub = subgroup_generated(ctx, g)
            members = set(sub.elements)
            assert zero(ctx) in members
            for a in members:
                singleton = finite_set(ctx, [a])
                assert negate(singleton).elements[0] in members
                for b in members:
                    assert translate(singleton, b).elements[0] in members

    @pytest.mark.parametrize("moduli", SMALL_GROUPS, ids=lambda ms: "x".join(map(str, ms)))
    def test_generated_subgroup_is_the_multiples(self, moduli):
        # Every element x of every group of order <= 12: <x> is 0, x, x + x,
        # ... up to the first return to 0.
        ctx = FiniteAbelian(moduli)
        for x in ctx.elements():
            want = [zero(ctx)]
            while (nxt := oracles.mod_add(want[-1], x, moduli)) != want[0]:
                want.append(nxt)
            assert list(subgroup_generated(ctx, x).elements) == sorted(want)

    def test_generated_subgroup_requires_finite_ctx(self):
        with pytest.raises(DomainError):
            subgroup_generated(RationalSpace(1), point(1))
