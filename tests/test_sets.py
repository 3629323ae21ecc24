"""Finite sets, spectres, centers of distances, and structural checkers."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import partial

import pytest

import oracles
from spectrekit import (
    DistValue,
    DomainError,
    FiniteAbelian,
    FiniteSet,
    GroupMismatchError,
    RationalSpace,
    center_of_distances,
    densify_to_netset,
    difference_set,
    dist,
    distance_set,
    finite_set,
    hausdorff,
    is_net_set,
    is_non_sliding,
    min_positive_distance,
    minkowski_sum,
    negate,
    point,
    spectre,
    spectre_inflate,
    translate,
    zero,
)
from gen import WIDE, rand_finab_ctx, rand_finab_set, rand_point, rand_qset, space_sets
from spectrekit import sets
from spectrekit.groups import METRICS
from spectrekit.sets import MASK_SPAN_PER_POINT, PROBE_FIRST_SPAN, _perturbations

Q1 = RationalSpace(1)
Q2 = RationalSpace(2)


def qset(*values) -> "FiniteSet":
    return finite_set(Q1, [point(v) for v in values])


def scalars(A) -> list:
    return [p[0] for p in A.elements]


def line_sets(r, metric="sup", rounds=12):
    """One-dimensional sets on both sides of the mask threshold: one and two
    points, arithmetic progressions (whole, and with one point nudged off),
    dyadic achievement sets, a set with its mirror image, and random sets in
    narrow and wide spans, with negative coordinates and ~64-bit scales."""
    ctx = RationalSpace(1, metric)

    def make(values):
        return finite_set(ctx, [(v,) for v in values])

    out = [make([Fraction(-3, 7)]), make([Fraction(-1, WIDE), Fraction(5, 3)]),
           make([Fraction(-2), Fraction(2)])]
    for _ in range(rounds):
        start = Fraction(r.randint(-50, 50), r.choice((1, 3, 4294967291)))
        step = Fraction(r.randint(1, 9), r.choice((1, 7, 4294967279)))
        ap = [start + i * step for i in range(r.randint(2, 30))]
        out.append(make(ap))
        out.append(make(ap + [ap[-1] + step / r.choice((3, 1000))]))
        terms = [step / 2 ** k for k in range(r.randint(1, 5))]
        out.append(make(start + sum(t for t, b in zip(terms, bits) if b)
                        for bits in itertools.product((0, 1), repeat=len(terms))))
        half = {Fraction(r.randint(0, 200), 8) for _ in range(r.randint(1, 12))}
        out.append(make(half | {-v for v in half}))
        out.append(make(Fraction(r.randint(-60, 60), 4) for _ in range(r.randint(1, 30))))
        out.append(make(Fraction(r.randint(-10 ** 6, 10 ** 6), r.choice((1, 97, WIDE)))
                        for _ in range(r.randint(1, 12))))
    return out


METRIC_DISTS = (("sup", oracles.sup_dist), ("taxicab", oracles.taxicab_dist),
                ("euclidean-squared", oracles.eucl_sq_dist))


# (MASK_SPAN_PER_POINT, PROBE_FIRST_SPAN) forcing each route of line_spectre:
# every candidate through the probe loop, the mask alone, and probes of a
# few points before the mask.
FORCED_ROUTES = ((0, PROBE_FIRST_SPAN), (10 ** 9, 10 ** 9), (10 ** 9, 0))


def forced_spectres(A, monkeypatch) -> list:
    """The fast spectre of A on each of FORCED_ROUTES, each checked to equal
    its negative: line_spectre returns every z that passes with -z."""
    out = []
    for mask_span, probe_first in FORCED_ROUTES:
        monkeypatch.setattr(sets, "MASK_SPAN_PER_POINT", mask_span)
        monkeypatch.setattr(sets, "PROBE_FIRST_SPAN", probe_first)
        out.append(spectre(A))
        assert negate(out[-1]) == out[-1], A
    monkeypatch.undo()
    return out


def takes_mask(A) -> bool:
    """Whether the fast spectre of the rational set A takes the mask route."""
    xs = sets.pack(A.ints)[0]
    g = math.gcd(*(x - xs[0] for x in xs)) or 1
    return xs[-1] - xs[0] <= MASK_SPAN_PER_POINT * g * len(xs)


class TestFiniteSet:
    def test_finite_set_is_the_constructor(self):
        assert finite_set is FiniteSet

    def test_canonical_order_and_dedup(self):
        A = finite_set(Q1, [point(1), point(0), point(1)])
        assert scalars(A) == [0, 1]

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            finite_set(Q1, [])

    def test_validates_dimensions(self):
        with pytest.raises(DomainError):
            finite_set(Q2, [point(1)])

    def test_reduces_modular_points(self):
        A = finite_set(FiniteAbelian((6,)), [point(7), point(1)])
        assert scalars(A) == [1]

    def test_membership_and_iteration(self):
        A = qset(0, "1/2")
        assert point("1/2") in A
        assert point("1/3") not in A
        assert list(A) == [point(0), point("1/2")]
        assert len(A) == 2

    def test_translate_and_negate(self):
        A = qset(0, 1)
        assert scalars(translate(A, point("1/2"))) == [Fraction(1, 2), Fraction(3, 2)]
        assert scalars(negate(A)) == [-1, 0]

    def test_minkowski_sum_examples(self):
        assert scalars(minkowski_sum(qset(0, 1), qset(0, "1/4"))) == \
            [0, Fraction(1, 4), 1, Fraction(5, 4)]
        B = qset(0)
        assert minkowski_sum(B, qset(0, 1)) == qset(0, 1)

    def test_minkowski_sum_requires_matching_ctx(self):
        with pytest.raises(GroupMismatchError):
            minkowski_sum(qset(0), finite_set(Q2, [point(0, 0)]))

    def test_difference_set_examples(self):
        assert scalars(difference_set(qset(0, 1))) == [-1, 0, 1]
        assert scalars(difference_set(qset(0, "1/2", 1))) == \
            [-1, Fraction(-1, 2), 0, Fraction(1, 2), 1]


class TestSpectre:
    def test_symmetric_three_point_set_is_its_own_spectre(self):
        A = qset(-1, 0, 1)
        for mode in ("fast", "oracle"):
            assert spectre(A, mode=mode) == A

    def test_singleton(self):
        assert scalars(spectre(qset(0))) == [0]
        assert scalars(spectre(qset("7/3"))) == [0]

    def test_slightly_stretched_arithmetic_progression_is_trivial(self):
        A = qset(0, 1, "21/10")
        assert scalars(spectre(A)) == [0]
        assert scalars(spectre(A, mode="oracle")) == [0]

    def test_arithmetic_progression(self):
        assert scalars(spectre(qset(0, 1, 2))) == [-1, 0, 1]

    def test_modular_subgroup_is_fixed(self):
        ctx = FiniteAbelian((6,))
        Z = finite_set(ctx, [point(0), point(2), point(4)])
        assert spectre(Z, mode="fast") == Z
        assert spectre(Z, mode="oracle") == Z

    def test_modular_example_grows(self):
        ctx = FiniteAbelian((6,))
        A = finite_set(ctx, [point(0), point(2)])
        assert scalars(spectre(A)) == [0, 2, 4]

    def test_rejects_unknown_mode(self):
        with pytest.raises(DomainError):
            spectre(qset(0), mode="psychic")

    def test_fast_equals_oracle_equals_naive_rational(self):
        r = random.Random(201)
        for _ in range(150):
            A = rand_qset(r)
            fast = spectre(A, mode="fast")
            assert fast == spectre(A, mode="oracle")
            assert [tuple(p) for p in fast.elements] == oracles.naive_spectre_q(A.elements)

    def test_line_routes_agree_with_the_oracle_and_naive(self, monkeypatch):
        # Every route must give the same spectre: the natural fast route, each
        # of FORCED_ROUTES for every set, the oracle's scan of A - A, and the
        # naive scan.
        r = random.Random(218)
        routes = set()
        for A in line_sets(r):
            routes.add(takes_mask(A))
            fast = spectre(A)
            assert list(fast.elements) == oracles.naive_spectre_q(A.elements)
            assert spectre(A, mode="oracle") == fast
            assert forced_spectres(A, monkeypatch) == [fast] * len(FORCED_ROUTES)
        assert routes == {True, False}

    @pytest.mark.parametrize("dim", [2, 3])
    def test_packed_routes_agree_with_the_oracle_and_naive(self, monkeypatch, dim):
        # In d >= 2 the points are packed into ints: the same checks as on a
        # line, on sets whose packed ints reach past 128 bits.
        r = random.Random(220 + dim)
        routes, widest = set(), 0
        for A in space_sets(r, dim, r.choice(METRICS)):
            routes.add(takes_mask(A))
            widest = max(widest, max(abs(x) for x in sets.pack(A.ints)[0]).bit_length())
            fast = spectre(A)
            assert list(fast.elements) == oracles.naive_spectre_q(A.elements)
            assert spectre(A, mode="oracle") == fast
            assert forced_spectres(A, monkeypatch) == [fast] * len(FORCED_ROUTES)
        assert routes == {True, False} and widest > 128

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_pack_keeps_order_and_differences(self, dim):
        r = random.Random(223 + dim)
        for A in space_sets(r, max(dim, 2), rounds=3) if dim > 1 else line_sets(r, rounds=3):
            xs, unpack, _, _ = sets.pack(A.ints)
            assert xs == sorted(xs) and len(set(xs)) == len(xs)
            for (i, p), (j, q) in itertools.combinations(enumerate(A.ints), 2):
                d = tuple(a - b for a, b in zip(q, p))
                assert unpack([xs[j] - xs[i], xs[i] - xs[j]]) == [d, tuple(-c for c in d)]

    def test_fast_equals_oracle_equals_naive_modular(self):
        r = random.Random(202)
        for _ in range(100):
            ctx = rand_finab_ctx(r)
            A = rand_finab_set(r, ctx)
            fast = spectre(A, mode="fast")
            assert fast == spectre(A, mode="oracle")
            assert [tuple(p) for p in fast.elements] == \
                oracles.naive_spectre_mod(A.elements, ctx.moduli)

    @pytest.mark.parametrize("moduli", [(2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2),
                                        (2, 3), (2, 4), (2, 2, 2), (3, 2), (4, 2), (9,),
                                        (3, 3), (10,), (2, 5), (5, 2)])
    def test_every_subset_of_small_groups_matches_oracle_and_naive(self, moduli, monkeypatch):
        # Every nonempty subset of every product of cyclic groups of order at
        # most 10, so every case with z = -z != 0: the fast route tests one of
        # z and -z and returns both.  Each of FORCED_ROUTES is taken, and a
        # cyclic center is read off the spectre.
        ctx = FiniteAbelian(moduli)
        group = [point(*c) for c in itertools.product(*(range(m) for m in moduli))]
        dist_fn = partial(oracles.torus_dist, moduli=moduli)
        for mask in range(1, 1 << len(group)):
            A = finite_set(ctx, [g for i, g in enumerate(group) if mask >> i & 1])
            want = oracles.naive_spectre_mod(A.elements, moduli)
            assert list(spectre(A, mode="oracle").elements) == want
            for S in forced_spectres(A, monkeypatch):
                assert list(S.elements) == want
            if len(moduli) == 1:
                assert [d.value for d in center_of_distances(A)] == \
                    oracles.naive_center(A.elements, dist_fn)

    @pytest.mark.parametrize("moduli", [(2, 7), (3, 7), (2, 13, 2)])
    def test_wide_coordinates_pack_without_collisions(self, moduli, monkeypatch):
        # A packed digit of x + z runs over [0, 2m - 1) before it is reduced:
        # a wide coordinate after the first must not carry into its
        # neighbour, on either route.
        r = random.Random(sum(moduli))
        ctx = FiniteAbelian(moduli)
        for _ in range(30):
            A = rand_finab_set(r, ctx, r.randint(1, ctx.order()))
            want = oracles.naive_spectre_mod(A.elements, moduli)
            for S in forced_spectres(A, monkeypatch):
                assert list(S.elements) == want
            assert list(spectre(A, mode="oracle").elements) == want

    @pytest.mark.parametrize("moduli, n", [((4,) * 7, 300), ((3,) * 6, 200), ((2,) * 10, 150),
                                           ((5, 2, 7), 40)])
    def test_high_rank_groups_match_naive(self, moduli, n):
        # Rank 3 to 10 with up to 300 points, where a point has 2^k
        # to 3^k translates by multiples of the moduli: no kernel may build
        # them.  A is B together with B + h for h of order 2, so h is in S(A).
        r = random.Random(len(moduli) * 100 + n)
        ctx = FiniteAbelian(moduli)
        B = rand_finab_set(r, ctx, n // 2)
        h = point(*(m // 2 if m % 2 == 0 else 0 for m in moduli))
        A = minkowski_sum(B, finite_set(ctx, [zero(ctx), h]))
        want = oracles.naive_spectre_mod(A.elements, moduli)
        assert h in want and list(spectre(A).elements) == want
        other = rand_finab_set(r, ctx, n // 2)
        dist_fn = partial(oracles.torus_dist, moduli=moduli)
        want = oracles.naive_hausdorff(A.elements, other.elements, dist_fn)
        assert hausdorff(A, other).value == want
        small = rand_finab_set(r, ctx, 40)
        assert [d.value for d in center_of_distances(small)] == \
            oracles.naive_center(small.elements, dist_fn)

    def test_a_point_of_a_rank_21_group(self):
        # 2^21 elements and as many translates of the point by moduli.
        ctx = FiniteAbelian((2,) * 21)
        A = finite_set(ctx, [point(*[1] * 21)])
        assert spectre(A) == finite_set(ctx, [zero(ctx)])
        assert hausdorff(A, A).value == 0
        assert [d.value for d in center_of_distances(A)] == [0]

    def test_contains_zero_and_is_symmetric(self):
        r = random.Random(203)
        for _ in range(100):
            A = rand_qset(r)
            S = spectre(A)
            assert zero(A.ctx) in S
            assert negate(S) == S

    def test_translation_invariant(self):
        r = random.Random(204)
        for _ in range(100):
            A = rand_qset(r)
            t = rand_point(r, A.ctx.dim)
            assert spectre(translate(A, t)) == spectre(A)

    def test_zero_in_set_bounds_spectre_by_symmetrized_set(self):
        r = random.Random(205)
        found = 0
        while found < 100:
            A = rand_qset(r)
            if zero(A.ctx) not in A:
                A = translate(A, tuple(-c for c in A.elements[0]))
            found += 1
            allowed = set(A.elements) | set(negate(A).elements)
            assert set(spectre(A).elements) <= allowed

    def test_spectre_lands_inside_doubled_ball(self):
        r = random.Random(206)
        for _ in range(100):
            A = rand_qset(r, metric="sup")
            centre = A.elements[0]
            radius = max(dist(A.ctx, centre, a).value for a in A.elements)
            origin = zero(A.ctx)
            for z in spectre(A).elements:
                assert dist(A.ctx, origin, z).value <= 2 * radius

    def test_common_spectre_of_parts_lies_in_spectre_of_union(self):
        r = random.Random(207)
        for _ in range(60):
            dim = r.choice((1, 2))
            parts = [rand_qset(r, dim=dim, size=r.randint(1, 4)) for _ in range(r.randint(2, 3))]
            union = finite_set(parts[0].ctx, [p for part in parts for p in part.elements])
            common = set(spectre(parts[0]).elements)
            for part in parts[1:]:
                common &= set(spectre(part).elements)
            assert common <= set(spectre(union).elements)


class TestCenterOfDistances:
    def test_three_point_example(self):
        vals = [d.value for d in center_of_distances(qset(0, "1/2", 1))]
        assert vals == [0, Fraction(1, 2)]

    def test_grid_example(self):
        A = qset(*[Fraction(k, 8) for k in range(8)])
        vals = [d.value for d in center_of_distances(A)]
        assert vals == [Fraction(k, 8) for k in range(5)]

    def test_matches_naive_center(self):
        r = random.Random(208)
        for _ in range(100):
            A = rand_qset(r, dim=1)
            got = [d.value for d in center_of_distances(A)]
            assert got == oracles.naive_center(A.elements, oracles.sup_dist)
        # Under every metric, on sets that reach both routes of the spectre
        # that a line's center is read off.
        routes = set()
        for metric, dist_fn in (("sup", oracles.sup_dist), ("taxicab", oracles.taxicab_dist),
                                ("euclidean-squared", oracles.eucl_sq_dist)):
            for A in line_sets(r, metric, rounds=4):
                routes.add(takes_mask(A))
                got = center_of_distances(A)
                assert all(d.squared == (metric == "euclidean-squared") for d in got)
                assert [d.value for d in got] == oracles.naive_center(A.elements, dist_fn)
        assert routes == {True, False}

    def test_torus_center_matches_naive(self):
        r = random.Random(209)
        for _ in range(60):
            ctx = rand_finab_ctx(r)
            A = rand_finab_set(r, ctx)
            got = [d.value for d in center_of_distances(A)]
            want = oracles.naive_center(
                A.elements, lambda p, q: oracles.torus_dist(p, q, ctx.moduli))
            assert got == want

    def test_distance_set_examples(self):
        A = qset(0, "1/2", 1)
        assert [d.value for d in distance_set(A, point("1/2"))] == [0, Fraction(1, 2)]
        geo = qset(0, "1/3", "1/9", 1)
        assert len([d for d in distance_set(geo) if d.value > 0]) == 6
        # A query point off A's grid: 1/2 is not a multiple of A's scale 1.
        assert [d.value for d in distance_set(qset(0, 1), point("1/2"))] == [Fraction(1, 2)]
        plane = finite_set(RationalSpace(2, "euclidean-squared"), [point(0, 0), point(1, 2)])
        values = distance_set(plane, point("1/2", "1/3"))
        assert all(d.squared for d in values)
        assert [d.value for d in values] == [Fraction(13, 36), Fraction(109, 36)]

    @pytest.mark.parametrize("metric, size", [
        ("sup", abs), ("taxicab", abs), ("euclidean-squared", lambda t: t * t)])
    def test_one_dimensional_center_is_read_off_the_spectre(self, metric, size):
        # On a line, z is in S(A) exactly when every x in A has a partner at
        # difference +-z, which is when the distance of z is in C(A).  The
        # center is read off the fast spectre, so compare with the oracle's,
        # on sets that reach both routes of the fast one.
        r = random.Random(211)
        routes = set()
        for A in line_sets(r, metric, rounds=8):
            routes.add(takes_mask(A))
            got = [d.value for d in center_of_distances(A)]
            assert got == sorted({size(z[0]) for z in spectre(A, "oracle")})
        assert routes == {True, False}

    @pytest.mark.parametrize("dim", [2, 3])
    def test_column_center_matches_naive(self, dim):
        r = random.Random(215 + dim)
        for metric, dist_fn in METRIC_DISTS:
            for A in space_sets(r, dim, metric, rounds=4):
                got = center_of_distances(A)
                assert all(d.squared == (metric == "euclidean-squared") for d in got)
                assert [d.value for d in got] == oracles.naive_center(A.elements, dist_fn)

    @pytest.mark.parametrize("moduli", [(2,), (9,), (2, 2), (2, 7), (6, 2), (5, 4), (3, 2, 2)])
    def test_torus_distances_match_naive(self, moduli):
        # Column distances on a finite group take the shorter way round each
        # coordinate: every distance kernel against the torus metric, with
        # singletons and modulus-2 coordinates.
        r = random.Random(230 + len(moduli) * sum(moduli))
        ctx = FiniteAbelian(moduli)
        dist_fn = partial(oracles.torus_dist, moduli=moduli)
        for _ in range(40):
            A = rand_finab_set(r, ctx, r.choice((1, r.randint(1, ctx.order()))))
            pts = A.elements
            pairs = [dist_fn(p, q) for p, q in itertools.combinations(pts, 2)]
            x = rand_finab_set(r, ctx, 1).elements[0]
            assert [d.value for d in distance_set(A)] == sorted({0, *pairs})
            assert [d.value for d in distance_set(A, x)] == sorted({dist_fn(x, p) for p in pts})
            assert dist(ctx, x, pts[-1]).value == dist_fn(x, pts[-1])
            least = min_positive_distance(A)
            assert (least if least is None else least.value) == (min(pairs) if pairs else None)
            assert is_non_sliding(A).ok == oracles.naive_is_non_sliding(pts, dist_fn)
            assert [d.value for d in center_of_distances(A)] == oracles.naive_center(pts, dist_fn)

    def test_torus_center_is_read_off_the_spectre(self):
        r = random.Random(212)
        for _ in range(100):
            m = r.randint(2, 24)
            A = rand_finab_set(r, FiniteAbelian((m,)))
            got = [d.value for d in center_of_distances(A)]
            assert got == sorted({min(z[0], m - z[0]) for z in spectre(A)})

    def test_zero_always_in_center(self):
        r = random.Random(210)
        for _ in range(50):
            A = rand_qset(r)
            assert center_of_distances(A)[0].value == 0


class TestStructuralCheckers:
    def test_net_set_examples(self):
        assert is_net_set(qset(0, 1, 3)).ok
        verdict = is_net_set(qset(0, 1, 2))
        assert not verdict.ok
        w = verdict.witness
        assert w is not None
        assert {w.pair_a, w.pair_b} == {(point(0), point(1)), (point(1), point(2))}
        assert w.shared_value in (point(1), point(-1))

    def test_small_sets_are_never_net_sets(self):
        assert not is_net_set(qset(0)).ok
        assert not is_net_set(qset(0, 5)).ok

    def test_planar_right_angle_is_a_net_set(self):
        A = finite_set(Q2, [point(0, 0), point(1, 0), point(0, 1)])
        assert is_net_set(A).ok

    def test_net_check_matches_naive(self):
        r = random.Random(211)
        for _ in range(150):
            A = rand_qset(r, size=r.randint(1, 6), max_den=4)
            assert is_net_set(A).ok == oracles.naive_is_net(A.elements)

    def test_witnesses_are_the_first_repeated_pair(self):
        r = random.Random(214)
        for _ in range(300):
            if r.random() < 0.3:
                A = rand_finab_set(r, rand_finab_ctx(r))
                sub = partial(oracles.mod_sub, moduli=A.ctx.moduli)
                dist = partial(oracles.torus_dist, moduli=A.ctx.moduli)
            else:
                A = rand_qset(r, size=r.randint(3, 7), max_den=3)
                sub, dist = oracles.q_sub, oracles.sup_dist
            for check, key in ((is_net_set, lambda p, q: max(sub(p, q), sub(q, p))),
                               (is_non_sliding, dist)):
                verdict = check(A)
                if check is is_net_set and len(A) < 3:
                    assert verdict.witness is None
                    continue
                want = oracles.naive_first_shared_pair(A.elements, key)
                want = want and (*want, key(*want[0]))
                w = verdict.witness
                got = None if w is None else (w.pair_a, w.pair_b, getattr(
                    w.shared_value, "value", w.shared_value))
                assert got == want and verdict.ok == (want is None), (A.elements, check)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_int_checks_match_naive_and_the_tuple_route(self, dim):
        # Packed differences and column distances give the verdicts of the
        # naive checks and the witness of a scan over tuple keys.
        r = random.Random(216 + dim)
        outcomes = set()
        for metric, dist_fn in METRIC_DISTS:
            cases = line_sets(r, metric, rounds=4) if dim == 1 else \
                space_sets(r, dim, metric, rounds=4)
            for A in cases:
                for check, key, naive in (
                        (is_net_set, lambda p, q: max(oracles.q_sub(p, q), oracles.q_sub(q, p)),
                         oracles.naive_is_net),
                        (is_non_sliding, dist_fn,
                         lambda pts: oracles.naive_is_non_sliding(pts, dist_fn))):
                    verdict = check(A)
                    assert verdict.ok == naive(A.elements)
                    outcomes.add((check, verdict.ok))
                    if check is is_net_set and len(A) < 3:
                        continue
                    want = oracles.naive_first_shared_pair(A.elements, key)
                    want = want and (*want, key(*want[0]))
                    w = verdict.witness
                    got = None if w is None else (w.pair_a, w.pair_b, getattr(
                        w.shared_value, "value", w.shared_value))
                    assert got == want, (A.elements, check)
        assert len(outcomes) == 4

    @pytest.mark.parametrize("ctx", [RationalSpace(d, m) for d in (1, 2) for m in METRICS] +
                             [FiniteAbelian(ms) for ms in ((7,), (12,), (3, 4), (2, 2, 3))],
                             ids=str)
    def test_witnesses_match_the_naive_first_shared_pair(self, ctx):
        # Both checkers report the pairs of naive_first_shared_pair: net-sets
        # keyed on the larger of d and -d (as residues on a group), non-sliding
        # sets on the distance.  Two points are never a net-set, and on a
        # small torus only two points can be non-sliding.
        r = random.Random(str(ctx))
        if isinstance(ctx, FiniteAbelian):
            ms = ctx.moduli
            sub = partial(oracles.mod_sub, moduli=ms)
            dist_fn = partial(oracles.torus_dist, moduli=ms)
        else:
            sub, dist_fn = oracles.q_sub, dict(METRIC_DISTS)[ctx.metric]
        outcomes = set()
        for _ in range(60):
            if isinstance(ctx, FiniteAbelian):
                A = rand_finab_set(r, ctx, r.randint(2, min(9, ctx.order())))
            else:
                n, den, pts = r.randint(2, 8), r.choice((1, 3, 16)), set()
                while len(pts) < n:
                    pts.add(rand_point(r, ctx.dim, max_den=den))
                A = finite_set(ctx, pts)
            for check, key in ((is_net_set, lambda p, q: max(sub(p, q), sub(q, p))),
                               (is_non_sliding, dist_fn)):
                verdict = check(A)
                w = verdict.witness
                outcomes.add((check, verdict.ok))
                if check is is_net_set and len(A) < 3:
                    assert not verdict.ok and w is None
                    continue
                want = oracles.naive_first_shared_pair(A.elements, key)
                assert verdict.ok == (want is None), (A.elements, check)
                assert (w and (w.pair_a, w.pair_b)) == want, (A.elements, check)
        assert len(outcomes) == 4

    def test_net_sets_have_trivial_spectre(self):
        r = random.Random(212)
        seen = 0
        while seen < 60:
            A = rand_qset(r, size=r.randint(3, 6))
            if not is_net_set(A).ok:
                continue
            seen += 1
            assert spectre(A).elements == (zero(A.ctx),)

    def test_non_sliding_examples(self):
        assert is_non_sliding(qset(0, "1/3", "1/9", 1)).ok
        verdict = is_non_sliding(qset(0, 1, 2))
        assert not verdict.ok
        assert isinstance(verdict.witness.shared_value, DistValue)
        assert verdict.witness.shared_value.value == 1

    def test_planar_right_angle_is_not_non_sliding(self):
        A = finite_set(Q2, [point(0, 0), point(1, 0), point(0, 1)])
        verdict = is_non_sliding(A)
        assert not verdict.ok
        assert verdict.witness.shared_value.value == 1

    def test_non_sliding_matches_naive(self):
        r = random.Random(213)
        for _ in range(150):
            A = rand_qset(r, dim=1, size=r.randint(1, 6), max_den=6)
            assert is_non_sliding(A).ok == \
                oracles.naive_is_non_sliding(A.elements, oracles.sup_dist)

    def test_non_sliding_triples_and_larger_are_net_sets(self):
        r = random.Random(214)
        seen = 0
        while seen < 40:
            A = rand_qset(r, dim=1, size=r.randint(3, 6))
            if not is_non_sliding(A).ok:
                continue
            seen += 1
            assert is_net_set(A).ok

    def test_min_positive_distance(self):
        assert min_positive_distance(qset(0, "1/4", 1)).value == Fraction(1, 4)
        assert min_positive_distance(qset(5)) is None


class TestSpectreInflate:
    def test_scalar_example(self):
        B = qset(0, "1/2")
        out = spectre_inflate(B, point("1/16"))
        assert scalars(out) == [0, Fraction(1, 16), Fraction(1, 2), Fraction(9, 16)]
        S = set(spectre(out).elements)
        assert {point(0), point("1/16"), point("-1/16")} <= S

    def test_singleton_example(self):
        out = spectre_inflate(qset(0), point(1))
        assert scalars(out) == [0, 1]
        assert scalars(spectre(out)) == [-1, 0, 1]

    def test_modular_absorption(self):
        ctx = FiniteAbelian((6,))
        B = finite_set(ctx, [point(0), point(3)])
        out = spectre_inflate(B, point(3))
        assert out == B

    def test_rejects_zero_shift(self):
        with pytest.raises(DomainError):
            spectre_inflate(qset(0, 1), point(0))

    def test_shift_always_lands_in_spectre(self):
        r = random.Random(215)
        for _ in range(100):
            A = rand_qset(r)
            x = rand_point(r, A.ctx.dim)
            if x == zero(A.ctx):
                continue
            out = spectre_inflate(A, x)
            assert x in spectre(out)


class TestDensify:
    def test_requires_rational_space_and_positive_eps(self):
        B = finite_set(FiniteAbelian((6,)), [point(0)])
        with pytest.raises(DomainError):
            densify_to_netset(B, Fraction(1, 8))
        with pytest.raises(DomainError):
            densify_to_netset(qset(0), Fraction(0))

    def test_singleton_grows_to_a_nearby_net_triple(self):
        B = qset(0)
        out = densify_to_netset(B, Fraction(1, 16))
        assert len(out) == 3
        assert is_net_set(out).ok
        assert hausdorff(out, B).value < Fraction(1, 16)

    def test_pair_gains_one_point(self):
        B = qset(0, 1)
        out = densify_to_netset(B, Fraction(1, 16))
        assert len(out) == 3
        assert set(B.elements) <= set(out.elements)
        assert is_net_set(out).ok
        assert hausdorff(out, B).value < Fraction(1, 16)

    def test_progression_is_perturbed_into_a_net_set(self):
        B = qset(0, 1, 2, 3)
        out = densify_to_netset(B, Fraction(1, 16))
        assert is_net_set(out).ok
        assert hausdorff(out, B).value < Fraction(1, 16)
        assert scalars(spectre(out)) == [0]

    def test_planar_inputs(self):
        B = finite_set(Q2, [point(0, 0), point(1, 0), point(0, 1), point(1, 1)])
        out = densify_to_netset(B, Fraction(1, 8))
        assert is_net_set(out).ok
        assert hausdorff(out, B).value < Fraction(1, 8)

    def test_existing_net_set_is_kept(self):
        B = qset(0, 1, 3)
        assert densify_to_netset(B, Fraction(1, 8)) == B

    def test_deterministic(self):
        B = qset(0, 1)
        first = densify_to_netset(B, Fraction(1, 16))
        second = densify_to_netset(B, Fraction(1, 16))
        assert first == second

    def test_pinned_outputs(self):
        square = finite_set(Q2, [point(0, 0), point(1, 0), point(0, 1), point(1, 1)])
        cases = [
            (qset(0), Fraction(1, 16), [point(0), point("5/128"), point("3/64")]),
            (finite_set(Q2, [point(0, 0)]), Fraction(1, 16),
             [point(0, 0), point("1/32", "1/32"), point("3/64", 0)]),
            (qset(0, 1), Fraction(1, 16), [point(0), point("3/64"), point(1)]),
            (qset(0, 1, 2, 3), Fraction(1, 16),
             [point(0), point(1), point("131/64"), point(3)]),
            (square, Fraction(1, 8),
             [point(0, 0), point(0, 1), point(1, 0), point("17/16", "17/16")]),
        ]
        for B, eps, want in cases:
            assert list(densify_to_netset(B, eps).elements) == want

    def test_perturbation_stream_has_no_repeats(self):
        eps = Fraction(1, 16)
        for dim in (1, 2):
            vectors = []
            for j, i, k, m in itertools.islice(_perturbations(dim), 2000):
                v = [Fraction(0)] * dim
                v[i] += eps / 2 ** j
                v[m] += eps / 2 ** k
                assert 0 < max(v) < eps
                vectors.append(tuple(v))
            assert len(set(vectors)) == 2000

    def test_a_capped_scan_stays_on_the_grid(self):
        # A scan tries the point, then at most cap - 1 vectors; each exponent
        # must be at most the depth the grid is refined by.
        deepest = []
        for dim in (1, 2, 3, 4):
            stream = itertools.islice(_perturbations(dim), sets._DENSIFY_SCAN_CAP - 1)
            deepest.append(max(max(j, k) for j, _, k, _ in stream))
        assert deepest == [282, 141, 94, 71]
        assert max(deepest) <= sets._DENSIFY_DEPTH

    def test_matches_the_naive_greedy_rule(self):
        r = random.Random(217)
        for _ in range(300):
            A = rand_qset(r, dim=r.randint(1, 3), size=r.randint(1, 8),
                          max_den=r.choice((1, 4, 16)))
            eps = r.choice((Fraction(1, 16), Fraction(1, 4), Fraction(1)))
            want = oracles.naive_netset_greedy(A.elements, eps)
            assert list(densify_to_netset(A, eps).elements) == want

    def test_matches_the_naive_greedy_rule_far_wide_and_deep(self, monkeypatch):
        # Points near +-10^30, denominators of 2^61 - 1 and 2^61 - 3, and at
        # eps = 2^-20 small progressions and lattices.  The last 1-D sets go
        # deep: {0, 3, 4, 9, 11, 12, 13, 20} * eps/64 reaches exponent 8, the
        # deepest scan a search over 8-point sets found.
        deepest = [0]

        def recorded(dim):
            for v in _perturbations(dim):
                deepest[0] = max(deepest[0], v[0], v[2])
                yield v

        monkeypatch.setattr(sets, "_perturbations", recorded)
        r = random.Random(220)
        big, wide, tiny = 10 ** 30, (1 << 61) - 1, Fraction(1, 1 << 20)
        cases = []
        for _ in range(12):
            dim = r.randint(1, 3)
            center = [r.choice((-big, big)) + r.randint(-5, 5) for _ in range(dim)]
            pts = {tuple(c + Fraction(r.randint(-8, 8), r.choice((1, 4, 16))) for c in center)
                   for _ in range(r.randint(1, 8))}
            cases.append((pts, r.choice((Fraction(1, 16), Fraction(1)))))
            pts = {tuple(Fraction(r.randint(-wide, wide), r.choice((wide, wide - 2, 1)))
                         for _ in range(dim)) for _ in range(r.randint(1, 8))}
            cases.append((pts, r.choice((Fraction(1, 16), Fraction(3, wide)))))
        for n in range(3, 9):
            for step in (1, tiny, tiny / 4):
                cases.append(({(step * i,) for i in range(n)}, tiny))
        for a, b in ((2, 2), (2, 3), (2, 4)):
            cases.append(({(tiny * i, tiny * j) for i in range(a) for j in range(b)}, tiny))
        for ms in ((0, 3, 4, 9, 11, 12, 13, 20), (0, 3, 5, 6, 9, 17)):
            cases.append(({(tiny / 64 * m,) for m in ms}, tiny))
        for pts, eps in cases:
            A = finite_set(RationalSpace(len(next(iter(pts)))), pts)
            want = oracles.naive_netset_greedy(A.elements, eps)
            assert list(densify_to_netset(A, eps).elements) == want
        assert deepest[0] >= 8

    def test_random_inputs_satisfy_all_three_properties(self):
        r = random.Random(216)
        for _ in range(60):
            A = rand_qset(r, size=r.randint(1, 5), max_den=8)
            eps = r.choice((Fraction(1, 8), Fraction(1, 16)))
            out = densify_to_netset(A, eps)
            assert is_net_set(out).ok
            assert hausdorff(out, A).value < eps
            assert spectre(out).elements == (zero(A.ctx),)
