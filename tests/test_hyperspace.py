"""Hausdorff distance, fattenings, continuity probes, and image refutation."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import partial

import pytest

import oracles
from spectrekit import (
    BudgetExceededError,
    DomainError,
    FiniteAbelian,
    GroupMismatchError,
    RationalSpace,
    fatten_contains,
    finite_set,
    hausdorff,
    minkowski_sum,
    perturbation_family,
    point,
    probe_spectre_continuity,
    refute_spectre_image,
    spectre,
    translate,
)
from spectrekit import hyperspace
from gen import WIDE, rand_finab_ctx, rand_finab_set, rand_qset, rand_unit_qset, space_sets

Q1 = RationalSpace(1)
Q2 = RationalSpace(2)


def qset(*values):
    return finite_set(Q1, [point(v) for v in values])


class TestHausdorff:
    def test_identity(self):
        A = qset(0, "1/3", 2)
        assert hausdorff(A, A).value == 0

    def test_singletons(self):
        assert hausdorff(qset(0), qset(1)).value == 1

    def test_refinement_example(self):
        assert hausdorff(qset(0, 1), qset(0, "1/2", 1)).value == Fraction(1, 2)

    def test_symmetry_and_positivity(self):
        r = random.Random(301)
        for _ in range(100):
            dim = r.choice((1, 2))
            A, B = rand_qset(r, dim=dim), rand_qset(r, dim=dim)
            d = hausdorff(A, B)
            assert d == hausdorff(B, A)
            assert (d.value == 0) == (A == B)

    def test_matches_naive(self):
        r = random.Random(302)
        for _ in range(100):
            dim = r.choice((1, 2))
            A, B = rand_qset(r, dim=dim), rand_qset(r, dim=dim)
            assert hausdorff(A, B).value == \
                oracles.naive_hausdorff(A.elements, B.elements, oracles.sup_dist)

    def test_one_dimensional_sets_match_naive_and_their_planar_embedding(self):
        # The same sets embedded as (x, 0) in the plane must give the same
        # distance and the same fattening answers.
        r = random.Random(304)
        for metric, dist_fn in (("sup", oracles.sup_dist), ("taxicab", oracles.taxicab_dist),
                                ("euclidean-squared", oracles.eucl_sq_dist)):
            line, plane = RationalSpace(1, metric), RationalSpace(2, metric)
            for _ in range(60):
                a = {Fraction(r.randint(-40, 40), r.choice((1, 3, 8)))
                     for _ in range(r.randint(1, 12))}
                b = {Fraction(r.randint(-40, 40), r.choice((1, 5, 8)))
                     for _ in range(r.randint(1, 12))}
                shape = r.choice(("random", "interleaved", "disjoint"))
                if shape == "interleaved":
                    b = {v + Fraction(1, 16) for v in a}
                elif shape == "disjoint":
                    b = {v + max(a) - min(b) + r.randint(1, 9) for v in b}
                A = finite_set(line, [(v,) for v in a])
                B = finite_set(line, [(v,) for v in b])
                want = oracles.naive_hausdorff(A.elements, B.elements, dist_fn)
                d = hausdorff(A, B)
                assert (d.value, d.squared) == (want, metric == "euclidean-squared")
                flat = [finite_set(plane, [(v, 0) for v in S]) for S in (a, b)]
                assert hausdorff(*flat) == d
                directed = max(min(dist_fn(x, y) for y in A.elements) for x in B.elements)
                tiny = Fraction(1, 10 ** 6)
                assert fatten_contains(B, A, directed + tiny)
                assert fatten_contains(*flat[::-1], directed + tiny)
                if directed > 0:
                    assert not fatten_contains(B, A, directed)
                    assert not fatten_contains(*flat[::-1], directed)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sweep_matches_naive(self, dim):
        # The nearest-neighbour sweep against the full scan, under every
        # metric, with fattening at, just above and just below the directed
        # distance.  B is another set, A moved a little, or A far away.
        r = random.Random(306 + dim)
        tiny = Fraction(1, 10 ** 30)
        for metric, dist_fn in (("sup", oracles.sup_dist), ("taxicab", oracles.taxicab_dist),
                                ("euclidean-squared", oracles.eucl_sq_dist)):
            cases = space_sets(r, dim, metric, rounds=3)
            for A in cases:
                t = tuple(Fraction(r.randint(-8, 8), r.choice((1, 16, WIDE))) for _ in range(dim))
                for B in (r.choice(cases), translate(A, t), translate(A, tuple(
                        c + 100 for c in t))):
                    want = oracles.naive_hausdorff(A.elements, B.elements, dist_fn)
                    d = hausdorff(A, B)
                    assert (d.value, d.squared) == (want, metric == "euclidean-squared")
                    directed = max(min(dist_fn(x, y) for y in A.elements) for x in B.elements)
                    assert fatten_contains(B, A, directed + tiny)
                    if directed > 0:
                        assert not fatten_contains(B, A, directed)
                        assert not fatten_contains(B, A, directed - min(tiny, directed / 2))

    @pytest.mark.parametrize("moduli", [(2,), (7,), (12,), (2, 5), (6, 2), (4, 4), (3, 2, 2)])
    def test_torus_sweep_matches_naive(self, moduli):
        # On a finite group the sweep keys each point twice, once across m/2
        # of its first coordinate: the full scan under the torus metric, with
        # singletons, and fattening at, just above and just below the
        # directed distance.
        r = random.Random(310 + len(moduli) * sum(moduli))
        ctx = FiniteAbelian(moduli)
        dist_fn = partial(oracles.torus_dist, moduli=moduli)
        tiny = Fraction(1, 10 ** 6)
        for _ in range(40):
            A, B = (rand_finab_set(r, ctx, r.choice((1, r.randint(1, ctx.order()))))
                    for _ in range(2))
            d = hausdorff(A, B)
            want = oracles.naive_hausdorff(A.elements, B.elements, dist_fn)
            assert (d.value, d.squared) == (want, False)
            directed = max(min(dist_fn(x, y) for y in A.elements) for x in B.elements)
            assert fatten_contains(B, A, directed + tiny)
            if directed > 0:
                assert not fatten_contains(B, A, directed)
                assert not fatten_contains(B, A, directed - tiny)

    def test_triangle_inequality(self):
        r = random.Random(303)
        for _ in range(150):
            A, B, C = (rand_qset(r, dim=1) for _ in range(3))
            assert hausdorff(A, C).value <= hausdorff(A, B).value + hausdorff(B, C).value

    def test_torus_distance(self):
        ctx = FiniteAbelian((6,))
        A = finite_set(ctx, [point(0)])
        B = finite_set(ctx, [point(5)])
        assert hausdorff(A, B).value == 1

    def test_rejects_mismatched_contexts(self):
        with pytest.raises(GroupMismatchError):
            hausdorff(qset(0), finite_set(Q2, [point(0, 0)]))

    def test_sumset_contraction(self):
        r = random.Random(304)
        for _ in range(100):
            C, D, E, F = (rand_unit_qset(r, r.randint(1, 5)) for _ in range(4))
            lhs = hausdorff(minkowski_sum(C, D), minkowski_sum(E, F)).value
            rhs = hausdorff(C, E).value + hausdorff(D, F).value
            assert lhs <= rhs


class TestFattenContains:
    def test_subset_always_inside(self):
        A = qset(0, 1, 2)
        B = qset(0, 2)
        assert fatten_contains(B, A, Fraction(1, 1000))

    def test_boundary_is_excluded(self):
        assert not fatten_contains(qset("1/2"), qset(0), Fraction(1, 2))
        assert fatten_contains(qset("1/2"), qset(0), Fraction(3, 4))

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(DomainError):
            fatten_contains(qset(0), qset(0), Fraction(0))

    def test_agrees_with_pointwise_definition(self):
        r = random.Random(305)
        for _ in range(100):
            A, B = rand_qset(r, dim=1), rand_qset(r, dim=1)
            eps = Fraction(r.randint(1, 8), 8)
            want = all(min(abs(b[0] - a[0]) for a in A.elements) < eps
                       for b in B.elements)
            assert fatten_contains(B, A, eps) == want


class TestContinuityProbe:
    def test_discontinuity_at_arithmetic_progression(self):
        A = qset(0, 1, 2)
        family = [qset(0, 1, 2 + Fraction(1, 2 ** n)) for n in range(1, 11)]
        for member in family:
            assert spectre(member, mode="oracle").elements == (point(0),)
        report = probe_spectre_continuity(A, family, Fraction(1, 8))
        assert report.verdict == "discontinuity-witnessed"
        assert len(report.rows) == 10
        for row in report.rows:
            assert row.spectre_distance.value == 1
            assert row.usc_ok
        assert report.tail_bound == 1
        assert report.usc_tail_ok
        inputs = [row.input_distance.value for row in report.rows]
        assert inputs == sorted(inputs, reverse=True)

    def test_singleton_family_looks_continuous(self):
        A = qset(0)
        family = [qset(Fraction(1, 2 ** n)) for n in range(1, 9)]
        report = probe_spectre_continuity(A, family, Fraction(1, 8))
        assert report.verdict == "continuous-looking"
        assert all(row.spectre_distance.value == 0 for row in report.rows)

    def test_net_set_with_shrinking_perturbations_looks_continuous(self):
        A = qset(0, 1, 3)
        family = [translate(A, point(Fraction(1, 2 ** n))) for n in range(3, 11)]
        report = probe_spectre_continuity(A, family, Fraction(1, 8))
        assert report.verdict == "continuous-looking"
        assert all(row.spectre_distance.value == 0 for row in report.rows)

    def test_rejects_empty_family(self):
        with pytest.raises(DomainError):
            probe_spectre_continuity(qset(0), [], Fraction(1, 8))

    def test_usc_flag_holds_on_tails_for_shrinking_families(self):
        r = random.Random(306)
        for _ in range(25):
            A = rand_qset(r, dim=1, size=r.randint(2, 5), max_den=8)
            family = perturbation_family(A, count=8)
            for eps in (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)):
                report = probe_spectre_continuity(A, family, eps)
                assert report.usc_tail_ok

    def test_eventually_constant_spectres_stay_inside_every_fattening(self):
        # Families converging to A whose spectres settle on a constant set B:
        # the settled B must sit inside every fattening of S(A).
        r = random.Random(307)
        checked = 0
        while checked < 20:
            A = rand_qset(r, dim=1, size=r.randint(2, 4), max_den=8)
            family = perturbation_family(A, count=8)
            spectres = [spectre(member) for member in family]
            tail = spectres[len(spectres) // 2:]
            if any(s != tail[0] for s in tail):
                continue
            checked += 1
            B = tail[0]
            SA = spectre(A)
            for eps in (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)):
                assert fatten_contains(B, SA, eps)

    def test_rows_are_the_separate_distances(self):
        r = random.Random(309)
        for n in range(60):
            if n % 3 == 2:
                ctx = rand_finab_ctx(r)
                A, family = rand_finab_set(r, ctx), [rand_finab_set(r, ctx) for _ in range(4)]
            else:
                metric = r.choice(("sup", "taxicab", "euclidean-squared"))
                A = rand_qset(r, dim=n % 3 + 1, metric=metric, max_den=8)
                family = [rand_qset(r, dim=n % 3 + 1, metric=metric, max_den=8)
                          for _ in range(r.randint(1, 4))]
            eps = Fraction(r.randint(1, 12), r.randint(1, 6))
            report = probe_spectre_continuity(A, family, eps)
            SA = spectre(A)
            for member, row in zip(family, report.rows):
                SM = spectre(member)
                assert row[1:] == (hausdorff(A, member), hausdorff(SA, SM),
                                   fatten_contains(SM, SA, eps))

    def test_each_row_sweeps_each_direction_once(self, monkeypatch):
        sweeps = []
        real = hyperspace._directed
        monkeypatch.setattr(hyperspace, "_directed",
                            lambda *args: sweeps.append(1) or real(*args))
        A = qset(*range(100))
        family = perturbation_family(A)
        probe_spectre_continuity(A, family, Fraction(1, 8))
        assert len(sweeps) == 4 * len(family) == 32

    def test_a_nonpositive_eps_reports_after_the_family_checks(self):
        with pytest.raises(DomainError, match="the probe family must be nonempty"):
            probe_spectre_continuity(qset(0), [], 0)
        with pytest.raises(GroupMismatchError):
            probe_spectre_continuity(qset(0), [finite_set(Q2, [point(0, 0)])], 0)
        for eps in (0, Fraction(-1, 8)):
            with pytest.raises(DomainError, match="^fattening radius must be positive$"):
                probe_spectre_continuity(qset(0, 1), [qset(0, 2)], eps)


class TestPerturbationFamily:
    def test_family_converges_to_the_base_set(self):
        A = qset(0, 1, 2)
        family = perturbation_family(A, count=6)
        assert len(family) == 6
        dists = [hausdorff(A, member).value for member in family]
        assert all(d > 0 for d in dists)
        assert dists == sorted(dists, reverse=True)

    def test_members_share_the_context(self):
        A = finite_set(Q2, [point(0, 0), point(1, 1)])
        for member in perturbation_family(A, count=4):
            assert member.ctx == A.ctx


class TestRefuteImage:
    def test_modular_subgroup_has_a_preimage(self):
        ctx = FiniteAbelian((6,))
        target = finite_set(ctx, [point(0), point(2), point(4)])
        result = refute_spectre_image(target)
        assert result.found
        assert spectre(result.witness, mode="oracle") == target

    def test_first_witness_is_reported_in_scan_order(self):
        ctx = FiniteAbelian((6,))
        target = finite_set(ctx, [point(0), point(2), point(4)])
        result = refute_spectre_image(target)
        assert [p[0] for p in result.witness.elements] == [0, 2]
        assert result.scanned == 5

    def test_three_point_set_outside_the_image(self):
        ctx = FiniteAbelian((7,))
        target = finite_set(ctx, [point(0), point(1), point(3)])
        result = refute_spectre_image(target)
        assert not result.found
        assert result.witness is None
        assert result.scanned == 127

    def test_trivial_target_has_a_preimage(self):
        ctx = FiniteAbelian((5,))
        result = refute_spectre_image(finite_set(ctx, [point(0)]))
        assert result.found
        assert spectre(result.witness).elements == (point(0),)

    def test_not_found_claims_are_exhaustive(self):
        # Re-check a refutation against an independent full scan.
        ctx = FiniteAbelian((5,))
        target = finite_set(ctx, [point(0), point(1)])
        result = refute_spectre_image(target)
        want = [tuple(p) for p in target.elements]
        hit = None
        for mask in range(1, 32):
            subset = [(Fraction(i),) for i in range(5) if mask >> i & 1]
            if oracles.naive_spectre_mod(subset, (5,)) == want:
                hit = subset
                break
        assert result.found == (hit is not None)

    @pytest.mark.parametrize("moduli", [(m,) for m in range(2, 9)] +
                             [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 2, 2)], ids=str)
    def test_every_target_of_small_groups_matches_a_naive_scan(self, moduli):
        # Every nonempty target of every group of order at most 8: the
        # witness is the least mask whose naive spectre is the target, and
        # scanned is that mask, or every mask when there is none.
        ctx = FiniteAbelian(moduli)
        group = [tuple(map(Fraction, c)) for c in itertools.product(*map(range, moduli))]
        subsets = [[g for i, g in enumerate(group) if mask >> i & 1]
                   for mask in range(1 << len(group))]
        least = {}
        for mask in range(1, len(subsets)):
            least.setdefault(tuple(oracles.naive_spectre_mod(subsets[mask], moduli)), mask)
        for target in subsets[1:]:
            mask = least.get(tuple(target))
            result = refute_spectre_image(finite_set(ctx, target))
            assert result.found == (mask is not None), target
            if mask is None:
                assert result.witness is None and result.scanned == len(subsets) - 1, target
            else:
                assert list(result.witness.elements) == subsets[mask], target
                assert result.scanned == mask, target

    def test_budget_guard(self):
        ctx = FiniteAbelian((5, 5))
        target = finite_set(ctx, [point(0, 0)])
        with pytest.raises(BudgetExceededError):
            refute_spectre_image(target, budget=1000)

    def test_rejects_rational_contexts(self):
        with pytest.raises(DomainError):
            refute_spectre_image(qset(0))
