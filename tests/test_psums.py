"""P-sum sets, the gap translation property, and the two-Cantor demo."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import oracles
from spectrekit import (
    BudgetExceededError,
    DomainError,
    RationalSpace,
    achievement_set,
    cantor_pair_demo,
    find_gaps,
    finite_set,
    gap_translation_check,
    initial_subsums,
    minkowski_sum,
    psum_set,
    remainder_subsums,
    series_spec,
)
from spectrekit.errors import check_budget, check_budget_power
from spectrekit.formats import decode_pspec, encode_pspec
from gen import menu, rand_pspec
from spectrekit.psums import demo_level_set


def scalars(A) -> list:
    return [p[0] for p in A.elements]


def assert_supremum(values, b, eps):
    """The translation predicate holds just below eps and fails at eps."""
    for radius in (eps / 2, eps * Fraction(1023, 1024)):
        assert oracles.translation_predicate(values, b, radius)
    assert not oracles.translation_predicate(values, b, eps)


class TestPSpec:
    # A P-spec is a scalar series built with its menu: series_spec(terms, coeffs=P).
    def test_normalizes_and_sorts(self):
        spec = series_spec(["1/2", "1/4"], coeffs=["1", "0", "1"])
        assert (spec.coeffs, spec.coeff_scale) == ((0, 1), 1)
        assert spec.terms == ((Fraction(1, 2),), (Fraction(1, 4),))
        assert spec == series_spec(["1/2", "1/4"])
        halves = series_spec(["1/2"], coeffs=["3/2", "0", "1/2"])
        assert (halves.coeffs, halves.coeff_scale) == ((0, 1, 3), 2)
        assert menu(halves) == [0, Fraction(1, 2), Fraction(3, 2)]

    def test_requires_zero_coefficient(self):
        with pytest.raises(DomainError):
            series_spec(["1/2"], coeffs=["1", "2"])

    def test_rejects_negative_coefficients(self):
        with pytest.raises(DomainError):
            series_spec(["1/2"], coeffs=["0", "-1"])


class TestPsumSet:
    def test_binary_coefficients_give_subset_sums(self):
        spec = series_spec(["1/2", "1/4"], coeffs=["0", "1"])
        assert scalars(psum_set(spec)) == \
            [0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]

    def test_ternary_example(self):
        spec = series_spec(["1/4", "1/16"], coeffs=["0", "1", "2"])
        want = [0, Fraction(1, 16), Fraction(1, 8), Fraction(1, 4),
                Fraction(5, 16), Fraction(3, 8), Fraction(1, 2),
                Fraction(9, 16), Fraction(5, 8)]
        assert scalars(psum_set(spec)) == want

    def test_zero_only_coefficients(self):
        assert scalars(psum_set(series_spec(["1/2", "7"], coeffs=["0"]))) == [0]

    def test_matches_naive_product_scan(self):
        r = random.Random(601)
        for _ in range(60):
            spec = rand_pspec(r)
            assert scalars(psum_set(spec)) == \
                oracles.naive_psum(menu(spec), [t for (t,) in spec.terms])

    def test_binary_coefficients_match_achievement_set(self):
        r = random.Random(602)
        for _ in range(40):
            terms = [Fraction(r.randint(0, 8), r.randint(1, 8))
                     for _ in range(r.randint(1, 8))]
            spec = series_spec(terms, coeffs=["0", "1"])
            assert psum_set(spec) == achievement_set(series_spec(terms))

    def test_menu_is_part_of_the_cache_key(self):
        # Both calls go through one enumerator on the same terms.  Each keeps
        # its sums on its own series, and the menu is a field of the series,
        # so neither can hand back the other's.
        terms = [Fraction(1, 3), Fraction(1, 9), Fraction(1, 2)]
        s, p = series_spec(terms), series_spec(terms, coeffs=[0, 1, 2])
        assert s != p and s.ints == p.ints
        E, T = achievement_set(s), psum_set(p)
        assert E.elements == tuple(oracles.naive_subset_sums([(t,) for t in terms]))
        assert scalars(T) == oracles.naive_psum([0, 1, 2], terms)
        assert achievement_set(s) is E and psum_set(p) is T

    def test_random_p_series_split_scan_and_round_trip(self):
        # On a P-series the series tools see the P-sums: E = F_k + E_k at
        # every k, E is the product scan, and the P-spec document keeps it.
        r = random.Random(606)
        for _ in range(40):
            s = rand_pspec(r)
            E = achievement_set(s)
            assert scalars(E) == oracles.naive_psum(menu(s), [t for (t,) in s.terms])
            for k in range(s.count + 1):
                assert minkowski_sum(initial_subsums(s, k), remainder_subsums(s, k)) == E
            assert decode_pspec(encode_pspec(s)) == s

    def test_budget_guard(self):
        spec = series_spec(["1"] * 10, coeffs=["0", "1", "2"])
        with pytest.raises(BudgetExceededError):
            psum_set(spec, budget=100)

    def test_budget_guard_on_a_huge_exponent(self):
        # 3^10000 has more digits than Python will format in a message.
        with pytest.raises(BudgetExceededError, match=r"3\^10000"):
            psum_set(series_spec(["1"] * 10000, coeffs=["0", "1", "2"]))

    def test_a_tight_budget_raises_once_the_sums_are_cached(self):
        # Each call fills its series' memo; the same call under budget 1 must
        # still raise, with the P-sum base |P| and the subset-sum base 2.
        terms = ["1/3", "1/9", "1/27", "1/81"]
        s = series_spec(terms)
        p = series_spec(terms, coeffs=["0", "1", "2"])
        calls = [(lambda b: psum_set(p, budget=b), "3^4"),
                 (lambda b: achievement_set(s, budget=b), "2^4"),
                 (lambda b: initial_subsums(s, 3, budget=b), "2^3")]
        for call, size in calls:
            call(None)
            with pytest.raises(BudgetExceededError) as info:
                call(1)
            assert str(info.value) == f"enumeration of size {size} exceeds budget 1"

    def test_power_check_agrees_with_the_plain_check(self):
        for base in range(1, 5):
            for exponent in range(12):
                for budget in range(-2, 130):
                    try:
                        check_budget(base ** exponent, budget)
                        plain = True
                    except BudgetExceededError:
                        plain = False
                    try:
                        check_budget_power(base, exponent, budget)
                        power = True
                    except BudgetExceededError:
                        power = False
                    assert plain == power, (base, exponent, budget)


class TestGapTranslation:
    def test_quarter_grid_gap(self):
        T = psum_set(series_spec(["1/2", "1/4"]))
        assert gap_translation_check(T, (Fraction(1, 4), Fraction(1, 2))) == Fraction(1, 2)

    def test_two_point_set_has_a_small_witness(self):
        T = psum_set(series_spec(["1"]))
        epsilon = gap_translation_check(T, (0, 1))
        assert epsilon == 1
        assert_supremum(scalars(T), Fraction(1), epsilon)

    def test_eighth_grid_every_gap(self):
        T = psum_set(series_spec(["1/2", "1/4", "1/8"]))
        for k in range(7):
            gap = (Fraction(k, 8), Fraction(k + 1, 8))
            assert gap_translation_check(T, gap) > 0

    def test_witness_satisfies_the_predicate(self):
        r = random.Random(603)
        for _ in range(40):
            spec = rand_pspec(r, max_terms=4)
            T = psum_set(spec)
            values = scalars(T)
            for alpha, beta, _ in oracles.naive_gaps(values):
                assert_supremum(values, beta, gap_translation_check(T, (alpha, beta)))

    def test_rejects_intervals_that_are_not_gaps(self):
        T = psum_set(series_spec(["1/2", "1/4"]))
        with pytest.raises(DomainError):
            gap_translation_check(T, (Fraction(1, 8), Fraction(1, 4)))
        with pytest.raises(DomainError):
            gap_translation_check(T, (Fraction(1, 2), Fraction(1, 4)))

    def test_accepts_exactly_the_consecutive_pairs(self):
        r = random.Random(604)
        for _ in range(60):
            T = psum_set(rand_pspec(r))
            for g in find_gaps(T):
                assert gap_translation_check(T, (g.alpha, g.beta)) > 0
            values = scalars(T)
            for _ in range(10):
                i, j = r.randrange(len(values)), r.randrange(len(values))
                if j != i + 1:  # includes equal and reversed endpoints
                    with pytest.raises(DomainError, match="is not a gap of the set"):
                        gap_translation_check(T, (values[i], values[j]))
            v = r.choice(values)
            with pytest.raises(DomainError, match="is not a gap of the set"):
                gap_translation_check(T, (v, v))
            g = r.choice(find_gaps(T))
            off = Fraction(1, 2 * T.scale)  # between two grid points of T
            for ends in ((g.alpha + off, g.beta), (g.alpha, g.beta - off)):
                with pytest.raises(DomainError, match="is not a gap of the set"):
                    gap_translation_check(T, ends)

    def test_requires_zero_minimum(self):
        T = psum_set(series_spec(["1/2"]))
        shifted = type(T)(T.ctx, tuple((p[0] + 1,) for p in T.elements))
        with pytest.raises(DomainError):
            gap_translation_check(shifted, (Fraction(3, 2), 2))

    def test_verdict_matches_dense_sampling(self):
        r = random.Random(604)
        checked = 0
        while checked < 20:
            spec = rand_pspec(r, max_terms=4)
            T = psum_set(spec)
            values = scalars(T)
            gaps = oracles.naive_gaps(values)
            if not gaps:
                continue
            checked += 1
            alpha, beta, _ = r.choice(gaps)
            assert gap_translation_check(T, (alpha, beta)) == \
                oracles.dense_translation_supremum(values, beta)

    def test_matches_the_supremum_oracle(self):
        # Differential check of the least defect against evaluating the
        # predicate at every breakpoint and midpoint in ascending order.
        r = random.Random(605)
        sets = [psum_set(rand_pspec(r, max_terms=4)) for _ in range(15)]
        for _ in range(30):
            size = r.randint(1, 12)
            values = {Fraction(r.randint(1, 40), r.choice([1, 2, 3, 4]))
                      for _ in range(size)}
            sets.append(finite_set(RationalSpace(1),
                                   [(v,) for v in values | {Fraction(0)}]))
        for T in sets:
            values = scalars(T)
            for alpha, beta, _ in oracles.naive_gaps(values):
                assert gap_translation_check(T, (alpha, beta)) == \
                    oracles.translation_supremum(values, beta)


class TestCantorPairDemo:
    def test_level_sets_are_plausible_cantor_stages(self):
        for m in range(4):
            A = demo_level_set(m)
            values = scalars(A)
            assert values[0] == 0
            assert Fraction(1, 4) in values
            assert Fraction(1, 2) in values
            assert all(0 <= v <= Fraction(3, 4) for v in values)
            assert all(not (Fraction(1, 4) < v < Fraction(1, 2)) for v in values)

    def test_endpoint_levels_are_achievement_sets(self):
        # The identity demo_level_set builds on: the level-m endpoints of the
        # self-similar set with ratio r at both ends are the subset sums of
        # (1 - r) r^i for i < m and r^m.
        for r in (Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)):
            for m in range(9):
                terms = [(1 - r) * r ** i for i in range(m)] + [r ** m]
                assert scalars(achievement_set(series_spec(terms))) == \
                    sorted(oracles.naive_endpoint_level(r, m))

    def test_level_sets_are_the_glued_endpoint_families(self):
        quarter, third = Fraction(1, 4), Fraction(1, 3)
        for m in range(9):
            left = {p * quarter for p in oracles.naive_endpoint_level(quarter, m)}
            right = {p * quarter + Fraction(1, 2)
                     for p in oracles.naive_endpoint_level(third, m)}
            assert scalars(demo_level_set(m)) == sorted(left | right)

    def test_reported_radii_shrink_strictly(self):
        report = cantor_pair_demo(6)
        assert report.strictly_decreasing
        radii = [eps for _, eps in report.rows]
        assert radii == sorted(radii, reverse=True)
        assert len(set(radii)) == len(radii)

    def test_frozen_radii(self):
        report = cantor_pair_demo(6)
        assert [eps for _, eps in report.rows] == [
            Fraction(1, 2), Fraction(1, 16), Fraction(1, 64),
            Fraction(1, 256), Fraction(1, 1024), Fraction(1, 4096),
            Fraction(1, 16384)]

    def test_each_radius_is_a_genuine_witness(self):
        report = cantor_pair_demo(4)
        for level, eps in report.rows:
            assert_supremum(scalars(demo_level_set(level)), Fraction(1, 2), eps)

    def test_level_bounds(self):
        with pytest.raises(DomainError):
            cantor_pair_demo(0)
        with pytest.raises(DomainError):
            cantor_pair_demo(9)

    def test_note_explains_the_finite_scope(self):
        assert "finite" in cantor_pair_demo(2).note
