"""Scalar series: subsum sets, gap enumeration and classification, and
spectre checks for achievement sets."""

from __future__ import annotations

import gc
import json
import random
import weakref
from fractions import Fraction

import pytest

import oracles
from spectrekit import (
    BudgetExceededError,
    DomainError,
    RationalSpace,
    achievement_set,
    find_gaps,
    finite_set,
    first_gap_check_1d,
    first_gap_lemma_2d,
    initial_subsums,
    minkowski_sum,
    point,
    remainder_subsums,
    remainder_sum,
    series_spec,
    spectre,
)
from gen import rand_noninc_series, rand_series
from spectrekit.cli import run
from spectrekit.formats import dumps, encode_series
from spectrekit.series import _subset_sums, series_spectre_checks, third_gap_check

GEO = series_spec(["1", "1/4", "1/16"])


def scalars(A) -> list:
    return [p[0] for p in A.elements]


class TestSeriesSpec:
    def test_scalar_terms_become_points(self):
        s = series_spec(["1/2", "1/4"])
        assert s.terms == (point("1/2"), point("1/4"))
        assert s.dim == 1
        assert s.count == 2

    def test_flags(self):
        assert series_spec(["1", "1/2"]).nonincreasing
        assert not series_spec(["1/2", "1"]).nonincreasing
        assert series_spec(["0", "1/2"]).nonnegative
        assert not series_spec(["-1/2"]).nonnegative

    def test_planar_terms(self):
        s = series_spec([("1/2", "1/4"), ("0", "1")])
        assert s.dim == 2
        assert not s.nonincreasing

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DomainError):
            series_spec([("1", "2"), "3"])

    def test_empty_series(self):
        s = series_spec([])
        assert s.count == 0 and s.dim == 1
        assert scalars(achievement_set(s)) == [0]
        s2 = series_spec([], dim=2)
        assert achievement_set(s2).elements == (point(0, 0),)

    def test_dim_argument_must_agree_with_terms(self):
        with pytest.raises(DomainError):
            series_spec(["1/2"], dim=2)


class TestSubsums:
    def test_initial_subsums_base_case(self):
        assert scalars(initial_subsums(GEO, 0)) == [0]

    def test_initial_subsums_two_terms(self):
        s = series_spec(["1/2", "1/4"])
        assert scalars(initial_subsums(s, 2)) == \
            [0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]

    def test_initial_subsums_geometric_example(self):
        want = [0, Fraction(1, 16), Fraction(1, 4), Fraction(5, 16),
                1, Fraction(17, 16), Fraction(5, 4), Fraction(21, 16)]
        assert scalars(initial_subsums(GEO, 3)) == want

    def test_remainder_subsums_example(self):
        assert scalars(remainder_subsums(GEO, 1)) == \
            [0, Fraction(1, 16), Fraction(1, 4), Fraction(5, 16)]
        assert remainder_sum(GEO, 1) == Fraction(5, 16)

    def test_remainder_at_the_end(self):
        assert scalars(remainder_subsums(GEO, 3)) == [0]
        assert remainder_sum(GEO, 3) == 0

    def test_index_bounds(self):
        for k in (-1, 4):
            with pytest.raises(DomainError):
                initial_subsums(GEO, k)
            with pytest.raises(DomainError):
                remainder_subsums(GEO, k)

    @pytest.mark.parametrize("check, least", [
        (initial_subsums, 0),
        (remainder_subsums, 0),
        (remainder_sum, 0),
        (first_gap_check_1d, 1),
        (lambda s, k: first_gap_lemma_2d(series_spec([(t, t) for (t,) in s.terms]), k), 1),
    ], ids=["initial_subsums", "remainder_subsums", "remainder_sum", "first_gap_check_1d",
            "first_gap_lemma_2d"])
    def test_every_index_check_gives_the_same_text(self, check, least):
        for k in (least - 1, 4, -7):
            with pytest.raises(DomainError) as info:
                check(GEO, k)
            assert str(info.value) == f"k must lie in [{least}, 3], got {k}"

    def test_achievement_set_examples(self):
        grid = series_spec(["1/2", "1/4", "1/8", "1/16"])
        assert scalars(achievement_set(grid)) == \
            [Fraction(k, 16) for k in range(16)]
        assert scalars(achievement_set(GEO)) == scalars(initial_subsums(GEO, 3))

    def test_achievement_set_requires_nonnegative_terms(self):
        with pytest.raises(DomainError):
            achievement_set(series_spec(["-1/2", "1"]))

    def test_sums_are_kept_on_their_series_and_die_with_it(self):
        terms = ["1/3", "1/9", "1/2", "1/27"]
        s = series_spec(terms)
        E = achievement_set(s)
        assert achievement_set(s) is E
        # The kept E must not stand in for the sums of a slice of the terms.
        assert initial_subsums(s, 1).elements == tuple(oracles.naive_subset_sums(s.terms[:1]))
        assert remainder_subsums(s, 1).elements == tuple(oracles.naive_subset_sums(s.terms[1:]))
        # Nor for the P-sums of the same terms.
        T = _subset_sums(s, s.ints, s.scale, None, (1, 2))
        assert [x for (x,) in T.elements] == oracles.naive_psum([0, 1, 2], [x for (x,) in s.terms])
        gone = weakref.ref(E)
        del s, E
        gc.collect()
        assert gone() is None

    def test_budget_guard(self):
        s = series_spec(["1"] * 12)
        with pytest.raises(BudgetExceededError):
            achievement_set(s, budget=100)

    def test_matches_naive_subset_sums(self):
        r = random.Random(401)
        for _ in range(80):
            s = rand_series(r, max_terms=10)
            got = [tuple(p) for p in achievement_set(s).elements]
            assert got == oracles.naive_subset_sums(s.terms)

    def test_decomposition_at_every_index(self):
        r = random.Random(402)
        for _ in range(40):
            s = rand_series(r, max_terms=8)
            E = achievement_set(s)
            for k in range(s.count + 1):
                assert minkowski_sum(initial_subsums(s, k),
                                     remainder_subsums(s, k)) == E

    def test_scaling_invariance(self):
        r = random.Random(403)
        for _ in range(40):
            s = rand_series(r, max_terms=8)
            c = Fraction(r.randint(1, 8), r.randint(1, 8))
            scaled = series_spec([t[0] * c for t in s.terms])
            want = sorted(v[0] * c for v in achievement_set(s).elements)
            assert scalars(achievement_set(scaled)) == want


class TestFindGaps:
    def test_three_point_example(self):
        E = finite_set(RationalSpace(1), [point(0), point("1/4"), point(1)])
        gaps = find_gaps(E)
        assert [(g.alpha, g.beta, g.dominating) for g in gaps] == [
            (0, Fraction(1, 4), True),
            (Fraction(1, 4), 1, True),
        ]
        assert gaps[1].length == Fraction(3, 4)

    def test_uniform_grid_has_one_dominating_gap(self):
        E = achievement_set(series_spec(["1/2", "1/4", "1/8", "1/16"]))
        gaps = find_gaps(E)
        assert len(gaps) == 15
        assert [g.dominating for g in gaps] == [True] + [False] * 14

    def test_geometric_example_dominating_gaps(self):
        gaps = find_gaps(achievement_set(GEO))
        dom = [(g.alpha, g.beta) for g in gaps if g.dominating]
        assert dom == [(0, Fraction(1, 16)),
                       (Fraction(1, 16), Fraction(1, 4)),
                       (Fraction(5, 16), 1)]

    def test_singleton_has_no_gaps(self):
        assert find_gaps(finite_set(RationalSpace(1), [point(3)])) == []

    def test_requires_one_dimension(self):
        with pytest.raises(DomainError):
            find_gaps(finite_set(RationalSpace(2), [point(0, 0)]))

    def test_matches_naive_classification(self):
        r = random.Random(404)
        for _ in range(80):
            s = rand_series(r, max_terms=8)
            E = achievement_set(s)
            got = [(g.alpha, g.beta, g.dominating) for g in find_gaps(E)]
            assert got == oracles.naive_gaps(v[0] for v in E.elements)


class TestThirdGap:
    def test_geometric_example(self):
        report = third_gap_check(GEO)
        assert report.passed
        text = " ".join(item.label + " " + item.detail for item in report.items)
        assert "(5/16, 1)" in text and "m=1" in text

    def test_binary_grid_example(self):
        report = third_gap_check(series_spec(["1/2", "1/4", "1/8", "1/16"]))
        assert report.passed
        assert any("m=4" in item.detail for item in report.items)

    def test_single_term_series(self):
        report = third_gap_check(series_spec(["3/4"]))
        assert report.passed
        assert any("m=1" in item.detail for item in report.items)

    def test_requires_sorted_nonnegative_terms(self):
        with pytest.raises(DomainError):
            third_gap_check(series_spec(["1/4", "1/2"]))
        with pytest.raises(DomainError):
            third_gap_check(series_spec(["1/2", "-1/4"]))

    def test_an_unexplained_gap_fails_the_report(self, monkeypatch, tmp_path, capsys):
        # Valid input reaches the refutation only if the lemma fails, so an
        # empty term-and-tail table stands in for a counterexample: no
        # dominating gap of GEO is then explained.
        monkeypatch.setattr("spectrekit.series._explains", lambda s: {})
        report = third_gap_check(GEO)
        assert not report.passed
        assert report.failures() == list(report.items)
        path = tmp_path / "geo.json"
        path.write_text(dumps(encode_series(GEO)))
        assert run(["series", "third-gap", "--series", str(path)]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "items": [{"detail": "no index provides this term and tail sum",
                       "label": f"dominating gap {gap}", "passed": False}
                      for gap in ("(0, 1/16)", "(1/16, 1/4)", "(5/16, 1)")],
            "name": "third-gap", "note": "", "passed": False}

    def test_random_series_always_pass(self):
        r = random.Random(405)
        for _ in range(60):
            s = rand_noninc_series(r, max_terms=12)
            report = third_gap_check(s)
            assert report.passed, report.failures()

    def test_dominating_gap_data_is_re_derivable(self):
        # Independently reconstruct (m, a_m, r_m) for each dominating gap.
        r = random.Random(406)
        for _ in range(40):
            s = rand_noninc_series(r, max_terms=10)
            E = achievement_set(s)
            for alpha, beta, dom in oracles.naive_gaps(v[0] for v in E.elements):
                if not dom:
                    continue
                hits = [m for m in range(1, s.count + 1)
                        if s.terms[m - 1][0] == beta and remainder_sum(s, m) == alpha]
                assert hits, (s.terms, alpha, beta)


class TestFirstGap1D:
    def test_geometric_prediction(self):
        gap = first_gap_check_1d(GEO, 1)
        assert gap is not None
        assert (gap.alpha, gap.beta) == (Fraction(5, 16), 1)

    def test_equal_pair_prediction(self):
        gap = first_gap_check_1d(series_spec(["1/2", "1/2"]), 1)
        assert (gap.alpha, gap.beta) == (0, Fraction(1, 2))

    def test_equal_terms_are_excluded_from_the_side_sum(self):
        gap = first_gap_check_1d(series_spec(["1/2", "1/4", "1/4"]), 2)
        assert (gap.alpha, gap.beta) == (0, Fraction(1, 4))

    def test_absent_when_small_terms_reach_the_threshold(self):
        s = series_spec(["1/2", "1/4", "1/8", "1/16", "1/16"])
        assert first_gap_check_1d(s, 1) is None

    def test_index_validation(self):
        with pytest.raises(DomainError):
            first_gap_check_1d(GEO, 0)
        with pytest.raises(DomainError):
            first_gap_check_1d(GEO, 4)

    def test_prediction_is_always_a_detected_gap(self):
        r = random.Random(407)
        for _ in range(60):
            s = rand_series(r, max_terms=10)
            E = achievement_set(s)
            detected = {(g.alpha, g.beta) for g in find_gaps(E)}
            for k in range(1, s.count + 1):
                gap = first_gap_check_1d(s, k)
                if gap is not None:
                    assert (gap.alpha, gap.beta) in detected

    def test_prediction_carries_the_detected_dominating_flag(self):
        # Small denominators give zero and tied terms; every other series has runs.
        r = random.Random(408)
        for i in range(200):
            s = rand_series(r, max_terms=14, max_den=4, with_runs=i % 2 == 1)
            gaps = set(find_gaps(achievement_set(s)))
            for k in range(1, s.count + 1):
                gap = first_gap_check_1d(s, k)
                assert gap is None or gap in gaps, (s.terms, k)

    def test_the_budget_counts_only_the_terms_below_a_k(self, tmp_path, capsys):
        # E has 2^24 sums, past the default budget of 2^20, but only the
        # 12 terms after a_12 lie below it, and 23 lie below a_1.
        terms = [Fraction(1, 3 ** k) + Fraction(1, 7 ** k) for k in range(1, 25)]
        path = tmp_path / "s.json"
        path.write_text(dumps(encode_series(series_spec(terms))))
        assert run(["series", "first-gap", "--k", "12", "--series", str(path)]) == 0
        sums = sorted({v for (v,) in oracles.naive_subset_sums([(t,) for t in terms[12:]])})
        alpha, beta = sums[-1], terms[11]
        dominating = all(beta - alpha > hi - lo for lo, hi in zip(sums, sums[1:]))
        assert json.loads(capsys.readouterr().out) == {"applicable": True, "gap": {
            "alpha": str(alpha), "beta": str(beta), "dominating": dominating,
            "length": str(beta - alpha)}}
        assert run(["series", "first-gap", "--k", "1", "--series", str(path)]) == 3
        assert capsys.readouterr().err == \
            "error: enumeration of size 2^23 exceeds budget 1048576\n"


class TestSeriesSpectreChecks:
    def test_equal_run_example(self):
        s = series_spec(["1/2", "1/2", "1/2"])
        E = achievement_set(s)
        assert point(1) in spectre(E)
        report = series_spectre_checks(s)
        assert report.passed, report.failures()

    def test_geometric_terms_belong_to_spectre(self):
        report = series_spectre_checks(GEO)
        assert report.passed
        S = spectre(achievement_set(GEO))
        for t in GEO.terms:
            assert t in S

    def test_two_term_chain(self):
        report = series_spectre_checks(series_spec(["1/2", "1/4"]))
        assert report.passed
        labels = [item.label for item in report.items]
        assert any("S(F_" in lab for lab in labels)
        assert any("S(E_" in lab for lab in labels)

    def test_random_series_pass(self):
        r = random.Random(408)
        for _ in range(40):
            s = rand_series(r, max_terms=8, with_runs=True)
            report = series_spectre_checks(s)
            assert report.passed, report.failures()

    @pytest.mark.parametrize("n", range(5))
    def test_one_spectre_per_distinct_set(self, monkeypatch, n):
        # S(F_k) for k < N, S(E_k) for k > 0, and S(E) = S(F_N) = S(E_0) once.
        calls = []

        def counted(A, *args, **kwargs):
            calls.append(A)
            return spectre(A, *args, **kwargs)

        monkeypatch.setattr("spectrekit.series.spectre", counted)
        s = series_spec([Fraction(1, 3 ** k) for k in range(n)])
        assert series_spectre_checks(s).passed
        assert len(calls) == 2 * n + 1
        # Only E is kept on the series, not one set per slice.
        assert list(s._sums) == [(s.ints, s.scale, (1,))]

    def test_random_planar_series_pass(self):
        r = random.Random(409)
        for _ in range(25):
            s = rand_series(r, max_terms=7, dim=2)
            report = series_spectre_checks(s)
            assert report.passed, report.failures()
