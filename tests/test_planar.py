"""Planar achievement sets, axis and rectangular gaps, and the gap lemmas."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import oracles
from spectrekit import (
    DomainError,
    RationalSpace,
    RectGap,
    achievement_set_2d,
    axis_gaps,
    finite_set,
    first_gap_check_1d,
    first_gap_lemma_2d,
    point,
    rect_gaps,
    second_gap_lemma_2d,
    series_spec,
    third_gap_failure_witness,
)
from gen import rand_series
from spectrekit.planar import example_series, is_rect_gap
from spectrekit.rational import format_rat

Q2 = RationalSpace(2)

TWELVE_POINTS = [
    ("0", "0"), ("1/8", "7/8"), ("3/16", "3/16"), ("5/16", "17/16"),
    ("3/8", "3/8"), ("1/2", "5/4"), ("7/8", "1/8"), ("1", "1"),
    ("17/16", "5/16"), ("19/16", "19/16"), ("5/4", "1/2"), ("11/8", "11/8"),
]


def pset(pairs):
    return finite_set(Q2, [point(x, y) for x, y in pairs])


class TestAchievementSet2D:
    def test_golden_example_enumerates_twelve_points(self):
        E = achievement_set_2d(example_series())
        assert E.elements == tuple(point(x, y) for x, y in TWELVE_POINTS)

    def test_empty_series(self):
        E = achievement_set_2d(series_spec([], dim=2))
        assert E.elements == (point(0, 0),)

    def test_single_term(self):
        E = achievement_set_2d(series_spec([("1/2", "1/2")]))
        assert E.elements == (point(0, 0), point("1/2", "1/2"))

    def test_rejects_scalar_series(self):
        with pytest.raises(DomainError):
            achievement_set_2d(series_spec(["1/2"]))

    def test_matches_naive_subset_sums(self):
        r = random.Random(501)
        for _ in range(40):
            s = rand_series(r, max_terms=8, dim=2)
            got = [tuple(p) for p in achievement_set_2d(s).elements]
            assert got == oracles.naive_subset_sums(s.terms)


class TestAxisGaps:
    def test_golden_example_has_the_known_x_gap(self):
        gaps = axis_gaps(achievement_set_2d(example_series()))
        x_gaps = [(g.lo, g.hi) for g in gaps if g.axis == "x"]
        assert (Fraction(1, 2), Fraction(7, 8)) in x_gaps
        assert len(gaps) == 22

    def test_two_diagonal_points(self):
        gaps = axis_gaps(pset([("0", "0"), ("1", "1")]))
        assert [(g.axis, g.lo, g.hi) for g in gaps] == [
            ("x", 0, 1), ("y", 0, 1)]

    def test_shared_coordinate_produces_no_gap(self):
        gaps = axis_gaps(pset([("0", "0"), ("0", "1")]))
        assert [(g.axis, g.lo, g.hi) for g in gaps] == [("y", 0, 1)]

    def test_gap_strips_are_empty(self):
        r = random.Random(502)
        for _ in range(30):
            s = rand_series(r, max_terms=6, dim=2)
            E = achievement_set_2d(s)
            for g in axis_gaps(E):
                idx = 0 if g.axis == "x" else 1
                assert all(not (g.lo < p[idx] < g.hi) for p in E.elements)
                assert any(p[idx] == g.lo for p in E.elements)
                assert any(p[idx] == g.hi for p in E.elements)
            assert g.length == g.hi - g.lo

    def test_requires_planar_input(self):
        with pytest.raises(DomainError):
            axis_gaps(finite_set(RationalSpace(1), [point(0)]))


class TestRectGaps:
    def test_golden_largest_gap(self):
        E = achievement_set_2d(example_series())
        largest = rect_gaps(E, mode="largest-by-area")
        assert [(g.a, g.b, g.c, g.d) for g in largest] == \
            [(Fraction(3, 8), 1, Fraction(3, 8), 1)]
        assert largest[0].area == Fraction(25, 64)
        assert largest[0].lower == point("3/8", "3/8")
        assert largest[0].upper == point(1, 1)

    def test_golden_full_scan_matches_naive(self):
        E = achievement_set_2d(example_series())
        got = [(g.a, g.b, g.c, g.d) for g in rect_gaps(E)]
        assert len(got) == 21
        assert sorted(got) == oracles.naive_rect_gaps(E.elements)

    def test_two_diagonal_points(self):
        gaps = rect_gaps(pset([("0", "0"), ("1", "1")]))
        assert [(g.a, g.b, g.c, g.d) for g in gaps] == [(0, 1, 0, 1)]

    def test_full_grid_has_no_gaps(self):
        # Every candidate rectangle over a full grid contains all four of
        # its grid corners, never just the two defining ones.
        cells = [(Fraction(x, 2), Fraction(y, 2)) for x in range(3) for y in range(3)]
        assert rect_gaps(finite_set(Q2, [point(*c) for c in cells])) == []

    def test_antichain_pair_with_no_gap(self):
        gaps = rect_gaps(pset([("0", "1"), ("1", "0")]))
        assert gaps == []

    def test_matches_naive_on_random_sets(self):
        r = random.Random(503)
        for _ in range(40):
            s = rand_series(r, max_terms=7, dim=2)
            E = achievement_set_2d(s)
            got = sorted((g.a, g.b, g.c, g.d) for g in rect_gaps(E))
            assert got == oracles.naive_rect_gaps(E.elements)

    def test_every_reported_gap_passes_the_defining_recheck(self):
        r = random.Random(504)
        for _ in range(40):
            s = rand_series(r, max_terms=7, dim=2)
            E = achievement_set_2d(s)
            for g in rect_gaps(E):
                assert is_rect_gap(E, g.a, g.b, g.c, g.d)
                assert oracles.naive_rect_gap_ok(E.elements, g.a, g.b, g.c, g.d)

    def test_largest_mode_is_the_max_area_slice(self):
        r = random.Random(505)
        for _ in range(30):
            s = rand_series(r, max_terms=7, dim=2)
            E = achievement_set_2d(s)
            all_gaps = rect_gaps(E)
            largest = rect_gaps(E, mode="largest-by-area")
            if not all_gaps:
                assert largest == []
                continue
            top = max(g.area for g in all_gaps)
            assert largest == [g for g in all_gaps if g.area == top]

    def test_rejects_unknown_mode(self):
        with pytest.raises(DomainError):
            rect_gaps(pset([("0", "0")]), mode="widest")


def _oracle_items(terms, k):
    """The first-gap-2d report items that the enumeration oracle's verdicts call for."""
    items = []
    for names, (applicable, ends, holds) in zip(
            (("x-gap", "x-gap"), ("y-gap", "y-gap"), ("rect-gap", "rect gap")),
            oracles.naive_first_gap_2d(terms, k)):
        if applicable:
            shown = " x ".join(f"({format_rat(lo)}, {format_rat(hi)})"
                               for lo, hi in zip(ends[::2], ends[1::2]))
            items.append((f"{names[1]} {shown}", holds, ""))
        else:
            items.append((f"{names[0]} prediction", True, "hypothesis not satisfied"))
    return tuple(items)


class TestFirstGapLemma2D:
    def test_golden_first_term(self):
        report = first_gap_lemma_2d(example_series(), 1)
        assert report.passed, report.failures()
        labels = " ".join(item.label for item in report.items)
        assert "(1/2, 7/8)" in labels

    def test_golden_third_term(self):
        report = first_gap_lemma_2d(example_series(), 3)
        assert report.passed, report.failures()
        labels = " ".join(item.label for item in report.items)
        assert "(1/8, 3/16)" in labels

    def test_rectangular_prediction_when_hypotheses_align(self):
        s = series_spec([("1/2", "1/2"), ("1/8", "1/8")])
        report = first_gap_lemma_2d(s, 1)
        assert report.passed, report.failures()
        E = achievement_set_2d(s)
        assert is_rect_gap(E, Fraction(1, 8), Fraction(1, 2),
                           Fraction(1, 8), Fraction(1, 2))

    def test_index_validation(self):
        with pytest.raises(DomainError):
            first_gap_lemma_2d(example_series(), 0)

    def test_takes_no_budget(self):
        # The report enumerates nothing, so there is no budget to pass.
        with pytest.raises(TypeError):
            first_gap_lemma_2d(example_series(), 1, budget=0)

    def test_random_predictions_are_confirmed(self):
        # The report never builds E; the oracle checks each prediction on all
        # subset sums.  Small denominators give zero and tied coordinates, runs
        # give repeated terms, and terms (x, x^2) order both axes alike, so
        # A_x = A_y and the rectangle is often predicted.  One series in ten
        # has up to 10 terms; the rest stay short, as the oracle enumerates E
        # for every k.
        r = random.Random(508)
        cases = rects = 0
        while cases < 2000:
            count = 10 if r.random() < 0.1 else r.choice((3, 5, 7))
            s = rand_series(r, max_terms=count, dim=2, max_den=r.choice((2, 4, 16)),
                            with_runs=r.random() < 0.4)
            if r.random() < 0.4:
                s = series_spec([(x, x * x) for x, _ in s.terms])
            for k in range(1, s.count + 1):
                want = _oracle_items(s.terms, k)
                assert first_gap_lemma_2d(s, k).items == want, (s.terms, k)
                rects += want[2][0].startswith("rect gap ")
                cases += 1
        assert rects >= 200

    def test_axis_items_are_the_line_lemma_on_each_coordinate(self):
        # The projection of E on an axis is that coordinate's achievement set,
        # so each axis item is the one-dimensional first-gap lemma there.
        r = random.Random(507)
        for _ in range(40):
            s = rand_series(r, max_terms=8, dim=2)
            for k in range(1, s.count + 1):
                items = first_gap_lemma_2d(s, k).items
                for i, axis in enumerate("xy"):
                    gap = first_gap_check_1d(series_spec([t[i] for t in s.terms]), k)
                    if gap is None:
                        want = (f"{axis}-gap prediction", True, "hypothesis not satisfied")
                    else:
                        want = (f"{axis}-gap ({format_rat(gap.alpha)}, "
                                f"{format_rat(gap.beta)})", True, "")
                    assert items[i] == want, (s.terms, k)


class TestSecondGapLemma2D:
    def test_golden_gap(self):
        report = second_gap_lemma_2d(
            example_series(), RectGap(Fraction(3, 8), 1, Fraction(3, 8), 1))
        assert report.passed, report.failures()
        labels = " ".join(item.label for item in report.items)
        assert "F_2" in labels
        assert any("(0, 0)" in item.detail for item in report.items)

    def test_single_term_series(self):
        s = series_spec([("1", "1")])
        report = second_gap_lemma_2d(s, RectGap(Fraction(0), Fraction(1),
                                                Fraction(0), Fraction(1)))
        assert report.passed, report.failures()
        assert any("F_1" in item.label for item in report.items)

    def test_two_term_example(self):
        s = series_spec([("1/2", "1/2"), ("1/8", "1/8")])
        report = second_gap_lemma_2d(s, RectGap(Fraction(1, 8), Fraction(1, 2),
                                                Fraction(1, 8), Fraction(1, 2)))
        assert report.passed, report.failures()
        assert any("F_1" in item.label for item in report.items)

    def test_rejects_rectangles_that_are_not_gaps(self):
        report = second_gap_lemma_2d(
            example_series(), RectGap(Fraction(0), 1, Fraction(0), 1))
        assert not report.passed

    def test_every_detected_gap_passes(self):
        r = random.Random(507)
        for _ in range(30):
            s = rand_series(r, max_terms=6, dim=2)
            E = achievement_set_2d(s)
            for g in rect_gaps(E):
                report = second_gap_lemma_2d(s, g)
                assert report.passed, (s.terms, g, report.failures())


class TestThirdGapFailureWitness:
    def test_report_passes_with_three_items(self):
        report = third_gap_failure_witness()
        assert report.passed
        assert len(report.items) == 3

    def test_the_upper_corner_is_in_the_set_but_is_no_term(self):
        s = example_series()
        E = achievement_set_2d(s)
        assert point(1, 1) in E
        assert point("3/8", "3/8") in E
        assert all(t != point(1, 1) for t in s.terms)
