"""The exact text of each domain, group and input error whose text no other
test checks.  Callers and scripts match on these texts, so each one is pinned
here."""

from __future__ import annotations

import pytest

from spectrekit import (
    DomainError,
    FiniteAbelian,
    GroupMismatchError,
    RationalSpace,
    RectGap,
    achievement_set_2d,
    finite_set,
    fatten_contains,
    first_gap_check_1d,
    first_gap_lemma_2d,
    gap_translation_check,
    hausdorff,
    minkowski_sum,
    point,
    probe_spectre_continuity,
    second_gap_lemma_2d,
    series_spec,
    series_spectre_checks,
    third_gap_check,
)
from spectrekit.cli import main
from spectrekit.errors import ParseError
from spectrekit.formats import decode_pspec, decode_series, decode_set

LINE = finite_set(RationalSpace(1), [point(0), point(1)])
PLANAR = series_spec([("1/2", "1/3"), ("1/4", "1/9")])
P_LINE = series_spec(["1/2", "1/4"], coeffs=[0, 1, 2])
P_PLANAR = series_spec([("1/2", "1/3"), ("1/4", "1/9")], coeffs=[0, 1, 2])
MENU_TEXT = "this rule is proved only for the coefficient menu P = {0, 1}"
Q1_GROUP = {"type": "Qd", "dim": 1}
PLANE = finite_set(RationalSpace(2), [point(0, 0)])
Z5 = finite_set(FiniteAbelian((5,)), [point(0), point(2)])
Q1_NAME, Q2_NAME = "RationalSpace(dim=1, metric='sup')", "RationalSpace(dim=2, metric='sup')"
Z5_NAME = "FiniteAbelian(moduli=(5,))"

# (call, error class, exact text); argparse errors exit 2 with the text on stderr.
ERRORS = {
    # series_spec checks the menu P; decode_pspec then requires the terms to be
    # present and nonnegative.
    "pspec-empty-menu": (lambda: series_spec(["1"], coeffs=[]), DomainError,
                         "the coefficient menu must be nonempty"),
    "pspec-negative-coefficient": (lambda: series_spec(["1"], coeffs=["1", "-1"]), DomainError,
                                   "coefficients must be nonnegative"),
    "pspec-menu-without-zero": (lambda: series_spec(["1"], coeffs=["1", "2"]), DomainError,
                                "the coefficient menu must contain 0"),
    "pspec-no-terms": (lambda: decode_pspec({"P": ["0", "1"], "terms": []}), DomainError,
                       "at least one term is required"),
    "pspec-negative-term": (lambda: decode_pspec({"P": ["0", "1"], "terms": ["1", "-1/2"]}),
                            DomainError, "terms must be nonnegative"),
    "pspec-menu-before-terms": (lambda: decode_pspec({"P": ["1"], "terms": []}), DomainError,
                                "the coefficient menu must contain 0"),
    # The rules proved only for P = {0, 1} check the menu before anything else.
    "first-gap-menu": (lambda: first_gap_check_1d(P_LINE, 1), DomainError, MENU_TEXT),
    "third-gap-menu": (lambda: third_gap_check(P_LINE), DomainError, MENU_TEXT),
    "series-spectre-menu": (lambda: series_spectre_checks(P_LINE), DomainError, MENU_TEXT),
    "planar-first-gap-menu": (lambda: first_gap_lemma_2d(P_PLANAR, 0), DomainError, MENU_TEXT),
    "planar-second-gap-menu": (lambda: second_gap_lemma_2d(P_PLANAR, RectGap(0, 1, 0, 1)),
                               DomainError, MENU_TEXT),
    "gap-translation-planar": (
        lambda: gap_translation_check(finite_set(RationalSpace(2), [point(0, 0)]), (0, 1)),
        DomainError, "a one-dimensional rational set is required"),
    "first-gap-planar": (lambda: first_gap_check_1d(PLANAR, 1), DomainError,
                         "this gap prediction applies to scalar series"),
    "first-gap-negative": (lambda: first_gap_check_1d(series_spec(["1", "-1/2"]), 1),
                           DomainError, "nonnegative terms required"),
    # The sign is checked before the budget.
    "planar-negative": (lambda: achievement_set_2d(series_spec([("1/2", "-1/3")]), budget=0),
                        DomainError, "achievement sets are defined for nonnegative terms"),
    # first_gap_lemma_2d checks the menu, k, then the dimension, then the sign.
    "planar-first-gap-1d": (lambda: first_gap_lemma_2d(series_spec(["1/2", "1/4"]), 1),
                            DomainError, "the planar first-gap lemma needs two-dimensional terms"),
    "planar-first-gap-3d": (lambda: first_gap_lemma_2d(series_spec([("1", "1", "1")]), 1),
                            DomainError, "the planar first-gap lemma needs two-dimensional terms"),
    "planar-first-gap-negative": (
        lambda: first_gap_lemma_2d(series_spec([("1/2", "-1/3"), ("1/4", "1/9")]), 1),
        DomainError, "the planar first-gap lemma needs nonnegative terms"),
    "planar-first-gap-negative-k0": (
        lambda: first_gap_lemma_2d(series_spec([("1/2", "-1/3"), ("1/4", "1/9")]), 0),
        DomainError, "k must lie in [1, 2], got 0"),
    "points-object": (lambda: decode_set({"group": Q1_GROUP, "points": {}}), ParseError,
                      "points must be a JSON array, got dict"),
    "points-empty": (lambda: decode_set({"group": Q1_GROUP, "points": []}), ParseError,
                     "points must be nonempty"),
    "series-dim-string": (lambda: decode_series({"terms": [], "dim": "2"}), ParseError,
                          "dim must be an integer"),
    "budget-not-an-int": (lambda: main(["spectre", "--set", "a.json", "--budget", "x"]),
                          SystemExit, "argument --budget: invalid int value: 'x'"),
    # A group mismatch names the groups in operand order; a bad radius comes first.
    "minkowski-line-plane": (lambda: minkowski_sum(LINE, PLANE), GroupMismatchError,
                             f"ambient groups differ: {Q1_NAME} vs {Q2_NAME}"),
    "minkowski-plane-line": (lambda: minkowski_sum(PLANE, LINE), GroupMismatchError,
                             f"ambient groups differ: {Q2_NAME} vs {Q1_NAME}"),
    "hausdorff-line-z5": (lambda: hausdorff(LINE, Z5), GroupMismatchError,
                          f"ambient groups differ: {Q1_NAME} vs {Z5_NAME}"),
    "hausdorff-z5-line": (lambda: hausdorff(Z5, LINE), GroupMismatchError,
                          f"ambient groups differ: {Z5_NAME} vs {Q1_NAME}"),
    # fatten_contains(B, A, eps) asks whether B lies near A, so A's group comes first.
    "fatten-line-in-plane": (lambda: fatten_contains(LINE, PLANE, 1), GroupMismatchError,
                             f"ambient groups differ: {Q2_NAME} vs {Q1_NAME}"),
    "fatten-plane-in-line": (lambda: fatten_contains(PLANE, LINE, 1), GroupMismatchError,
                             f"ambient groups differ: {Q1_NAME} vs {Q2_NAME}"),
    "fatten-zero-radius": (lambda: fatten_contains(LINE, PLANE, 0), DomainError,
                           "fattening radius must be positive"),
    "probe-member-elsewhere": (lambda: probe_spectre_continuity(LINE, [LINE, PLANE], 1),
                               GroupMismatchError,
                               f"ambient groups differ: {Q1_NAME} vs {Q2_NAME}"),
}


@pytest.mark.parametrize("call,error,text", ERRORS.values(), ids=list(ERRORS))
def test_each_error_has_its_exact_text(capsys, call, error, text):
    with pytest.raises(error) as info:
        call()
    if error is SystemExit:
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(f": error: {text}\n")
    else:
        assert str(info.value) == text

