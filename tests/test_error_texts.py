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
    achievement_set_2d,
    finite_set,
    fatten_contains,
    first_gap_check_1d,
    gap_translation_check,
    hausdorff,
    minkowski_sum,
    perturbation_family,
    point,
    probe_spectre_continuity,
    pspec,
    remainder_sum,
    series_spec,
)
from spectrekit.cli import main
from spectrekit.errors import ParseError
from spectrekit.formats import decode_series, decode_set

LINE = finite_set(RationalSpace(1), [point(0), point(1)])
PLANAR = series_spec([("1/2", "1/3"), ("1/4", "1/9")])
Q1_GROUP = {"type": "Qd", "dim": 1}
PLANE = finite_set(RationalSpace(2), [point(0, 0)])
Z5 = finite_set(FiniteAbelian((5,)), [point(0), point(2)])
Q1_NAME, Q2_NAME = "RationalSpace(dim=1, metric='sup')", "RationalSpace(dim=2, metric='sup')"
Z5_NAME = "FiniteAbelian(moduli=(5,))"

# (call, error class, exact text); argparse errors exit 2 with the text on stderr.
ERRORS = {
    "pspec-empty-menu": (lambda: pspec([], ["1"]), DomainError,
                         "the coefficient menu must be nonempty"),
    "pspec-no-terms": (lambda: pspec(["0", "1"], []), DomainError,
                       "at least one term is required"),
    "pspec-negative-term": (lambda: pspec(["0", "1"], ["1", "-1/2"]), DomainError,
                            "terms must be nonnegative"),
    "gap-translation-planar": (
        lambda: gap_translation_check(finite_set(RationalSpace(2), [point(0, 0)]), (0, 1)),
        DomainError, "a one-dimensional rational set is required"),
    "perturbation-finite-group": (
        lambda: perturbation_family(finite_set(FiniteAbelian((5,)), [point(0), point(1)])),
        DomainError, "perturbation families need a rational-space context"),
    "perturbation-one-member": (lambda: perturbation_family(LINE, count=1), DomainError,
                                "need at least two family members"),
    "remainder-planar": (lambda: remainder_sum(PLANAR, 1), DomainError,
                         "remainder sums are defined for scalar series"),
    "first-gap-planar": (lambda: first_gap_check_1d(PLANAR, 1), DomainError,
                         "this gap prediction applies to scalar series"),
    "first-gap-negative": (lambda: first_gap_check_1d(series_spec(["1", "-1/2"]), 1),
                           DomainError, "nonnegative terms required"),
    # The sign is checked before the budget.
    "planar-negative": (lambda: achievement_set_2d(series_spec([("1/2", "-1/3")]), budget=0),
                        DomainError, "achievement sets are defined for nonnegative terms"),
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

