"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single ``[PASS]`` or
``[FAIL]`` line (run with ``pytest -s`` to see them all) before asserting.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from typing import List

from spectrekit import (
    FiniteAbelian,
    RationalSpace,
    densify_to_netset,
    difference_set,
    dist,
    finite_set,
    find_gaps,
    first_gap_lemma_2d,
    gap_translation_check,
    hausdorff,
    achievement_set_2d,
    cantor_pair_demo,
    is_net_set,
    is_non_sliding,
    min_positive_distance,
    minkowski_sum,
    negate,
    probe_spectre_continuity,
    psum_set,
    rect_gaps,
    refute_spectre_image,
    second_gap_lemma_2d,
    series_spectre_checks,
    spectre,
    subgroup_generated,
    third_gap_check,
    translate,
    zero,
)
from spectrekit.cli import run
from gen import (
    rand_finab_ctx,
    rand_finab_set,
    rand_noninc_series,
    rand_point,
    rand_pspec,
    rand_qset,
    rand_series,
    rand_unit_qset,
)
from oracles import dense_translation_supremum, translation_predicate

Q1 = RationalSpace(1)
Q2 = RationalSpace(2)


def _verdict(num: int, label: str, failures: List[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num}: {label}")
    assert not failures, f"criterion {num}: " + "; ".join(failures[:5])


EXPECTED_TWELVE = [
    ["0", "0"], ["1/8", "7/8"], ["3/16", "3/16"], ["5/16", "17/16"],
    ["3/8", "3/8"], ["1/2", "5/4"], ["7/8", "1/8"], ["1", "1"],
    ["17/16", "5/16"], ["19/16", "19/16"], ["5/4", "1/2"], ["11/8", "11/8"],
]


def test_c01_planar_example_golden(capsys):
    t0 = time.perf_counter()
    code = run(["planar", "example", "--check"])
    elapsed = time.perf_counter() - t0
    out = json.loads(capsys.readouterr().out)
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    if out["set"]["points"] != EXPECTED_TWELVE:
        failures.append("achievement set differs from the twelve expected points")
    if out["largest_rect_gaps"] != [
            {"a": "3/8", "area": "25/64", "b": "1", "c": "3/8", "d": "1"}]:
        failures.append(f"largest rectangular gap is {out['largest_rect_gaps']}")
    if ["1", "1"] in out["series"]["terms"]:
        failures.append("the corner (1, 1) appears as a term")
    if not out["report"]["passed"]:
        failures.append("the example report failed")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s")
    _verdict(1, "planar example: twelve exact points, largest gap "
                "(3/8,1)x(3/8,1), corner is no term, under 1s", failures)


def test_c02_fast_oracle_equivalence():
    r = random.Random(1002)
    failures = []
    t0 = time.perf_counter()
    for i in range(1000):
        A = rand_qset(r)
        if spectre(A, mode="fast") != spectre(A, mode="oracle"):
            failures.append(f"modes disagree on random set {i}")
    for n in (6, 7):
        ctx = FiniteAbelian((n,))
        elems = ctx.elements()
        for mask in range(1, 1 << n):
            A = finite_set(ctx, [elems[i] for i in range(n) if mask >> i & 1])
            if spectre(A, mode="fast") != spectre(A, mode="oracle"):
                failures.append(f"modes disagree on Z_{n} mask {mask}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s")
    _verdict(2, "fast spectre equals oracle spectre on 1000 random sets and "
                "all nonempty subsets of Z_6 and Z_7, under 10s", failures)


def test_c03_spectre_invariants():
    r = random.Random(1003)
    failures = []
    for i in range(500):
        if i % 5 < 3:
            A = rand_qset(r)
        else:
            A = rand_finab_set(r, rand_finab_ctx(r))
        if i % 2 == 0:
            A = finite_set(A.ctx, list(A.elements) + [zero(A.ctx)])
        S = spectre(A)
        if zero(A.ctx) not in S:
            failures.append(f"case {i}: 0 missing from the spectre")
        if negate(S) != S:
            failures.append(f"case {i}: spectre is not symmetric")
        if isinstance(A.ctx, FiniteAbelian):
            t = r.choice(A.ctx.elements())
        else:
            t = rand_point(r, A.ctx.dim)
        if spectre(translate(A, t)) != S:
            failures.append(f"case {i}: spectre changed under translation")
        if zero(A.ctx) in A:
            neg = negate(A)
            if any(z not in A and z not in neg for z in S):
                failures.append(f"case {i}: spectre escapes A and -A")
    _verdict(3, "0 in S(A), S(A) = -S(A), translation invariance, and the "
                "0-in-A inclusion on 500 random sets", failures)


def test_c04_subgroups_are_fixed_points():
    failures = []
    for n in range(2, 25):
        ctx = FiniteAbelian((n,))
        for d in range(1, n + 1):
            if n % d:
                continue
            Z = subgroup_generated(ctx, (Fraction(d % n),))
            for mode in ("fast", "oracle"):
                if spectre(Z, mode=mode) != Z:
                    failures.append(f"S(<{d}>) != <{d}> in Z_{n} ({mode} mode)")
    _verdict(4, "S(Z) = Z for every subgroup of every Z_n, n <= 24", failures)


def test_c05_no_subset_of_z7_has_spectre_013():
    ctx = FiniteAbelian((7,))
    target = finite_set(ctx, [(Fraction(0),), (Fraction(1),), (Fraction(3),)])
    t0 = time.perf_counter()
    result = refute_spectre_image(target)
    elapsed = time.perf_counter() - t0
    failures = []
    if result.found:
        failures.append(f"unexpected witness {result.witness}")
    if result.scanned != 127:
        failures.append(f"scanned {result.scanned} subsets, expected 127")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s")
    _verdict(5, "no subset of Z_7 has spectre {0, 1, 3} "
                "(all 127 scanned, under 1s)", failures)


def test_c06_densify_to_netset():
    r = random.Random(1006)
    failures = []
    for i in range(200):
        A = rand_qset(r)
        for eps in (Fraction(1, 8), Fraction(1, 16)):
            out = densify_to_netset(A, eps)
            if not is_net_set(out).ok:
                failures.append(f"case {i} eps={eps}: output is not a net-set")
                continue
            if hausdorff(A, out).value >= eps:
                failures.append(f"case {i} eps={eps}: moved by at least eps")
            if spectre(out).elements != (zero(out.ctx),):
                failures.append(f"case {i} eps={eps}: spectre is not trivial")
    _verdict(6, "densified outputs are net-sets within eps of the input with "
                "trivial spectre (200 inputs, eps in {1/8, 1/16})", failures)


def test_c07_series_spectre_laws():
    r = random.Random(1007)
    failures = []
    run_items = 0
    for i in range(200):
        s = rand_series(r, max_terms=12, dim=1, with_runs=True)
        report = series_spectre_checks(s)
        run_items += sum(1 for item in report.items
                         if item.label.startswith("run of"))
        if not report.passed:
            failures.append(f"series {i}: {report.failures()[0].label}")
    if run_items == 0:
        failures.append("no equal-term runs were exercised")
    _verdict(7, "terms and run multiples in S(E), term sizes in C(E), and "
                "monotone spectre chains on 200 random series", failures)


def test_c08_third_gap_lemma():
    r = random.Random(1008)
    failures = []
    for i in range(100):
        report = third_gap_check(rand_noninc_series(r, max_terms=16))
        if not report.passed:
            failures.append(f"series {i}: {report.failures()[0].label}")
    _verdict(8, "every dominating gap is a term plus its tail sum "
                "(100 nonincreasing series)", failures)


def test_c09_planar_gap_lemmas():
    r = random.Random(1009)
    failures = []
    second_checked = 0
    for i in range(100):
        s = rand_series(r, max_terms=10, dim=2)
        for k in range(1, s.count + 1):
            report = first_gap_lemma_2d(s, k)
            if not report.passed:
                failures.append(f"series {i}, k={k}: "
                                f"{report.failures()[0].label}")
        E = achievement_set_2d(s)
        for g in rect_gaps(E):
            report = second_gap_lemma_2d(s, g)
            second_checked += 1
            if not report.passed:
                failures.append(f"series {i}, rect gap at ({g.a}, {g.c}): "
                                f"{report.failures()[0].label}")
    if second_checked == 0:
        failures.append("no rectangular gap had a defined splitting index")
    _verdict(9, "strip-gap predictions confirmed and rectangular gaps "
                "decomposed on 100 planar series", failures)


def test_c10_hausdorff_laws():
    r = random.Random(1010)
    failures = []
    for i in range(500):
        A = rand_unit_qset(r, r.randint(1, 8))
        B = rand_unit_qset(r, r.randint(1, 8))
        C = rand_unit_qset(r, r.randint(1, 8))
        d_ab = hausdorff(A, B).value
        if hausdorff(A, A).value != 0:
            failures.append(f"triple {i}: d(A, A) != 0")
        if d_ab < 0 or (d_ab == 0) != (A == B):
            failures.append(f"triple {i}: positivity or identity fails")
        if d_ab != hausdorff(B, A).value:
            failures.append(f"triple {i}: symmetry fails")
        if hausdorff(A, C).value > d_ab + hausdorff(B, C).value:
            failures.append(f"triple {i}: triangle inequality fails")
    for i in range(500):
        C, D, E, F = (rand_unit_qset(r, r.randint(1, 8)) for _ in range(4))
        left = hausdorff(minkowski_sum(C, D), minkowski_sum(E, F)).value
        if left > hausdorff(C, E).value + hausdorff(D, F).value:
            failures.append(f"quadruple {i}: sumset inequality fails")
    _verdict(10, "metric axioms on 500 triples and the sumset inequality "
                 "on 500 quadruples", failures)


def test_c11_continuity_dichotomy():
    failures = []
    A = finite_set(Q1, [(Fraction(0),), (Fraction(1),), (Fraction(2),)])
    family = [finite_set(Q1, [(Fraction(0),), (Fraction(1),),
                              (Fraction(2) + Fraction(1, 2 ** n),)])
              for n in range(1, 11)]
    for n, member in enumerate(family, start=1):
        if spectre(member, mode="oracle").elements != (zero(Q1),):
            failures.append(f"oracle derivation: S(A_{n}) is not trivial")
    expected_sa = finite_set(Q1, [(Fraction(-1),), (Fraction(0),),
                                  (Fraction(1),)])
    if spectre(A) != expected_sa:
        failures.append("S({0, 1, 2}) is not {-1, 0, 1}")
    probe = probe_spectre_continuity(A, family, Fraction(1, 8))
    for n, row in enumerate(probe.rows, start=1):
        if row.input_distance.value != Fraction(1, 2 ** n):
            failures.append(f"row {n}: input distance is not 2^-{n}")
        if row.spectre_distance.value != 1:
            failures.append(f"row {n}: spectre displacement is not 1")
        if not row.usc_ok:
            failures.append(f"row {n}: semicontinuity flag is off")
    if probe.verdict != "discontinuity-witnessed":
        failures.append(f"verdict is {probe.verdict!r}")
    if not probe.usc_tail_ok:
        failures.append("semicontinuity tail flag is off for the fixed family")

    r = random.Random(1011)
    eps = Fraction(1, 8)
    for i in range(50):
        metric = "sup" if i % 2 else "taxicab"
        A_i = rand_qset(r, size=r.randint(3, 6), metric=metric)
        if not is_net_set(A_i).ok:
            A_i = densify_to_netset(A_i, Fraction(1, 4))
        eta = min_positive_distance(difference_set(A_i)).value
        delta = min(eta / 4, eps / 4)

        def nudge(scale: Fraction):
            return finite_set(A_i.ctx, [
                tuple(c + scale * Fraction(r.randint(-7, 7), 16) for c in p)
                for p in A_i])

        B = nudge(delta)
        if len(B) != len(A_i):
            failures.append(f"net case {i}: perturbation collapsed points")
            continue
        if any(dist(B.ctx, z, zero(B.ctx)).value >= eps for z in spectre(B)):
            failures.append(f"net case {i}: a spectre point escapes the "
                            "eps ball")
        tail = [nudge(delta / 2 ** n) for n in range(1, 7)]
        if not probe_spectre_continuity(A_i, tail, eps).usc_tail_ok:
            failures.append(f"net case {i}: semicontinuity tail flag is off")
    _verdict(11, "fixed family witnesses discontinuity at {0,1,2}; spectres "
                 "of perturbed net-sets stay in the eps ball; "
                 "semicontinuity tails hold at eps = 1/8", failures)


def test_c12_gap_translation():
    r = random.Random(1012)
    failures = []
    gaps_seen = 0
    for i in range(100):
        T = psum_set(rand_pspec(r))
        for gap in find_gaps(T):
            gaps_seen += 1
            if gap_translation_check(T, (gap.alpha, gap.beta)) <= 0:
                failures.append(f"instance {i}: gap ({gap.alpha}, {gap.beta}) "
                                "has no translation radius")
    if gaps_seen == 0:
        failures.append("no gaps were generated")

    demo = cantor_pair_demo(6)
    radii = [eps for _, eps in demo.rows]
    if not demo.strictly_decreasing:
        failures.append("demo radii are not strictly decreasing")
    if radii != [Fraction(1, 2), Fraction(1, 16), Fraction(1, 64),
                 Fraction(1, 256), Fraction(1, 1024), Fraction(1, 4096),
                 Fraction(1, 16384)]:
        failures.append(f"demo radii are {radii}")

    for i in range(20):
        T = psum_set(rand_pspec(r))
        values = [p[0] for p in T.elements]
        for gap in find_gaps(T):
            eps = gap_translation_check(T, (gap.alpha, gap.beta))
            if len(values) <= 30:
                if eps != dense_translation_supremum(values, gap.beta):
                    failures.append(f"oracle instance {i}: radius {eps} is not "
                                    "the first failure of dense sampling")
            elif (not translation_predicate(values, gap.beta, eps * Fraction(1023, 1024))
                  or translation_predicate(values, gap.beta, eps)):
                failures.append(f"oracle instance {i}: the predicate does not "
                                f"hold just below {eps} and fail at it")
    _verdict(12, "translation radii exist for all gaps of 100 random P-sum "
                 "sets; demo radii strictly decrease; each radius is the first "
                 "failure of dense sampling (at most 30 points) or the "
                 "predicate holds just below it and fails at it", failures)


def test_c13_non_sliding_fixtures():
    failures = []
    for q in (Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)):
        for count in range(1, 13):
            A = finite_set(Q1, [(Fraction(0),)] +
                           [(q ** n,) for n in range(count)])
            if not is_non_sliding(A).ok:
                failures.append(f"q={q}, {count} terms: not non-sliding")
    tri = finite_set(Q2, [(Fraction(0), Fraction(0)),
                          (Fraction(1), Fraction(0)),
                          (Fraction(0), Fraction(1))])
    if not is_net_set(tri).ok:
        failures.append("the right-angle triple is not a net-set")
    if is_non_sliding(tri).ok:
        failures.append("the right-angle triple passes the non-sliding check")
    _verdict(13, "geometric truncations are non-sliding for q in "
                 "{1/4, 1/3, 2/5}; the right-angle triple is a net-set "
                 "but not non-sliding", failures)
