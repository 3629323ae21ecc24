"""Golden reports: the full JSON of the gap-lemma and spectre-props
commands, and the CSV output of every command.

Every label and detail of these reports is formatted from grid integers, so
the whole output is pinned here, not just the ``passed`` flag.  The gap-lemma
values were recorded from the ``Fraction`` implementation of the same
checkers; the spectre-props reports, their failure details and the CSV
output were recorded before the spectre chains were compared as sets of grid
points and before the CSV rows were built from the JSON strings.
"""

from __future__ import annotations

import json
import re

import pytest

from spectrekit import (
    example_series,
    finite_set,
    initial_subsums,
    point,
    remainder_subsums,
    series_spec,
    spectre,
)
from spectrekit.cli import COMMANDS, run
from spectrekit.formats import dumps, encode_series
from spectrekit.series import series_spectre_checks

SERIES = {
    "geo": ["1", "1/4", "1/16"],
    "twins": ["1", "1/4", "1/4", "1/16"],
    "flat": ["1/2", "1/4", "1/4"],
    "lopsided": ["3/4", "1/2", "1/16"],
    "square": [("1/2", "1/2"), ("1/8", "1/8")],
    "skew": [("1/2", "3/16"), ("3/16", "1/2"), ("1/16", "5/16")],
}

# (series, command, exit code, stdout as JSON); series None runs without --series.
CASES = [
    ("geo", "series third-gap", 0,
     {"items": [{"detail": "m=3: a_m=1/16, tail=0",
                 "label": "dominating gap (0, 1/16)",
                 "passed": True},
                {"detail": "m=2: a_m=1/4, tail=1/16",
                 "label": "dominating gap (1/16, 1/4)",
                 "passed": True},
                {"detail": "m=1: a_m=1, tail=5/16",
                 "label": "dominating gap (5/16, 1)",
                 "passed": True}],
      "name": "third-gap",
      "note": "",
      "passed": True}),
    ("twins", "series third-gap", 0,
     {"items": [{"detail": "m=4: a_m=1/16, tail=0",
                 "label": "dominating gap (0, 1/16)",
                 "passed": True},
                {"detail": "m=3: a_m=1/4, tail=1/16",
                 "label": "dominating gap (1/16, 1/4)",
                 "passed": True},
                {"detail": "m=1: a_m=1, tail=9/16",
                 "label": "dominating gap (9/16, 1)",
                 "passed": True}],
      "name": "third-gap",
      "note": "",
      "passed": True}),
    ("geo", "series first-gap --k 1", 0,
     {"applicable": True,
      "gap": {"alpha": "5/16", "beta": "1", "dominating": True, "length": "11/16"}}),
    ("geo", "series first-gap --k 2", 0,
     {"applicable": True,
      "gap": {"alpha": "1/16", "beta": "1/4", "dominating": True, "length": "3/16"}}),
    ("geo", "series first-gap --k 3", 0,
     {"applicable": True,
      "gap": {"alpha": "0", "beta": "1/16", "dominating": True, "length": "1/16"}}),
    ("flat", "series first-gap --k 1", 0,
     {"applicable": False, "gap": None}),
    ("lopsided", "series first-gap --k 1", 0,
     {"applicable": True,
      "gap": {"alpha": "9/16", "beta": "3/4", "dominating": False, "length": "3/16"}}),
    ("example", "planar first-gap --k 1", 0,
     {"items": [{"detail": "", "label": "x-gap (1/2, 7/8)", "passed": True},
                {"detail": "", "label": "y-gap (0, 1/8)", "passed": True},
                {"detail": "hypothesis not satisfied",
                 "label": "rect-gap prediction",
                 "passed": True}],
      "name": "first-gap-2d",
      "note": "",
      "passed": True}),
    ("example", "planar first-gap --k 2", 0,
     {"items": [{"detail": "", "label": "x-gap (0, 1/8)", "passed": True},
                {"detail": "", "label": "y-gap (1/2, 7/8)", "passed": True},
                {"detail": "hypothesis not satisfied",
                 "label": "rect-gap prediction",
                 "passed": True}],
      "name": "first-gap-2d",
      "note": "",
      "passed": True}),
    ("example", "planar first-gap --k 3", 0,
     {"items": [{"detail": "", "label": "x-gap (1/8, 3/16)", "passed": True},
                {"detail": "", "label": "y-gap (1/8, 3/16)", "passed": True},
                {"detail": "hypothesis not satisfied",
                 "label": "rect-gap prediction",
                 "passed": True}],
      "name": "first-gap-2d",
      "note": "",
      "passed": True}),
    ("example", "planar first-gap --k 4", 0,
     {"items": [{"detail": "", "label": "x-gap (1/8, 3/16)", "passed": True},
                {"detail": "", "label": "y-gap (1/8, 3/16)", "passed": True},
                {"detail": "hypothesis not satisfied",
                 "label": "rect-gap prediction",
                 "passed": True}],
      "name": "first-gap-2d",
      "note": "",
      "passed": True}),
    ("square", "planar first-gap --k 1", 0,
     {"items": [{"detail": "", "label": "x-gap (1/8, 1/2)", "passed": True},
                {"detail": "", "label": "y-gap (1/8, 1/2)", "passed": True},
                {"detail": "",
                 "label": "rect gap (1/8, 1/2) x (1/8, 1/2)",
                 "passed": True}],
      "name": "first-gap-2d",
      "note": "",
      "passed": True}),
    ("example", "planar second-gap --rect 3/8,1,3/8,1", 0,
     {"items": [{"detail": "",
                 "label": "input rectangle is a gap of E",
                 "passed": True},
                {"detail": "corner (1, 1)",
                 "label": "upper corner in F_2",
                 "passed": True},
                {"detail": "initial part (0, 0)",
                 "label": "lower corner is an F_2 sum plus the tail",
                 "passed": True}],
      "name": "second-gap-2d",
      "note": "",
      "passed": True}),
    ("example", "planar second-gap --rect 0,1,0,1", 1,
     {"items": [{"detail": "the defining property fails",
                 "label": "input rectangle is a gap of E",
                 "passed": False}],
      "name": "second-gap-2d",
      "note": "",
      "passed": False}),
    ("square", "planar second-gap --rect 1/8,1/2,1/8,1/2", 0,
     {"items": [{"detail": "",
                 "label": "input rectangle is a gap of E",
                 "passed": True},
                {"detail": "corner (1/2, 1/2)",
                 "label": "upper corner in F_1",
                 "passed": True},
                {"detail": "initial part (0, 0)",
                 "label": "lower corner is an F_1 sum plus the tail",
                 "passed": True}],
      "name": "second-gap-2d",
      "note": "",
      "passed": True}),
    ("skew", "planar second-gap --rect 1/16,3/16,5/16,1/2", 0,
     {"items": [{"detail": "",
                 "label": "input rectangle is a gap of E",
                 "passed": True},
                {"detail": "corner (3/16, 1/2)",
                 "label": "upper corner in F_3",
                 "passed": True},
                {"detail": "initial part (1/16, 5/16)",
                 "label": "lower corner is an F_3 sum plus the tail",
                 "passed": True}],
      "name": "second-gap-2d",
      "note": "",
      "passed": True}),
    (None, "planar example --check", 0,
     {"largest_rect_gaps": [{"a": "3/8",
                             "area": "25/64",
                             "b": "1",
                             "c": "3/8",
                             "d": "1"}],
      "report": {"items": [{"detail": "(0, 0), (1/8, 7/8), (3/16, 3/16), (5/16, "
                                      "17/16), (3/8, 3/8), (1/2, 5/4), (7/8, 1/8), (1, "
                                      "1), (17/16, 5/16), (19/16, 19/16), (5/4, 1/2), "
                                      "(11/8, 11/8)",
                            "label": "achievement set has the expected 12 points",
                            "passed": True},
                           {"detail": "found 1 maximal gap(s)",
                            "label": "unique largest rectangular gap is (3/8, 1) x "
                                     "(3/8, 1)",
                            "passed": True},
                           {"detail": "corner (1, 1) is achieved only as a two-term "
                                      "sum",
                            "label": "no term and tail explain the gap corners",
                            "passed": True}],
                 "name": "third-gap-failure",
                 "note": "",
                 "passed": True},
      "series": {"terms": [["7/8", "1/8"],
                           ["1/8", "7/8"],
                           ["3/16", "3/16"],
                           ["3/16", "3/16"]]},
      "set": {"group": {"dim": 2, "metric": "sup", "type": "Qd"},
              "points": [["0", "0"],
                         ["1/8", "7/8"],
                         ["3/16", "3/16"],
                         ["5/16", "17/16"],
                         ["3/8", "3/8"],
                         ["1/2", "5/4"],
                         ["7/8", "1/8"],
                         ["1", "1"],
                         ["17/16", "5/16"],
                         ["19/16", "19/16"],
                         ["5/4", "1/2"],
                         ["11/8", "11/8"]]}}),

]


@pytest.mark.parametrize("name,command,code,expected", CASES,
                         ids=[re.sub(r"[^a-z0-9]+", "-", f"{c[0] or ''} {c[1]}").strip("-")
                              for c in CASES])
def test_report_json_is_pinned(tmp_path, capsys, name, command, code, expected):
    argv = command.split()
    if name is not None:
        s = example_series() if name == "example" else series_spec(SERIES[name])
        path = tmp_path / "series.json"
        path.write_text(dumps(encode_series(s)))
        argv += ["--series", str(path)]
    assert run(argv) == code
    assert json.loads(capsys.readouterr().out) == expected


def _report(passed, items):
    """The report JSON from its ``passed`` flag and (label, passed, detail) items."""
    return {"name": "series-spectre", "note": "", "passed": passed,
            "items": [{"label": label, "passed": ok, "detail": detail}
                      for label, ok, detail in items]}


CHAINS = [("S(F_n) ascend with n", True, ""), ("S(F_n) inside S(E)", True, ""),
          ("S(E_n) descend with n", True, ""), ("S(E_n) inside S(E)", True, "")]

# (terms, the report's items before the four passing chain checks)
SPECTRE_PROPS = {
    "runs-of-3-and-5": (
        ["1", "1/4", "1/4", "1/4", "1/32", "1/32", "1/32", "1/32", "1/32"],
        [("term ('1/32',) in S(E)", True, ""),
         ("term ('1/4',) in S(E)", True, ""),
         ("term ('1',) in S(E)", True, ""),
         ("run of 3 at index 2: 2 * ('1/4',) in S(E)", True, ""),
         ("run of 3 at index 5: 2 * ('1/32',) in S(E)", True, ""),
         ("run of 5 at index 5: 3 * ('1/32',) in S(E)", True, ""),
         ("|term| 1/32 in C(E)", True, ""),
         ("|term| 1/4 in C(E)", True, ""),
         ("|term| 1 in C(E)", True, "")]),
    "one-term": (
        ["1/2"],
        [("term ('1/2',) in S(E)", True, ""),
         ("|term| 1/2 in C(E)", True, "")]),
    "empty": ([], []),
    "zero-term": (
        ["1/2", "0", "1/8"],
        [("term ('0',) in S(E)", True, ""),
         ("term ('1/8',) in S(E)", True, ""),
         ("term ('1/2',) in S(E)", True, ""),
         ("|term| 0 in C(E)", True, ""),
         ("|term| 1/8 in C(E)", True, ""),
         ("|term| 1/2 in C(E)", True, "")]),
    "signed": (
        ["1", "-1/3", "1/9"],
        [("term ('-1/3',) in S(E)", True, ""),
         ("term ('1/9',) in S(E)", True, ""),
         ("term ('1',) in S(E)", True, ""),
         ("|term| 1/9 in C(E)", True, ""),
         ("|term| 1/3 in C(E)", True, ""),
         ("|term| 1 in C(E)", True, "")]),
    "planar": (
        [("1/2", "1/4"), ("1/8", "1/8"), ("1/8", "1/8"), ("1/8", "1/8"), ("1/32", "0")],
        [("term ('1/32', '0') in S(E)", True, ""),
         ("term ('1/8', '1/8') in S(E)", True, ""),
         ("term ('1/2', '1/4') in S(E)", True, ""),
         ("run of 3 at index 2: 2 * ('1/8', '1/8') in S(E)", True, "")]),
}


@pytest.mark.parametrize("name", SPECTRE_PROPS)
def test_spectre_props_json_is_pinned(tmp_path, capsys, name):
    terms, items = SPECTRE_PROPS[name]
    path = tmp_path / "series.json"
    path.write_text(dumps(encode_series(series_spec(terms))))
    assert run(["series", "spectre-props", "--series", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == _report(True, items + CHAINS)


def test_planar_spectre_checks_are_pinned():
    # The library report of the planar series; test_spectre_props_json_is_pinned
    # runs the same series through the CLI.
    terms, items = SPECTRE_PROPS["planar"]
    report = series_spectre_checks(series_spec(terms))
    got = [(i.label, i.passed, i.detail) for i in report.items]
    assert (report.name, report.note, report.passed) == ("series-spectre", "", True)
    assert got == items + CHAINS


# (terms, the faulty set "F" or "E" and its k, points added to its spectre,
#  the failed (label, detail) pairs)
FAULTS = [
    (["1", "1/4", "1/16"], "F", 1, [("7/16",), ("3/16",)],
     [("S(F_n) ascend with n", "fails at n=1: (Fraction(3, 16),)"),
      ("S(F_n) inside S(E)", "fails at n=1: (Fraction(3, 16),)")]),
    (["1", "1/4", "1/16"], "E", 2, [("5/8",)],
     [("S(E_n) descend with n", "fails at n=1: (Fraction(5, 8),)"),
      ("S(E_n) inside S(E)", "fails at n=2: (Fraction(5, 8),)")]),
    ([("1/2", "1/4"), ("1/8", "1/8")], "F", 1, [("3/8", "1/2"), ("3/8", "0")],
     [("S(F_n) ascend with n", "fails at n=1: (Fraction(3, 8), Fraction(0, 1))"),
      ("S(F_n) inside S(E)", "fails at n=1: (Fraction(3, 8), Fraction(0, 1))")]),
]


@pytest.mark.parametrize("terms,kind,k,extra,failed", FAULTS)
def test_chain_failure_names_the_least_missing_point(monkeypatch, terms, kind, k,
                                                     extra, failed):
    s = series_spec(terms)
    faulty = (initial_subsums if kind == "F" else remainder_subsums)(s, k)

    def broken(A, *args, **kwargs):
        S = spectre(A, *args, **kwargs)
        if A != faulty:
            return S
        return finite_set(S.ctx, [*S.elements, *(point(*p) for p in extra)])

    monkeypatch.setattr("spectrekit.series.spectre", broken)
    report = series_spectre_checks(s)
    assert [(i.label, i.detail) for i in report.items if not i.passed] == failed


FILE_FLAGS = {"--set", "--a", "--b", "--family", "--target", "--series", "--pspec"}
LINE = {"type": "Qd", "dim": 1, "metric": "sup"}
DOCS = {
    "line": {"group": LINE, "points": [["0"], ["1/4"], ["1/2"], ["1"]]},
    "line2": {"group": LINE, "points": [["0"], ["1/3"], ["1"]]},
    "ap": {"group": LINE, "points": [["0"], ["1/4"], ["1/2"], ["3/4"]]},
    "plane": {"group": {"type": "Qd", "dim": 2, "metric": "euclidean-squared"},
              "points": [["0", "0"], ["1/2", "0"], ["0", "1/2"], ["1/2", "1/2"]]},
    "family": {"group": LINE, "sets": [[["0"], ["1/4"], ["1/2"], ["3/4"]],
                                       [["0"], ["1/4"], ["1/2"], ["7/8"]],
                                       [["0"], ["1/4"], ["1/2"], ["13/16"]]]},
    "target": {"group": {"type": "FinAb", "moduli": [5]}, "points": [["0"]]},
    "geo": {"terms": ["1", "1/4", "1/16"], "dim": 1},
    "square": {"terms": [["1/2", "1/2"], ["1/8", "1/8"]], "dim": 2},
    "pspec": {"P": ["0", "1"], "terms": ["1/4", "1/16"]},
}

# (command with document names after the file flags, exit code, CSV stdout)
CSV_CASES = [
    ("spectre --set ap", 0, "-1/2\n-1/4\n0\n1/4\n1/2\n"),
    ("center --set plane", 0, "0,True\n1/4,True\n1/2,True\n"),
    ("netset check --set line", 1,
     "ok,False\n"
     "reason,two pairs share a difference up to sign\n"
     "witness-pair_a,0\nwitness-pair_a,1/4\nwitness-pair_b,1/4\nwitness-pair_b,1/2\n"),
    ("netset make --set line --eps 1/8", 0, "0\n1/4\n19/32\n1\n"),
    ("nonsliding check --set line", 1,
     "ok,False\n"
     "reason,two pairs realize the same distance\n"
     "witness-pair_a,0\nwitness-pair_a,1/4\nwitness-pair_b,1/4\nwitness-pair_b,1/2\n"),
    ("hausdorff --a line --b line2", 0, "1/6,False\n"),
    ("probe continuity --set ap --family family --eps 1/4", 0,
     "row,1,0,0,True\nrow,2,1/8,1/2,True\nrow,3,1/16,1/2,True\n"
     "verdict,continuous-looking,,True\n"),
    ("probe usc --set ap --family family --eps 1/4", 0,
     "row,1,0,0,True\nrow,2,1/8,1/2,True\nrow,3,1/16,1/2,True\n"
     "verdict,continuous-looking,,True\n"),
    ("refute-image --target target", 0, "found,True,1\nwitness-point,0\n"),
    ("series enumerate --series geo", 0, "0\n1/16\n1/4\n5/16\n1\n17/16\n5/4\n21/16\n"),
    ("series gaps --series geo", 0,
     "gap,0,1/16,1/16,True\n"
     "gap,1/16,1/4,3/16,True\n"
     "gap,1/4,5/16,1/16,False\n"
     "gap,5/16,1,11/16,True\n"
     "gap,1,17/16,1/16,False\n"
     "gap,17/16,5/4,3/16,False\n"
     "gap,5/4,21/16,1/16,False\n"),
    ("series third-gap --series geo", 0,
     'item,"dominating gap (0, 1/16)",True,"m=3: a_m=1/16, tail=0"\n'
     'item,"dominating gap (1/16, 1/4)",True,"m=2: a_m=1/4, tail=1/16"\n'
     'item,"dominating gap (5/16, 1)",True,"m=1: a_m=1, tail=5/16"\n'
     "result,True\n"),
    ("series spectre-props --series geo", 0,
     "item,\"term ('1/16',) in S(E)\",True,\n"
     "item,\"term ('1/4',) in S(E)\",True,\n"
     "item,\"term ('1',) in S(E)\",True,\n"
     "item,|term| 1/16 in C(E),True,\n"
     "item,|term| 1/4 in C(E),True,\n"
     "item,|term| 1 in C(E),True,\n"
     "item,S(F_n) ascend with n,True,\n"
     "item,S(F_n) inside S(E),True,\n"
     "item,S(E_n) descend with n,True,\n"
     "item,S(E_n) inside S(E),True,\n"
     "result,True\n"),
    ("series first-gap --series geo --k 2", 0, "applicable,True\ngap,1/16,1/4,3/16,True\n"),
    ("planar enumerate --series square", 0, "0,0\n1/8,1/8\n1/2,1/2\n5/8,5/8\n"),
    ("planar gaps --series square", 0,
     "axis-gap,x,0,1/8\naxis-gap,x,1/8,1/2\naxis-gap,x,1/2,5/8\n"
     "axis-gap,y,0,1/8\naxis-gap,y,1/8,1/2\naxis-gap,y,1/2,5/8\n"
     "rect-gap,0,1/8,0,1/8,1/64\n"
     "rect-gap,1/8,1/2,1/8,1/2,9/64\n"
     "rect-gap,1/2,5/8,1/2,5/8,1/64\n"),
    ("planar first-gap --series example --k 1", 0,
     'item,"x-gap (1/2, 7/8)",True,\n'
     'item,"y-gap (0, 1/8)",True,\n'
     "item,rect-gap prediction,True,hypothesis not satisfied\n"
     "result,True\n"),
    ("planar second-gap --series example --rect 3/8,1,3/8,1", 0,
     "item,input rectangle is a gap of E,True,\n"
     'item,upper corner in F_2,True,"corner (1, 1)"\n'
     'item,lower corner is an F_2 sum plus the tail,True,"initial part (0, 0)"\n'
     "result,True\n"),
    ("planar example --check", 0,
     "0,0\n1/8,7/8\n3/16,3/16\n5/16,17/16\n3/8,3/8\n1/2,5/4\n"
     "7/8,1/8\n1,1\n17/16,5/16\n19/16,19/16\n5/4,1/2\n11/8,11/8\n"
     'item,achievement set has the expected 12 points,True,"(0, 0), (1/8, 7/8), '
     "(3/16, 3/16), (5/16, 17/16), (3/8, 3/8), (1/2, 5/4), (7/8, 1/8), (1, 1), "
     '(17/16, 5/16), (19/16, 19/16), (5/4, 1/2), (11/8, 11/8)"\n'
     'item,"unique largest rectangular gap is (3/8, 1) x (3/8, 1)",True,'
     "found 1 maximal gap(s)\n"
     'item,no term and tail explain the gap corners,True,"corner (1, 1) is '
     'achieved only as a two-term sum"\n'
     "result,True\n"),
    ("psum enumerate --pspec pspec", 0, "0\n1/16\n1/4\n5/16\n"),
    ("psum gap-translate --pspec pspec --gap 1/16,1/4", 0, "ok,True,1/4\n"),
    ("psum cantor-demo --levels 3", 0,
     "level,0,1/2\nlevel,1,1/16\nlevel,2,1/64\nlevel,3,1/256\n"
     "strictly_decreasing,True\n"),
]


def test_csv_cases_cover_every_command():
    covered = {" ".join(w for w in c.split()[:2] if not w.startswith("--"))
               for c, _, _ in CSV_CASES}
    assert covered == {cmd.words for cmd in COMMANDS}


@pytest.mark.parametrize("command,code,expected", CSV_CASES,
                         ids=[c.split(" --")[0].replace(" ", "-") for c, _, _ in CSV_CASES])
def test_csv_output_is_pinned(tmp_path, capsys, command, code, expected):
    texts = {"example": dumps(encode_series(example_series()))}
    texts.update((name, json.dumps(doc)) for name, doc in DOCS.items())
    words = command.split()
    argv = []
    for flag, word in zip([""] + words, words):
        if flag in FILE_FLAGS:
            path = tmp_path / f"{word}.json"
            path.write_text(texts[word])
            word = str(path)
        argv.append(word)
    assert run(argv + ["--format", "csv"]) == code
    assert capsys.readouterr().out == expected
