"""Golden reports: the full JSON of the gap-lemma commands.

Every label and detail of these reports is formatted from grid integers, so
the whole output is pinned here, not just the ``passed`` flag.  The values
were recorded from the ``Fraction`` implementation of the same checkers.
"""

from __future__ import annotations

import json
import re

import pytest

from spectrekit import example_series, series_spec
from spectrekit.cli import run
from spectrekit.formats import dumps, encode_series

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
