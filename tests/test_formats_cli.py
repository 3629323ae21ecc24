"""File codecs, CLI subcommands, exit codes, and output determinism."""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from itertools import takewhile
from pathlib import Path

import pytest

from spectrekit import (
    AxisGap,
    CheckItem,
    DistValue,
    FiniteAbelian,
    LemmaReport,
    PairWitness,
    ProbeReport,
    RationalSpace,
    RefuteResult,
    SetVerdict,
    finite_set,
    point,
    series_spec,
)
from spectrekit.cli import COMMANDS, build_parser, run
from spectrekit.errors import ParseError
from spectrekit.rational import parse_rat
from spectrekit.formats import (
    decode_family,
    decode_group,
    decode_pspec,
    decode_series,
    decode_set,
    dumps,
    encode_group,
    encode_pspec,
    encode_result,
    encode_series,
    encode_set,
)
from spectrekit.groups import METRICS
from spectrekit.hyperspace import ProbeRow
from gen import rand_finab_ctx, rand_finab_set, rand_point, rand_qset

Q1 = RationalSpace(1)
Q2 = RationalSpace(2)


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(dumps(obj) if not isinstance(obj, str) else obj)
    return str(path)


def spell(r, q):
    """One of the literals the decoder reads as the rational ``q``, at random."""
    n, d = q.numerator, q.denominator
    k = r.randint(2, 3)
    spellings = [f"{n}/{d}", f"{k * n}/{k * d}", f"{'+' if n >= 0 else ''}{n}/{d}"]
    if d == 1:
        spellings += [n, str(n)]
    places = next((e for e in range(6) if 10 ** e % d == 0), None)
    if places is not None:  # a terminating decimal, with one trailing zero
        whole, frac = divmod(abs(n) * 10 ** places // d, 10 ** places)
        digits = f"{frac:0{places}d}" if places else ""
        spellings.append(f"{'-' if n < 0 else ''}{whole}.{digits}0")
    return r.choice(spellings)


# Set documents whose offending JSON value is thousands of characters long.
LONG_VALUE_DOCS = {
    "coordinate": {"group": {"type": "Qd", "dim": 1}, "points": [[list(range(3000))]]},
    "metric": {"group": {"type": "Qd", "dim": 1, "metric": "m" * 5000}, "points": [["0"]]},
    "modulus": {"group": {"type": "FinAb", "moduli": ["9" * 5000]}, "points": [["0"]]},
    "type": {"group": {"type": "t" * 5000}, "points": [["0"]]},
    "dim": {"group": {"type": "Qd", "dim": list(range(3000))}, "points": [["0"]]},
}


F = Fraction
PLAIN = {"value": "1/4", "squared": False}
ROW = ProbeRow(1, DistValue(F(1, 4)), DistValue(F(1, 4)), True)
ROW_JSON = {"index": 1, "input_distance": PLAIN, "spectre_distance": PLAIN, "usc_ok": True}
# One value of each kind encode_result serves, and its JSON.
RESULT_VALUES = {
    "verdict-point-witness": (
        SetVerdict(False, PairWitness(((F(0),), (F(1, 2),)), ((F(1, 2),), (F(1),)),
                                      (F(1, 2),)), "a difference repeats"),
        {"ok": False, "reason": "a difference repeats",
         "witness": {"pair_a": [["0"], ["1/2"]], "pair_b": [["1/2"], ["1"]],
                     "shared_value": ["1/2"]}}),
    "verdict-distance-witness": (
        SetVerdict(False, PairWitness(((F(0), F(0)), (F(1), F(-2))),
                                      ((F(3), F(0)), (F(4), F(2))),
                                      DistValue(F(5), squared=True)), "a distance repeats"),
        {"ok": False, "reason": "a distance repeats",
         "witness": {"pair_a": [["0", "0"], ["1", "-2"]], "pair_b": [["3", "0"], ["4", "2"]],
                     "shared_value": {"value": "5", "squared": True}}}),
    "report": (
        LemmaReport("third gap", (CheckItem("k=1", True, "1/4"), CheckItem("k=2", False)), "n"),
        {"name": "third gap", "note": "n",
         "items": [{"label": "k=1", "passed": True, "detail": "1/4"},
                   {"label": "k=2", "passed": False, "detail": ""}]}),
    "probe-tail-bound": (
        ProbeReport((ROW,), F(1, 8), "discontinuity-witnessed", F(1, 3), False),
        {"rows": [ROW_JSON], "epsilon": "1/8", "verdict": "discontinuity-witnessed",
         "tail_bound": "1/3", "usc_tail_ok": False}),
    "probe-no-tail-bound": (
        ProbeReport((ROW, ROW), F(2), "continuous-looking", None, True),
        {"rows": [ROW_JSON, ROW_JSON], "epsilon": "2", "verdict": "continuous-looking",
         "tail_bound": None, "usc_tail_ok": True}),
    "refute-witness": (
        RefuteResult(True, finite_set(FiniteAbelian((5,)), [point(2), point(0)]), 5),
        {"found": True, "witness": [["0"], ["2"]], "scanned": 5}),
    "refute-no-witness": (RefuteResult(False, None, 31),
                          {"found": False, "witness": None, "scanned": 31}),
    "axis-gap": (AxisGap("y", F(-1, 3), F(2)), {"axis": "y", "lo": "-1/3", "hi": "2"}),
    "distance-squared": (DistValue(F(9, 4), squared=True), {"value": "9/4", "squared": True}),
    "distance-plain": (DistValue(F(3)), {"value": "3", "squared": False}),
}


def parse_outcome(parser, argv, capsys):
    """Exit code (None when parsing succeeds), stdout, stderr and the parsed
    namespace of ``parser.parse_args(argv)``."""
    try:
        ns, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        ns, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, ns


def sym3_path(tmp_path):
    A = finite_set(Q1, [point(-1), point(0), point(1)])
    return write(tmp_path, "sym3.json", encode_set(A))


class TestCodecs:
    def test_group_round_trip(self):
        for ctx in (Q1, Q2, RationalSpace(2, "taxicab"),
                    RationalSpace(1, "euclidean-squared"),
                    FiniteAbelian((6,)), FiniteAbelian((2, 3))):
            assert decode_group(encode_group(ctx)) == ctx

    def test_set_round_trip_random(self):
        r = random.Random(701)
        for _ in range(40):
            A = rand_qset(r)
            assert decode_set(encode_set(A)) == A
        for _ in range(40):
            ctx = rand_finab_ctx(r)
            A = rand_finab_set(r, ctx)
            assert decode_set(encode_set(A)) == A

    def test_series_round_trip(self):
        for s in (series_spec(["1/2", "1/4"]),
                  series_spec([("7/8", "1/8"), ("3/16", "3/16")]),
                  series_spec([]), series_spec([], dim=2)):
            assert decode_series(encode_series(s)) == s

    def test_pspec_round_trip(self):
        spec = series_spec(["1/4", "1/16"], coeffs=["0", "1", "3/2"])
        assert decode_pspec(encode_pspec(spec)) == spec
        assert encode_pspec(spec) == {"P": ["0", "1", "3/2"], "terms": ["1/4", "1/16"]}

    def test_duplicate_points_are_position_tagged(self):
        doc = {"group": {"type": "Qd", "dim": 1, "metric": "sup"},
               "points": [["0"], ["1/2"], ["0"]]}
        with pytest.raises(ParseError, match=r"points\[2\].*points\[0\]"):
            decode_set(doc)

    def test_duplicates_spelled_differently_name_both_positions(self):
        group = {"type": "Qd", "dim": 1, "metric": "sup"}
        with pytest.raises(ParseError, match=r"^points\[2\] duplicates points\[0\]$"):
            decode_set({"group": group, "points": [["1/2"], ["0"], ["0.5"], ["x"]]})
        with pytest.raises(ParseError, match=r"^sets\[1\]\[1\] duplicates sets\[1\]\[0\]$"):
            decode_family({"group": group, "sets": [[["1/2"]], [[1], ["+2/2"]]]})

    def test_a_family_needs_a_set(self):
        with pytest.raises(ParseError, match=r"^sets must be nonempty$"):
            decode_family({"group": {"type": "Qd", "dim": 1, "metric": "sup"}, "sets": []})

    def test_non_canonical_documents_decode_like_finite_set(self):
        r = random.Random(1105)
        for _ in range(150):
            if r.random() < 0.6:
                ctx = RationalSpace(r.randint(1, 3), r.choice(METRICS))
                points = {rand_point(r, ctx.dim) for _ in range(r.randint(1, 8))}
            else:
                ctx = rand_finab_ctx(r)
                points = {tuple(Fraction(r.randrange(m)) for m in ctx.moduli)
                          for _ in range(r.randint(1, 8))}
            expected = finite_set(ctx, points)
            points = list(points)
            r.shuffle(points)
            rows = [[spell(r, c) for c in p] for p in points]
            assert decode_set({"group": encode_group(ctx), "points": rows}) == expected
            family = decode_family({"group": encode_group(ctx),
                                    "sets": [rows, rows[::-1], rows[:1]]})
            assert family == [expected, expected, finite_set(ctx, points[:1])]

    def test_pair_decoder_matches_finite_set_of_parsed_points(self):
        # Random documents in every spelling the grammar allows: signs, "+",
        # decimals, unreduced fractions, whitespace, JSON integers, residues
        # at 0 and m - 1, and duplicates spelled differently, which must be
        # reported at the first repeat and the point it repeats.
        r = random.Random(1107)
        outcomes = set()
        for _ in range(300):
            if r.random() < 0.6:
                ctx = RationalSpace(r.randint(1, 3), r.choice(METRICS))
                dens = r.choice(((1, 2, 5), (3, 7, 12), (1, 4294967291, 4294967279)))
                coord = [lambda: Fraction(r.randint(-30, 30), r.choice(dens))] * ctx.dim
            else:
                ctx = rand_finab_ctx(r)
                coord = [lambda m=m: Fraction(r.choice((0, m - 1, r.randrange(m))))
                         for m in ctx.moduli]
            points = [tuple(c() for c in coord) for _ in range(r.randint(1, 9))]
            rows = [[spell(r, c) if r.random() < 0.8 else f" {spell(r, c)}\n" for c in p]
                    for p in points]
            parsed = [tuple(c if isinstance(c, int) else parse_rat(c) for c in row)
                      for row in rows]
            first = {}
            repeat = next(((i, first[p]) for i, p in enumerate(parsed)
                           if first.setdefault(p, i) != i), None)
            doc = {"group": encode_group(ctx), "points": rows}
            outcomes.add(repeat is None)
            if repeat is None:
                assert decode_set(doc) == finite_set(ctx, parsed)
            else:
                with pytest.raises(ParseError, match=r"^points\[%d\] duplicates points\[%d\]$"
                                   % repeat):
                    decode_set(doc)
        assert outcomes == {True, False}

    def test_residues_run_from_zero_to_the_modulus_minus_one(self):
        group = {"type": "FinAb", "moduli": [5, 3]}
        A = decode_set({"group": group, "points": [["0", 2], ["+4", "2/1"], [" 0.0", "0"]]})
        assert A == finite_set(FiniteAbelian((5, 3)), [point(0, 2), point(4, 2), point(0, 0)])
        for j, bad in ((0, "5"), (0, "-1"), (1, "3"), (1, "1/2")):
            row = ["0", "0"]
            row[j] = bad
            with pytest.raises(ParseError, match=r"^points\[0\]\[%d\]: residue must be" % j):
                decode_set({"group": group, "points": [row]})

    def test_too_many_digits_in_a_literal_is_reported_at_the_coordinate(self):
        with pytest.raises(ParseError) as info:
            decode_set({"group": {"type": "Qd", "dim": 2}, "points": [["0", "1" * 5000]]})
        assert str(info.value) == "points[0][1]: rational literal has too many digits"

    def test_modular_coordinates_must_be_reduced(self):
        doc = {"group": {"type": "FinAb", "moduli": [6]}, "points": [["6"]]}
        with pytest.raises(ParseError):
            decode_set(doc)

    def test_a_long_residue_is_echoed_short(self):
        doc = {"group": {"type": "FinAb", "moduli": [6]}, "points": [["7" * 4000]]}
        with pytest.raises(ParseError) as info:
            decode_set(doc)
        assert str(info.value) == ("points[0][0]: residue must be an integer in [0, 6), got "
                                   + "7" * 40 + "...")

    def test_a_residue_past_the_digit_limit_is_reported_at_the_coordinate(self):
        # Each side of the decimal is short enough to parse, but the value
        # has 8000 digits, too many to echo.
        with pytest.raises(ParseError) as info:
            decode_set({"group": {"type": "FinAb", "moduli": [6]},
                        "points": [["1" * 4000 + "." + "1" * 4000]]})
        assert str(info.value) == ("points[0][0]: residue must be an integer in [0, 6), "
                                   "got a literal with too many digits")

    @pytest.mark.parametrize("what", list(LONG_VALUE_DOCS))
    def test_a_long_json_value_is_echoed_short(self, what):
        with pytest.raises(ParseError) as info:
            decode_set(LONG_VALUE_DOCS[what])
        assert len(str(info.value)) < 120 and str(info.value).endswith("...")

    def test_short_json_values_are_echoed_whole(self):
        cases = [
            ({"type": "Qd", "dim": [1, 2]}, "group.dim must be a positive integer, got [1, 2]"),
            ({"type": "Qd", "dim": 1, "metric": "l2"},
             "group.metric must be one of ('sup', 'taxicab', 'euclidean-squared'), got 'l2'"),
            ({"type": "FinAb", "moduli": [6, "7"]},
             "group.moduli[1] must be an integer >= 2, got '7'"),
            ({"type": "Banach"}, "group.type must be 'Qd' or 'FinAb', got 'Banach'"),
        ]
        for group, message in cases:
            with pytest.raises(ParseError) as info:
                decode_group(group)
            assert str(info.value) == message
        with pytest.raises(ParseError) as info:
            decode_set({"group": {"type": "Qd", "dim": 1}, "points": [[[1, 2]]]})
        assert str(info.value) == "points[0][0]: rationals must be strings or integers, got [1, 2]"

    def test_dimension_mismatch_is_rejected(self):
        doc = {"group": {"type": "Qd", "dim": 2, "metric": "sup"},
               "points": [["0"]]}
        with pytest.raises(ParseError):
            decode_set(doc)

    def test_floats_are_rejected(self):
        doc = {"group": {"type": "Qd", "dim": 1, "metric": "sup"},
               "points": [[0.5]]}
        with pytest.raises(ParseError):
            decode_set(doc)

    def test_malformed_rational_is_rejected(self):
        doc = {"group": {"type": "Qd", "dim": 1, "metric": "sup"},
               "points": [["1/0"]]}
        with pytest.raises(ParseError):
            decode_set(doc)

    def test_unknown_group_type_is_rejected(self):
        with pytest.raises(ParseError):
            decode_group({"type": "Banach", "dim": 1})

    @pytest.mark.parametrize("value,want", RESULT_VALUES.values(), ids=list(RESULT_VALUES))
    def test_a_result_record_is_the_object_of_its_fields(self, value, want):
        got = encode_result(value)
        assert list(got) == list(value._fields)  # the record's fields, in order
        assert got == want
        assert json.loads(dumps(got)) == want

    def test_dumps_is_stable(self):
        A = finite_set(Q1, [point("1/2"), point(0)])
        assert dumps(encode_set(A)) == dumps(encode_set(A))
        assert dumps(encode_set(A)).endswith("\n")


class TestCliCore:
    def test_spectre_of_symmetric_set(self, tmp_path, capsys):
        code = run(["spectre", "--set", sym3_path(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["points"] == [["-1"], ["0"], ["1"]]

    def test_spectre_oracle_mode_agrees(self, tmp_path, capsys):
        path = sym3_path(tmp_path)
        run(["spectre", "--set", path])
        first = capsys.readouterr().out
        run(["spectre", "--set", path, "--mode", "oracle"])
        assert capsys.readouterr().out == first

    def test_center_output(self, tmp_path, capsys):
        A = finite_set(Q1, [point(0), point("1/2"), point(1)])
        code = run(["center", "--set", write(tmp_path, "a.json", encode_set(A))])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [d["value"] for d in out["values"]] == ["0", "1/2"]

    def test_netset_check_failure_exits_one(self, tmp_path, capsys):
        A = finite_set(Q1, [point(0), point(1), point(2)])
        code = run(["netset", "check", "--set", write(tmp_path, "a.json", encode_set(A))])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["ok"] is False
        assert out["witness"]["shared_value"] == ["1"]

    def test_netset_make(self, tmp_path, capsys):
        A = finite_set(Q1, [point(0), point(1)])
        code = run(["netset", "make", "--eps", "1/16",
                    "--set", write(tmp_path, "a.json", encode_set(A))])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(out["points"]) == 3

    def test_nonsliding_check(self, tmp_path, capsys):
        A = finite_set(Q1, [point(0), point("1/3"), point("1/9"), point(1)])
        code = run(["nonsliding", "check", "--set", write(tmp_path, "a.json", encode_set(A))])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_hausdorff(self, tmp_path, capsys):
        A = finite_set(Q1, [point(0), point(1)])
        B = finite_set(Q1, [point(0), point("1/2"), point(1)])
        code = run(["hausdorff", "--a", write(tmp_path, "a.json", encode_set(A)),
                    "--b", write(tmp_path, "b.json", encode_set(B))])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out == {"value": "1/2", "squared": False}

    def test_probe_continuity(self, tmp_path, capsys):
        A = finite_set(Q1, [point(0), point(1), point(2)])
        family = [finite_set(Q1, [point(0), point(1), point(2 + Fraction(1, 2 ** n))])
                  for n in range(1, 6)]
        fam_doc = {"group": encode_group(Q1),
                   "sets": [encode_set(m)["points"] for m in family]}
        code = run(["probe", "continuity", "--set", write(tmp_path, "a.json", encode_set(A)),
                    "--family", write(tmp_path, "fam.json", fam_doc),
                    "--eps", "1/8"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["verdict"] == "discontinuity-witnessed"

    def test_refute_image(self, tmp_path, capsys):
        ctx = FiniteAbelian((7,))
        target = finite_set(ctx, [point(0), point(1), point(3)])
        code = run(["refute-image", "--target", write(tmp_path, "t.json", encode_set(target))])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["found"] is False
        assert out["scanned"] == 127

    def test_refute_image_budget_on_a_huge_order(self, tmp_path, capsys):
        target = finite_set(FiniteAbelian((20000,)), [point(0)])
        code = run(["refute-image", "--target", write(tmp_path, "t.json", encode_set(target))])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "2^20000" in captured.err

    def test_spectre_oracle_mode_honours_budget(self, tmp_path, capsys):
        A = finite_set(FiniteAbelian((200000,)), [point(0), point(1)])
        path = write(tmp_path, "a.json", encode_set(A))
        assert run(["spectre", "--set", path, "--mode", "oracle", "--budget", "1000"]) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("mode", ["fast", "oracle"])
    def test_negative_budget_is_a_usage_error(self, tmp_path, capsys, mode):
        argv = ["spectre", "--set", sym3_path(tmp_path), "--mode", mode, "--budget", "-1"]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--budget: must be >= 0, got -1" in captured.err

    def test_spectre_oracle_budget_counts_differences(self, tmp_path, capsys):
        # 1100^2 pairwise differences exceed the default budget of 2^20.
        A = finite_set(Q1, [point(k) for k in range(1100)])
        path = write(tmp_path, "a.json", encode_set(A))
        assert run(["spectre", "--set", path, "--mode", "oracle"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1210000" in captured.err


class TestCliSeries:
    def test_enumerate(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", encode_series(series_spec(["1/2", "1/4"])))
        code = run(["series", "enumerate", "--series", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["points"] == [["0"], ["1/4"], ["1/2"], ["3/4"]]

    def test_gaps_csv(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", encode_series(series_spec(["1", "1/4", "1/16"])))
        code = run(["series", "gaps", "--series", path, "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("gap,") for line in lines)
        assert "gap,5/16,1,11/16,True" in lines

    def test_third_gap_ok(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", encode_series(series_spec(["1", "1/4", "1/16"])))
        assert run(["series", "third-gap", "--series", path]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_third_gap_unsorted_is_a_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", encode_series(series_spec(["1/4", "1/2"])))
        assert run(["series", "third-gap", "--series", path]) == 2

    def test_first_gap(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", encode_series(series_spec(["1", "1/4", "1/16"])))
        code = run(["series", "first-gap", "--k", "1", "--series", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["gap"]["alpha"] == "5/16"
        assert out["gap"]["beta"] == "1"

    def test_spectre_props(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", encode_series(series_spec(["1/2", "1/2", "1/2"])))
        assert run(["series", "spectre-props", "--series", path]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_budget_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", encode_series(series_spec(["1"] * 12)))
        assert run(["series", "enumerate", "--series", path, "--budget", "100"]) == 3

    @pytest.mark.parametrize("group", ["series", "planar"])
    def test_three_dimensional_series_is_rejected_by_dimension(self, tmp_path,
                                                              capsys, group):
        path = write(tmp_path, "s.json", '{"terms": [["1", "0", "0"]], "dim": 3}')
        assert run([group, "enumerate", "--series", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "got dimension 3" in captured.err

    @pytest.mark.parametrize("group, terms, message", [
        ("planar", ["1/2", "1/4"], "planar commands need two-dimensional series"),
        ("series", [("1/2", "1/3"), ("1/4", "1/9")],
         "use the planar commands for two-dimensional series"),
    ])
    def test_a_series_of_the_other_dimension_is_sent_to_its_group(self, tmp_path, capsys,
                                                                 group, terms, message):
        path = write(tmp_path, "s.json", encode_series(series_spec(terms)))
        assert run([group, "enumerate", "--series", path]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_an_empty_series_of_dimension_zero_is_rejected_at_dim(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", '{"terms": [], "dim": 0}')
        assert run(["series", "enumerate", "--series", path]) == 2
        assert capsys.readouterr().err == "error: dim must be a positive integer, got 0\n"


# planar first-gap on (1/2^j, 1/3^j), j = 1..24: below term k the x-sum is
# 1/2^k - 1/2^24 and the y-sum (1/3^k - 1/3^24)/2, for k = 1 and 12.
P24_FIRST_GAP_K1 = (
    'item,"x-gap (8388607/16777216, 1/2)",True,\n'
    'item,"y-gap (47071589413/282429536481, 1/3)",True,\n'
    'item,"rect gap (8388607/16777216, 1/2) x (47071589413/282429536481, 1/3)",True,\n'
    'result,True\n')
P24_FIRST_GAP_K12 = (
    'item,"x-gap (4095/16777216, 1/4096)",True,\n'
    'item,"y-gap (265720/282429536481, 1/531441)",True,\n'
    'item,"rect gap (4095/16777216, 1/4096) x (265720/282429536481, 1/531441)",True,\n'
    'result,True\n')


class TestCliPlanar:
    def test_example_check(self, capsys):
        assert run(["planar", "example", "--check"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["report"]["passed"] is True
        assert len(out["set"]["points"]) == 12
        assert out["largest_rect_gaps"] == [
            {"a": "3/8", "b": "1", "c": "3/8", "d": "1", "area": "25/64"}]

    def test_example_svg(self, tmp_path, capsys):
        svg = tmp_path / "example.svg"
        assert run(["planar", "example", "--check", "--svg", str(svg)]) == 0
        capsys.readouterr()
        text = svg.read_text()
        assert text.startswith("<svg")
        assert text.count("<circle") == 12

    def test_unwritable_svg_is_a_usage_error(self, tmp_path, capsys):
        terms = [("1/2", "1/2"), ("1/8", "1/8")]
        path = write(tmp_path, "s.json", encode_series(series_spec(terms)))
        svg = tmp_path / "missing" / "x.svg"
        assert run(["planar", "enumerate", "--series", path, "--svg", str(svg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ")
        assert captured.err.count("\n") == 1 and str(svg) in captured.err
        assert not svg.parent.exists()

    def test_gaps_largest_mode(self, tmp_path, capsys):
        terms = [("7/8", "1/8"), ("1/8", "7/8"), ("3/16", "3/16"), ("3/16", "3/16")]
        path = write(tmp_path, "s.json", encode_series(series_spec(terms)))
        code = run(["planar", "gaps", "--series", path, "--mode", "largest-by-area"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [g["a"] for g in out["rect_gaps"]] == ["3/8"]

    def test_second_gap(self, tmp_path, capsys):
        terms = [("7/8", "1/8"), ("1/8", "7/8"), ("3/16", "3/16"), ("3/16", "3/16")]
        path = write(tmp_path, "s.json", encode_series(series_spec(terms)))
        code = run(["planar", "second-gap", "--series", path,
                    "--rect", "3/8,1,3/8,1"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_first_gap(self, tmp_path, capsys):
        terms = [("7/8", "1/8"), ("1/8", "7/8"), ("3/16", "3/16"), ("3/16", "3/16")]
        path = write(tmp_path, "s.json", encode_series(series_spec(terms)))
        assert run(["planar", "first-gap", "--k", "1", "--series", path]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    @pytest.mark.parametrize("k, budget, csv", [
        (1, [], P24_FIRST_GAP_K1), (12, [], P24_FIRST_GAP_K12),
        (1, ["--budget", "0"], P24_FIRST_GAP_K1)], ids=["k1", "k12", "k1-budget0"])
    def test_first_gap_enumerates_nothing(self, tmp_path, capsys, k, budget, csv):
        # E of (1/2^j, 1/3^j), j = 1..24, has 2^24 points, past any budget
        # here; the report reads the predictions off the terms.
        terms = [(Fraction(1, 2 ** j), Fraction(1, 3 ** j)) for j in range(1, 25)]
        path = write(tmp_path, "p24.json", encode_series(series_spec(terms)))
        argv = ["planar", "first-gap", "--series", path, "--k", str(k), "--format", "csv"]
        assert run(argv + budget) == 0
        assert capsys.readouterr() == (csv, "")

    def test_example_check_counts_the_example_sums_against_the_budget(self, capsys):
        assert run(["planar", "example", "--check", "--budget", "8"]) == 3
        assert capsys.readouterr() == ("", "error: enumeration of size 2^4 exceeds budget 8\n")


class TestCliPsum:
    def test_enumerate(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", encode_pspec(series_spec(["1/4", "1/16"], coeffs=["0", "1", "2"])))
        assert run(["psum", "enumerate", "--pspec", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["points"]) == 9

    def test_gap_translate(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", encode_pspec(series_spec(["1/2", "1/4"])))
        code = run(["psum", "gap-translate", "--gap", "1/4,1/2", "--pspec", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out == {"ok": True, "epsilon": "1/2"}

    def test_gap_translate_rejects_non_gaps(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", encode_pspec(series_spec(["1/2", "1/4"])))
        assert run(["psum", "gap-translate", "--gap", "1/8,1/4", "--pspec", path]) == 2

    def test_negative_gap_value_needs_the_equals_form(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", encode_pspec(series_spec(["1/2", "1/4"])))
        assert run(["psum", "gap-translate", "--gap=-1,0", "--pspec", path]) == 2
        assert "is not a gap of the set" in capsys.readouterr().err

    def test_cantor_demo(self, capsys):
        assert run(["psum", "cantor-demo", "--levels", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["strictly_decreasing"] is True
        assert [row["epsilon"] for row in out["rows"]] == \
            ["1/2", "1/16", "1/64", "1/256", "1/1024"]


class TestCliContract:
    def test_missing_file_is_a_usage_error(self, capsys):
        assert run(["spectre", "--set", "/nonexistent/a.json"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert run(["warp"]) == 2

    @pytest.mark.parametrize("flag", ["--seed", "--threads"])
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, flag):
        assert run(["spectre", "--set", sym3_path(tmp_path), flag, "1"]) == 2

    def test_refute_image_has_no_group_option(self, tmp_path, capsys):
        # The scanned group is the target's own, so there is nothing to restate.
        target = finite_set(FiniteAbelian((7,)), [point(0), point(1), point(3)])
        path = write(tmp_path, "t.json", encode_set(target))
        assert run(["refute-image", "--group", "7", "--target", path]) == 2
        assert capsys.readouterr().out == ""

    def test_malformed_file(self, tmp_path, capsys):
        for name, data in (("bad.json", b"{not json"),
                           ("deep.json", b"[" * 100000 + b"]" * 100000),
                           ("ff.json", b"\xff"),  # not UTF-8
                           ("inner.json", b'{"group": "\xff"}')):
            path = tmp_path / name
            path.write_bytes(data)
            assert run(["spectre", "--set", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert str(path) in captured.err

    def test_too_many_digits_in_a_string_names_the_coordinate(self, tmp_path, capsys):
        path = write(tmp_path, "long.json", {"group": {"type": "Qd", "dim": 1},
                                             "points": [["1" * 5000]]})
        assert run(["spectre", "--set", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: points[0][0]: ")
        assert captured.err.count("\n") == 1 and "1" * 100 not in captured.err

    def test_too_many_digits_in_a_json_integer_names_the_file(self, tmp_path, capsys):
        path = write(tmp_path, "long.json",
                     '{"group": {"type": "Qd", "dim": 1}, "points": [[%s]]}' % ("1" * 5000))
        assert run(["spectre", "--set", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path}: ")
        assert captured.err.count("\n") == 1 and "1" * 100 not in captured.err

    @pytest.mark.parametrize("command", ["spectre", "center"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_result_past_the_digit_limit_gives_a_plain_error(self, tmp_path, capsys,
                                                               command, fmt):
        # Each literal has 2201 digits, but 1/p - 1/q has a 4401-digit denominator.
        p, q = 10 ** 2200 + 1, 10 ** 2200 + 3
        path = write(tmp_path, "far.json", {"group": {"type": "Qd", "dim": 1},
                                            "points": [[f"1/{p}"], [f"1/{q}"]]})
        assert run([command, "--set", path, "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a result value has too many digits to print\n"

    @pytest.mark.parametrize("literal", ["1" * 5000 + "x", "1/" + "0" * 4000, "9" * 4000,
                                         "1" * 4000 + "." + "1" * 4000],
                             ids=["malformed", "zero-denominator", "residue", "residue-digits"])
    def test_a_long_bad_literal_gives_a_short_error(self, tmp_path, capsys, literal):
        path = write(tmp_path, "long.json", {"group": {"type": "FinAb", "moduli": [5]},
                                             "points": [[literal]]})
        assert run(["spectre", "--set", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: points[0][0]: ")
        assert captured.err.count("\n") == 1 and len(captured.err) < 120

    @pytest.mark.parametrize("what", list(LONG_VALUE_DOCS))
    def test_a_long_json_value_gives_a_short_error(self, tmp_path, capsys, what):
        path = write(tmp_path, "long.json", LONG_VALUE_DOCS[what])
        assert run(["spectre", "--set", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and len(captured.err) < 130

    @pytest.mark.parametrize("cmd", COMMANDS, ids=lambda c: c.words)
    def test_a_named_command_parses_as_in_the_full_tree(self, capsys, cmd):
        # Only the parsers on a named command's path are built; its help,
        # usage errors and parse must read exactly as with every parser built.
        words = cmd.words
        filled = [x for flag, spec in cmd.args if spec.get("required") for x in (flag, "1")]
        for tail in (["--help"], [], filled, [*filled, "--bogus"], ["--format", "xml"],
                     ["--budget", "-1"], ["--set", "a", "--mode", "psychic"]):
            argv = [*words.split(), *tail]
            assert parse_outcome(build_parser(argv), argv, capsys) == \
                parse_outcome(build_parser(), argv, capsys)
        other = next(c.words for c in COMMANDS if c.words != words).split()
        assert parse_outcome(build_parser(words.split()), [*other, "--help"], capsys)[0] == 2

    def test_top_help_and_an_unknown_command_list_every_choice(self, capsys):
        names = dict.fromkeys(c.words.split()[0] for c in COMMANDS)
        assert run(["--help"]) == 0
        assert "{%s}" % ",".join(names) in capsys.readouterr().out
        assert run(["warp"]) == 2
        # argparse quotes the choices in older releases (3.11, 3.13.0) and
        # not in newer patch releases (3.13.13).
        err = capsys.readouterr().err
        assert any("(choose from %s)" % ", ".join(map(form, names)) in err
                   for form in (repr, str))
        for group in {c.words.split()[0] for c in COMMANDS if " " in c.words}:
            leaves = [c.words.split()[1] for c in COMMANDS if c.words.startswith(group + " ")]
            assert run([group, "--help"]) == 0
            assert "{%s}" % ",".join(leaves) in capsys.readouterr().out

    def test_internal_failure_exits_four(self, tmp_path, capsys, monkeypatch):
        # With one candidate per point, 1/2 is turned away (1/2 - 1/4 = 1/4 - 0)
        # and has no perturbation left to try.
        monkeypatch.setattr("spectrekit.sets._DENSIFY_SCAN_CAP", 1)
        A = finite_set(Q1, [point(0), point("1/4"), point("1/2")])
        path = write(tmp_path, "a.json", encode_set(A))
        assert run(["netset", "make", "--eps", "1/16", "--set", path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: perturbation scan exhausted")

    def test_readme_lists_every_command(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("### Subcommands", 1)[1].split("\n### ", 1)[0]
        documented = []
        for usage in re.findall(r"^\| `([^`]+)`", table, flags=re.MULTILINE):
            words = takewhile(lambda t: not t.startswith(("-", "[")), usage.split())
            documented.append(" ".join(words))
        assert sorted(documented) == sorted(c.words for c in COMMANDS)

    def test_json_output_is_deterministic(self, tmp_path, capsys):
        path = sym3_path(tmp_path)
        run(["spectre", "--set", path])
        first = capsys.readouterr().out
        run(["spectre", "--set", path])
        assert capsys.readouterr().out == first

    def test_csv_output_is_deterministic(self, tmp_path, capsys):
        A = finite_set(Q1, [point(0), point("1/2"), point(1)])
        path = write(tmp_path, "a.json", encode_set(A))
        run(["center", "--set", path, "--format", "csv"])
        first = capsys.readouterr().out
        run(["center", "--set", path, "--format", "csv"])
        assert capsys.readouterr().out == first
