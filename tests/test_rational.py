"""Rational literal parsing, formatting, and point construction."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectrekit import ParseError, format_rat, parse_rat, point
from spectrekit.rational import as_rat, parse_pair


class TestParseRat:
    @pytest.mark.parametrize("text,expected", [
        ("7", Fraction(7)),
        ("-3", Fraction(-3)),
        ("+5", Fraction(5)),
        ("3/4", Fraction(3, 4)),
        ("-1/2", Fraction(-1, 2)),
        ("0.25", Fraction(1, 4)),
        ("2.5", Fraction(5, 2)),
        ("-0.125", Fraction(-1, 8)),
        ("0", Fraction(0)),
        ("-0/5", Fraction(0)),
        ("2/4", Fraction(1, 2)),
        ("006/008", Fraction(3, 4)),
    ])
    def test_accepted_literals(self, text, expected):
        assert parse_rat(text) == expected

    def test_surrounding_whitespace_is_tolerated(self):
        assert parse_rat("  3/4\n") == Fraction(3, 4)

    @pytest.mark.parametrize("bad", [
        "", "a", "+", "-", "1/0", "0/0", "1/2/3", "1 / 2", "1.2.3",
        "1e3", "./5", "1.", ".5", "1/-2", "--1", "½", "nan", "inf",
    ])
    def test_malformed_literals_raise(self, bad):
        with pytest.raises(ParseError):
            parse_rat(bad)

    def test_zero_denominator_message_names_the_literal(self):
        with pytest.raises(ParseError, match="3/0"):
            parse_rat("3/0")

    @pytest.mark.parametrize("text,message", [
        ("1/2/3", "malformed rational literal: '1/2/3'"),
        ("3/0", "zero denominator in rational literal: '3/0'"),
        ("1" * 5000 + "x", "malformed rational literal: '" + "1" * 39 + "..."),
        ("3/" + "0" * 100, "zero denominator in rational literal: '3/" + "0" * 37 + "..."),
    ], ids=["short-malformed", "short-zero", "long-malformed", "long-zero"])
    def test_messages_echo_at_most_forty_characters_of_the_literal(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_rat(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text", ["1" * 5000, "-1/" + "3" * 5000, "0." + "5" * 5000],
                             ids=["integer", "fraction", "decimal"])
    def test_too_many_digits_is_a_parse_error_without_the_digits(self, text):
        # Python refuses to convert digit strings past its int-string limit.
        with pytest.raises(ParseError, match="too many digits") as info:
            parse_rat(text)
        assert "5" * 100 not in str(info.value) and "1" * 100 not in str(info.value)


def literal(r: random.Random) -> str:
    """A random accepted literal: sign or none, leading zeros, an unreduced
    fraction or a decimal, and surrounding whitespace."""
    whole = str(r.randint(0, 10 ** r.randint(0, 25))).zfill(r.randint(1, 4))
    tail = r.choice(["", f"/{r.randint(1, 10 ** 6) * r.choice((1, 6, 10))}",
                     "." + str(r.randint(0, 10 ** 8)).zfill(r.randint(1, 12))])
    return r.choice(["", " ", "\n\t"]) + r.choice("+- ").strip() + whole + tail + \
        r.choice(["", "  ", "\n"])


class TestParsePair:
    def test_matches_the_fraction_parser(self):
        r = random.Random(120)
        for _ in range(3000):
            text = literal(r)
            q = Fraction(text.strip())
            assert parse_pair(text) == (q.numerator, q.denominator), text
            assert parse_rat(text) == q

    def test_examples(self):
        assert parse_pair("-6/8") == (-3, 4)
        assert parse_pair("-0.50") == (-1, 2)
        assert parse_pair("+0/7") == (0, 1)
        assert parse_pair(" 0012 ") == (12, 1)


class TestFormatRat:
    def test_integers_render_without_slash(self):
        assert format_rat(Fraction(4, 2)) == "2"
        assert format_rat(0) == "0"
        assert format_rat(-7) == "-7"

    def test_fractions_render_in_lowest_terms(self):
        assert format_rat(Fraction(2, 4)) == "1/2"
        assert format_rat(Fraction(-6, 8)) == "-3/4"

    def test_accepts_strings_and_ints(self):
        assert format_rat("3/6") == "1/2"
        assert format_rat(5) == "5"

    @given(st.fractions())
    def test_round_trip(self, q):
        assert parse_rat(format_rat(q)) == q

    @given(st.integers(-(2 ** 64), 2 ** 64), st.integers(1, 2 ** 32))
    def test_round_trip_large_values(self, num, den):
        q = Fraction(num, den)
        assert parse_rat(format_rat(q)) == q


class TestPoint:
    def test_mixed_inputs(self):
        assert point("1/2", 3) == (Fraction(1, 2), Fraction(3))

    def test_empty_point(self):
        assert point() == ()

    def test_as_rat_coercions(self):
        assert as_rat("0.5") == Fraction(1, 2)
        assert as_rat(2) == Fraction(2)
        assert as_rat(Fraction(1, 3)) == Fraction(1, 3)

    def test_as_rat_rejects_malformed_strings(self):
        with pytest.raises(ParseError):
            as_rat("one half")
