"""Exact rational scalars and points.

Scalars are ``fractions.Fraction`` values, re-exported as ``Rat``: arbitrary
precision, kept in lowest terms with a positive denominator, so equal values
have equal representations.  Points are fixed-length tuples of scalars, and
tuple comparison provides the lexicographic coordinate order used whenever a
canonical layout is needed.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Tuple, Union

from .errors import DomainError, ParseError

Rat = Fraction
Point = Tuple[Rat, ...]
RatLike = Union[Rat, int, str]

# Accepted literals: optional sign, then digits, then optionally "/digits"
# (a fraction) or ".digits" (a terminating decimal).  Nothing else.
_RAT_RE = re.compile(r"([+-]?)(\d+)(?:/(\d+)|\.(\d+))?\Z")


def parse_pair(text: str) -> Tuple[int, int]:
    """Parse a rational literal to its reduced (numerator, denominator) pair,
    denominator positive: ``parse_pair("-6/8") == (-3, 4)``."""
    m = _RAT_RE.fullmatch(text.strip())
    if m is None:
        raise ParseError(f"malformed rational literal: {shorten(repr(text))}")
    sign, whole, den, dec = m.groups()
    try:
        n, d = int(whole), 1
        if den is not None:
            d = int(den)
        elif dec is not None:
            d = 10 ** len(dec)
            n = n * d + int(dec)
    except ValueError:  # Python's int-string limit; the digits are not echoed
        raise ParseError("rational literal has too many digits") from None
    if d == 0:
        raise ParseError(f"zero denominator in rational literal: {shorten(repr(text))}")
    g = math.gcd(n, d)
    return (-n if sign == "-" else n) // g, d // g


def parse_rat(text: str) -> Rat:
    """Parse a rational literal such as ``"3/4"``, ``"-0.25"`` or ``"7"``.

    The result is canonical: ``parse_rat("3/6") == parse_rat("1/2")``.
    """
    return Fraction(*parse_pair(text))


def shorten(text: str) -> str:
    """``text`` to echo in an error message: whole, or its first 40 characters and "..."."""
    return text if len(text) <= 40 else text[:40] + "..."


def format_rat(value: RatLike) -> str:
    """Render a rational canonically: ``"p/q"`` in lowest terms, or ``"p"``
    when the denominator is one.  ``parse_rat`` inverts this exactly."""
    return format_scaled(*as_rat(value).as_integer_ratio())


def format_scaled(n: int, scale: int) -> str:
    """``format_rat(Fraction(n, scale))`` without building the Fraction.  A
    value past Python's int-string limit raises a DomainError."""
    g = math.gcd(n, scale)
    try:
        return str(n // g) if g == scale else f"{n // g}/{scale // g}"
    except ValueError:  # Python's int-string limit
        raise DomainError("a result value has too many digits to print") from None


def as_rat(value: RatLike) -> Rat:
    """Coerce a string literal, int, or Fraction to a canonical Rat.  A
    Fraction is already canonical and comes back as it is."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_rat(value)
    return Fraction(value)


def point(*coords: RatLike) -> Point:
    """Build a point from rational-convertible coordinates.

    >>> point("1/2", 3)
    (Fraction(1, 2), Fraction(3, 1))
    """
    return tuple(as_rat(c) for c in coords)
