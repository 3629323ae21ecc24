"""Reading and writing the JSON documents used by the command line tools.

Rationals travel as strings ("3/4", "-2", "0.5") so nothing is ever rounded;
integers are also accepted, floats never.  Decoding is strict: wrong shapes,
out-of-range residues, and duplicate points are rejected with the offending
position named.  Encoding always emits the canonical form, so a decode of an
encode reproduces the original object exactly.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from .errors import DomainError, ParseError
from .groups import SUP, DistValue, FiniteAbelian, Grid, GroupCtx, RationalSpace
from .psums import PSpec, pspec
from .rational import Rat, format_rat, format_scaled, parse_pair, shorten
from .series import SeriesSpec, series_spec
from .sets import FiniteSet

QD = "Qd"
FINAB = "FinAb"


def _require_mapping(obj: Any, what: str) -> Mapping:
    if not isinstance(obj, Mapping):
        raise ParseError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _require_list(obj: Any, what: str) -> Sequence:
    if not isinstance(obj, (list, tuple)):
        raise ParseError(f"{what} must be a JSON array, got {type(obj).__name__}")
    return obj


def _get(obj: Mapping, key: str, what: str) -> Any:
    if key not in obj:
        raise ParseError(f"{what} is missing the required key {key!r}")
    return obj[key]


def _decode_pair(raw: Any, where: str) -> Tuple[int, int]:
    """The reduced (numerator, denominator) pair of a JSON rational."""
    if isinstance(raw, str):
        try:
            return parse_pair(raw)
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from None
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw, 1
    raise ParseError(f"{where}: rationals must be strings or integers, "
                     f"got {shorten(repr(raw))}")


def _decode_rat(raw: Any, where: str) -> Rat:
    return Rat(*_decode_pair(raw, where))


# -- groups -------------------------------------------------------------------

def encode_group(ctx: GroupCtx) -> Dict[str, Any]:
    if isinstance(ctx, FiniteAbelian):
        return {"type": FINAB, "moduli": list(ctx.moduli)}
    return {"type": QD, "dim": ctx.dim, "metric": ctx.metric}


def decode_group(obj: Any) -> GroupCtx:
    """The context of a group document.  The JSON shape is checked here, and
    the constructors' rule on dim, metric and moduli is reported at its key."""
    doc = _require_mapping(obj, "group")
    kind = _get(doc, "type", "group")
    try:
        if kind == QD:
            return RationalSpace(_get(doc, "dim", "group"), doc.get("metric", SUP))
        if kind == FINAB:
            return FiniteAbelian(_require_list(_get(doc, "moduli", "group"), "group.moduli"))
    except DomainError as exc:
        raise ParseError(f"group.{exc}") from exc
    raise ParseError(f"group.type must be {QD!r} or {FINAB!r}, got {shorten(repr(kind))}")


# -- point sets ---------------------------------------------------------------

def _decode_point_list(raw: Any, ctx: GroupCtx, where: str) -> FiniteSet:
    """Each point as a tuple of reduced (numerator, denominator) pairs, checked
    and deduplicated as pairs, then put on the grid of their lcm at once."""
    entries = _require_list(raw, where)
    if not entries:
        raise ParseError(f"{where} must be nonempty")
    moduli = ctx.moduli if isinstance(ctx, FiniteAbelian) else None
    seen: Dict[Tuple[Tuple[int, int], ...], int] = {}
    for i, entry in enumerate(entries):
        coords = _require_list(entry, f"{where}[{i}]")
        if len(coords) != ctx.dim:
            raise ParseError(f"{where}[{i}] has {len(coords)} coordinates, "
                             f"expected {ctx.dim}")
        p = tuple(_decode_pair(c, f"{where}[{i}][{j}]") for j, c in enumerate(coords))
        if moduli is not None:
            for j, ((n, d), m) in enumerate(zip(p, moduli)):
                if d != 1 or not 0 <= n < m:
                    try:
                        got = shorten(format_scaled(n, d))
                    except DomainError:  # past the int-string limit
                        got = "a literal with too many digits"
                    raise ParseError(f"{where}[{i}][{j}]: residue must be an integer "
                                     f"in [0, {m}), got {got}")
        j = seen.setdefault(p, i)
        if j != i:
            raise ParseError(f"{where}[{i}] duplicates {where}[{j}]")
    scale = math.lcm(1, *{d for p in seen for _, d in p})
    return Grid(ctx, scale).to_set([tuple(n * (scale // d) for n, d in p) for p in seen])


def encode_set(A: FiniteSet) -> Dict[str, Any]:
    s = A.scale
    return {"group": encode_group(A.ctx),
            "points": [[format_scaled(c, s) for c in p] for p in A.ints]}


def encode_result(value: Any) -> Any:
    """The JSON form of a result value, by one rule: a record (a named tuple)
    is the object of its fields, a ``Fraction`` its canonical string, a
    ``DistValue`` ``{"value", "squared"}``, a ``FiniteSet`` its point rows and
    any other tuple or list a list; str, int, bool and None are JSON already."""
    if isinstance(value, Fraction):
        return format_rat(value)
    if isinstance(value, (tuple, list)):
        fields = getattr(value, "_fields", None)
        if fields is None:
            return [encode_result(v) for v in value]
        return dict(zip(fields, map(encode_result, value)))
    if isinstance(value, DistValue):
        return {"value": format_rat(value.value), "squared": value.squared}
    if isinstance(value, FiniteSet):
        return encode_set(value)["points"]
    return value


def decode_set(obj: Any) -> FiniteSet:
    doc = _require_mapping(obj, "set document")
    ctx = decode_group(_get(doc, "group", "set document"))
    return _decode_point_list(_get(doc, "points", "set document"), ctx, "points")


def decode_family(obj: Any) -> List[FiniteSet]:
    """A shared group plus a list of point sets (duplicate points within one
    set are rejected; the sets themselves may repeat)."""
    doc = _require_mapping(obj, "family document")
    ctx = decode_group(_get(doc, "group", "family document"))
    sets_raw = _require_list(_get(doc, "sets", "family document"), "sets")
    if not sets_raw:
        raise ParseError("sets must be nonempty")
    return [_decode_point_list(entry, ctx, f"sets[{i}]")
            for i, entry in enumerate(sets_raw)]


# -- series and P-specs -------------------------------------------------------

def encode_series(s: SeriesSpec) -> Dict[str, Any]:
    doc: Dict[str, Any] = {"terms": [[format_scaled(c, s.scale) for c in t]
                                     for t in s.ints]}
    if not s.ints:
        doc["dim"] = s.dim
    return doc


def decode_series(obj: Any) -> SeriesSpec:
    doc = _require_mapping(obj, "series document")
    terms_raw = _require_list(_get(doc, "terms", "series document"), "terms")
    terms = []
    for i, entry in enumerate(terms_raw):
        if isinstance(entry, (list, tuple)):
            terms.append(tuple(_decode_rat(c, f"terms[{i}][{j}]")
                               for j, c in enumerate(entry)))
        else:
            terms.append((_decode_rat(entry, f"terms[{i}]"),))
    dim = doc.get("dim")
    if dim is not None and (isinstance(dim, bool) or not isinstance(dim, int)):
        raise ParseError("dim must be an integer")
    try:
        return series_spec(terms, dim=dim)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def encode_pspec(spec: PSpec) -> Dict[str, Any]:
    return {
        "P": [format_rat(c) for c in spec.coeffs],
        "terms": [format_rat(t) for t in spec.terms],
    }


def decode_pspec(obj: Any) -> PSpec:
    doc = _require_mapping(obj, "P-spec document")
    coeffs_raw = _require_list(_get(doc, "P", "P-spec document"), "P")
    terms_raw = _require_list(_get(doc, "terms", "P-spec document"), "terms")
    coeffs = [_decode_rat(c, f"P[{i}]") for i, c in enumerate(coeffs_raw)]
    terms = [_decode_rat(t, f"terms[{i}]") for i, t in enumerate(terms_raw)]
    return pspec(coeffs, terms)


# -- files --------------------------------------------------------------------

def dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_path(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    except (OSError, ValueError) as exc:  # bad UTF-8, or an over-long integer
        raise ParseError(f"cannot read {path}: {exc}") from None
    except RecursionError:
        raise ParseError(f"{path} is nested too deeply") from None
