"""The value types and result records: construction, equality, hashing, repr
text and immutability.  Every class is pinned field by field, so its
implementation can change without changing what callers see."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from spectrekit import (
    AxisGap,
    CheckItem,
    DemoReport,
    DistValue,
    DomainError,
    FiniteAbelian,
    FiniteSet,
    Gap1D,
    LemmaReport,
    PairWitness,
    ProbeReport,
    RationalSpace,
    RectGap,
    RefuteResult,
    SeriesSpec,
    SetVerdict,
    achievement_set,
    point,
    series_spec,
)
from spectrekit.hyperspace import ProbeRow

Q1 = RationalSpace(1)
HALF = DistValue(F(1, 2))
ITEM = CheckItem("tail", True, "1/2")
ROW = ProbeRow(1, HALF, HALF, True)
SET = FiniteSet(Q1, [point(0), point("1/2")])
PAIR = ((F(0),), (F(1),))
Q1_REPR = "RationalSpace(dim=1, metric='sup')"
HALF_REPR = "DistValue(value=Fraction(1, 2), squared=False)"
ITEM_REPR = "CheckItem(label='tail', passed=True, detail='1/2')"
ROW_REPR = f"ProbeRow(index=1, input_distance={HALF_REPR}, spectre_distance={HALF_REPR}, usc_ok=True)"
SET_REPR = f"FiniteSet(ctx={Q1_REPR}, scale=2, ints=((0,), (1,)))"
PAIR_REPR = "((Fraction(0, 1),), (Fraction(1, 1),))"

# (class, keyword arguments in signature order, the same value's repr,
#  positional arguments of a value that differs from it).
VALUE_TYPES = [
    (RationalSpace, {"dim": 2, "metric": "taxicab"},
     "RationalSpace(dim=2, metric='taxicab')", (2, "sup")),
    (FiniteAbelian, {"moduli": (2, 3)}, "FiniteAbelian(moduli=(2, 3))", ((3, 2),)),
    (DistValue, {"value": F(1, 2), "squared": True},
     "DistValue(value=Fraction(1, 2), squared=True)", (F(1, 2), False)),
    (FiniteSet, {"ctx": Q1, "points": [point("1/2"), point(0), point("1/2")]},
     SET_REPR, (Q1, [point(0), point(1)])),
    (SeriesSpec, {"scale": 2, "ints": ((1,),), "ctx": Q1, "coeffs": (0, 1, 3), "coeff_scale": 2},
     f"SeriesSpec(scale=2, ints=((1,),), ctx={Q1_REPR}, coeffs=(0, 1, 3), coeff_scale=2)",
     (2, ((1,),), Q1)),
]
RECORDS = [
    (ProbeRow, {"index": 1, "input_distance": HALF, "spectre_distance": HALF, "usc_ok": True},
     ROW_REPR, (2, HALF, HALF, True)),
    (ProbeReport, {"rows": (ROW,), "epsilon": F(1, 4), "verdict": "continuous-looking",
                   "tail_bound": None, "usc_tail_ok": True},
     f"ProbeReport(rows=({ROW_REPR},), epsilon=Fraction(1, 4), "
     "verdict='continuous-looking', tail_bound=None, usc_tail_ok=True)",
     ((ROW,), F(1, 4), "continuous-looking", F(1, 2), True)),
    (RefuteResult, {"found": True, "witness": SET, "scanned": 5},
     f"RefuteResult(found=True, witness={SET_REPR}, scanned=5)", (False, None, 5)),
    (RectGap, {"a": F(0), "b": F(1), "c": F(1, 2), "d": F(2)},
     "RectGap(a=Fraction(0, 1), b=Fraction(1, 1), c=Fraction(1, 2), d=Fraction(2, 1))",
     (F(0), F(1), F(1, 2), F(3))),
    (AxisGap, {"axis": "x", "lo": F(0), "hi": F(1, 2)},
     "AxisGap(axis='x', lo=Fraction(0, 1), hi=Fraction(1, 2))", ("y", F(0), F(1, 2))),
    (DemoReport, {"rows": ((1, F(1, 4)),), "strictly_decreasing": True, "note": "n"},
     "DemoReport(rows=((1, Fraction(1, 4)),), strictly_decreasing=True, note='n')",
     (((1, F(1, 4)),), False, "n")),
    (CheckItem, {"label": "tail", "passed": True, "detail": "1/2"}, ITEM_REPR,
     ("tail", False, "1/2")),
    (LemmaReport, {"name": "third-gap", "items": (ITEM,), "note": "n"},
     f"LemmaReport(name='third-gap', items=({ITEM_REPR},), note='n')",
     ("third-gap", (), "n")),
    (Gap1D, {"alpha": F(1, 4), "beta": F(1, 2), "dominating": True},
     "Gap1D(alpha=Fraction(1, 4), beta=Fraction(1, 2), dominating=True)",
     (F(1, 4), F(1, 2), False)),
    (PairWitness, {"pair_a": PAIR, "pair_b": PAIR, "shared_value": HALF},
     f"PairWitness(pair_a={PAIR_REPR}, pair_b={PAIR_REPR}, shared_value={HALF_REPR})",
     (PAIR, PAIR, (F(1),))),
    (SetVerdict, {"ok": False, "witness": None, "reason": "r"},
     "SetVerdict(ok=False, witness=None, reason='r')", (False, None, "s")),
]
# (short call, the same call with every default spelled out).
DEFAULTS = [
    (lambda: RationalSpace(3), lambda: RationalSpace(3, "sup")),
    (lambda: DistValue(F(2)), lambda: DistValue(F(2), squared=False)),
    (lambda: CheckItem("l", False), lambda: CheckItem("l", False, detail="")),
    (lambda: LemmaReport("n", ()), lambda: LemmaReport("n", (), note="")),
    (lambda: SetVerdict(True), lambda: SetVerdict(True, witness=None, reason="")),
    (lambda: SeriesSpec(2, ((1,),), Q1),
     lambda: SeriesSpec(2, ((1,),), Q1, coeffs=(0, 1), coeff_scale=1)),
]


def _cases(cases):
    return [pytest.param(*case, id=case[0].__name__) for case in cases]


@pytest.mark.parametrize("cls,kwargs,text,other", _cases(VALUE_TYPES + RECORDS))
class TestContract:
    def test_positional_and_keyword_construction_agree(self, cls, kwargs, text, other):
        by_position, by_keyword = cls(*kwargs.values()), cls(**kwargs)
        assert by_position == by_keyword and not by_position != by_keyword
        assert hash(by_position) == hash(by_keyword)
        assert by_position is not by_keyword

    def test_repr(self, cls, kwargs, text, other):
        assert repr(cls(**kwargs)) == text

    def test_a_different_value_is_unequal(self, cls, kwargs, text, other):
        value, different = cls(**kwargs), cls(*other)
        assert value != different and not value == different
        assert repr(value) != repr(different)
        assert len({value, different, cls(**kwargs)}) == 2

    def test_fields_cannot_be_assigned_or_deleted(self, cls, kwargs, text, other):
        value = cls(**kwargs)
        for name in [*kwargs, "extra"]:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        for name in kwargs:
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == text


@pytest.mark.parametrize("short,full", DEFAULTS,
                         ids=[type(full()).__name__ for _, full in DEFAULTS])
def test_defaults(short, full):
    assert short() == full() and repr(short()) == repr(full())


@pytest.mark.parametrize("cls,kwargs,text,other", _cases(VALUE_TYPES))
def test_value_types_equal_only_their_own_class(cls, kwargs, text, other):
    value = cls(**kwargs)
    assert value != tuple(kwargs.values())
    assert all(value != c(**kw) for c, kw, *_ in VALUE_TYPES if c is not cls)
    assert value.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("cls,kwargs,text,other", _cases(RECORDS))
def test_records_unpack_and_compare_as_tuples(cls, kwargs, text, other):
    record = cls(**kwargs)
    fields = tuple(kwargs.values())
    assert record == fields and tuple(record) == fields and hash(record) == hash(fields)
    assert record[0] is fields[0] and len(record) == len(fields)
    assert record._fields == tuple(kwargs)


def test_set_verdict_truth_is_its_ok_field():
    assert SetVerdict(True) and not SetVerdict(False, reason="r")


def test_finite_set_caches_its_elements():
    A = FiniteSet(Q1, [point("1/2"), point(0)])
    assert "elements" not in vars(A)
    assert A.elements is A.elements == ((F(0),), (F(1, 2),))
    assert "elements" in vars(A)
    assert A == SET and hash(A) == hash(SET) and repr(A) == SET_REPR


def test_series_spec_caches_terms_and_sign():
    s = series_spec(["1/2", "-1/3"])
    assert "terms" not in vars(s) and "nonnegative" not in vars(s)
    assert s.terms is s.terms == ((F(1, 2),), (F(-1, 3),))
    assert s.nonnegative is False and "nonnegative" in vars(s)
    fresh = series_spec(["1/2", "-1/3"])
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
    # A series keeps its achievement set once built, outside its fields.
    s, fresh = series_spec(["1/2", "1/3"]), series_spec(["1/2", "1/3"])
    achievement_set(s)
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)


class TestConstructorsApplyTheDecoderRule:
    # A dim or a modulus is accepted only as an int that is not a bool.  The
    # constructors own the rule, and formats.decode_group prefixes their
    # texts with "group.".
    @pytest.mark.parametrize("dim", [True, 2.0, "2", F(2), 0])
    def test_rational_space_dim(self, dim):
        with pytest.raises(DomainError, match=r"^dim must be a positive integer, got "):
            RationalSpace(dim)

    @pytest.mark.parametrize("moduli", [(2.5, 3), ("7",), (True, 3), (3, F(4)), (1,), ()])
    def test_finite_abelian_moduli(self, moduli):
        want = (r"^moduli must be nonempty$" if not moduli else
                r"^moduli\[\d\] must be an integer >= 2, got ")
        with pytest.raises(DomainError, match=want):
            FiniteAbelian(moduli)

    def test_valid_arguments_keep_their_values(self):
        assert RationalSpace(3).dim == 3
        assert FiniteAbelian([6, 2]).moduli == (6, 2)
