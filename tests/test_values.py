"""The value types keep the contract of the frozen dataclasses they
replace: constructors and keyword calls, reduction mod N and its errors,
field equality and hashing, repr text, and AttributeError on assignment
to every type.  SpanSolution and VerificationReport hold dicts, so they
compare by their fields but do not hash."""
import copy
import pickle
from fractions import Fraction

import pytest

from eisenlab.eisenstein import EisIndex, InvalidIndex
from eisenlab.hull import HullChain, hull_chain
from eisenlab.quasiforms import QuasiForm, SpanSolution
from eisenlab.verifiers import (LParams, TorsionPoint, VerificationReport,
                                verify_two_term)

VECTORS = ((5, 0), (1, 2), (0, 5))

FIELDS = {
    EisIndex: ("weight", "level", "c1", "c2"),
    HullChain: ("level", "shear", "vectors"),
    TorsionPoint: ("denominator", "c1", "c2"),
    LParams: ("lam", "mu", "p", "q", "weight"),
    VerificationReport: ("claim_id", "parameters", "status", "defect",
                         "certificate", "truncation", "level"),
}

IDS = ["EisIndex", "HullChain", "TorsionPoint", "LParams"]


def _pairs():
    """Two separately built objects with equal fields, one of each
    hashable type, and one that differs from them in a field."""
    lam = TorsionPoint(3, 1, 0)
    return [
        (EisIndex(3, 5, 4, 3), EisIndex(weight=3, level=5, c1=-1, c2=8),
         EisIndex(3, 5, 4, 2)),
        (HullChain(5, 3, VECTORS), HullChain(level=5, shear=3, vectors=VECTORS),
         HullChain(5, 2, VECTORS)),
        (TorsionPoint(5, 1, 2), TorsionPoint(denominator=5, c1=6, c2=-3),
         TorsionPoint(5, 2, 1)),
        (LParams(lam, lam, 1, 2, 4),
         LParams(lam=TorsionPoint(3, 4, 3), mu=lam, p=Fraction(1), q=2,
                 weight=4),
         LParams(lam, lam, 1, 2, 3)),
    ]


@pytest.mark.parametrize("a, b, other", _pairs(),
                         ids=IDS)
def test_equal_fields_give_equal_objects_and_hashes(a, b, other):
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other and len({a, b, other}) == 2
    # the hash is that of the field tuple, as the dataclass's was, so sets
    # and dicts of these values iterate in the same order as before
    fields = tuple(getattr(a, name) for name in FIELDS[type(a)])
    assert hash(a) == hash(fields)


@pytest.mark.parametrize("a, b, other", _pairs(),
                         ids=IDS)
def test_fields_reject_assignment_and_deletion(a, b, other):
    for name in FIELDS[type(a)]:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


@pytest.mark.parametrize("a, b, other", _pairs(),
                         ids=IDS)
def test_copies_and_pickles_are_equal(a, b, other):
    assert copy.copy(a) == a
    assert copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_indices_are_reduced_mod_n():
    idx = EisIndex(3, 5, 7, -1)
    assert (idx.weight, idx.level, idx.c1, idx.c2) == (3, 5, 2, 4)
    point = TorsionPoint(4, -1, 9)
    assert (point.denominator, point.c1, point.c2) == (4, 3, 1)
    params = LParams(point, point, 1, 2, 3)
    assert params.p == 1 and type(params.p) is Fraction
    assert params.q == 2 and type(params.q) is Fraction


def test_invalid_fields_raise_as_before():
    with pytest.raises(InvalidIndex, match="weight must be >= 1, got 0"):
        EisIndex(0, 5, 1, 2)
    with pytest.raises(InvalidIndex, match="level must be >= 1, got 0"):
        EisIndex(3, 0, 1, 2)
    with pytest.raises(ValueError, match="denominator must be >= 1"):
        TorsionPoint(0, 1, 2)
    with pytest.raises(ValueError, match="weight must be >= 2"):
        LParams(TorsionPoint(3, 1, 0), TorsionPoint(3, 0, 1), 1, 1, 1)


def test_no_equality_with_plain_tuples():
    idx = EisIndex(3, 5, 1, 2)
    assert idx != (3, 5, 1, 2) and (3, 5, 1, 2) != idx
    assert TorsionPoint(5, 1, 2) != (5, 1, 2)
    chain = hull_chain(5, 3)
    assert chain != (chain.level, chain.shear, chain.vectors)


def test_repr_names_every_field():
    assert repr(EisIndex(3, 5, 1, 2)) == "EisIndex(weight=3, level=5, c1=1, c2=2)"
    assert repr(TorsionPoint(5, 1, 2)) == "TorsionPoint(denominator=5, c1=1, c2=2)"
    assert repr(HullChain(5, 3, VECTORS)) == (
        "HullChain(level=5, shear=3, vectors=((5, 0), (1, 2), (0, 5)))")
    lam = TorsionPoint(3, 1, 0)
    assert repr(LParams(lam, lam, 1, 2, 4)) == (
        "LParams(lam=TorsionPoint(denominator=3, c1=1, c2=0), "
        "mu=TorsionPoint(denominator=3, c1=1, c2=0), "
        "p=Fraction(1, 1), q=Fraction(2, 1), weight=4)")


def test_span_solution_compares_by_fields():
    zero = QuasiForm(2, 3, 5, ())
    a, b = SpanSolution({}, zero), SpanSolution(coefficients={}, residual=zero)
    assert a is not b and a == b and a.in_span
    assert a != SpanSolution({EisIndex(2, 3, 0, 1): 1}, zero)
    assert a != SpanSolution({}, QuasiForm(2, 3, 6, ()))
    with pytest.raises(TypeError):
        hash(a)
    for name in ("coefficients", "residual"):
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
    assert repr(a).startswith("SpanSolution(coefficients={}, residual=")


def test_verification_report_compares_by_fields_and_is_frozen():
    report = verify_two_term(TorsionPoint(3, 1, 0), TorsionPoint(3, 0, 1), 3)
    fields = [getattr(report, name) for name in FIELDS[VerificationReport]]
    same = VerificationReport(*fields)
    assert same is not report and same == report
    assert copy.deepcopy(report) == report
    assert pickle.loads(pickle.dumps(report)) == report
    fields[2] = "INCONCLUSIVE"
    assert VerificationReport(*fields) != report
    for name in FIELDS[VerificationReport]:
        with pytest.raises(AttributeError):
            setattr(report, name, getattr(same, name))
        with pytest.raises(AttributeError):
            delattr(report, name)
    assert report.status == "VERIFIED"
    with pytest.raises(TypeError):
        hash(report)
    assert repr(report).startswith("VerificationReport(claim_id=")
