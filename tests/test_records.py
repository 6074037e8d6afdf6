"""Record semantics of the value classes: equality, hashing, immutability, repr.

These pin what callers may rely on: records of one class compare and hash
by their field values, a frozen record refuses assignment, the repr names
every field, and a mutable record's container field is fresh per instance.
"""

import copy
import pickle

import pytest

from dlocal import (
    HighestWeight,
    LittelmannPattern,
    LocalPart,
    RingElem,
    RootSystemD,
    VerificationReport,
    build_root_system,
    enumerate_decorated,
)
from dlocal.decoration import ORDINARY, Component
from dlocal.oracle import Case

RS2_REPR = "RootSystemD(rank=2, positive_roots=((0, 1), (1, 0)), cartan=((2, 0), (0, 2)))"
COMPONENT_REPR = (
    "Component(row=1, columns=(1,), kind='ordinary', rightmost=(1, 1), length=None)"
)


def frozen_records():
    """(record, equal record built by keyword, different record, a field) per class."""
    rs = build_root_system(2)
    return [
        (
            rs,
            RootSystemD(rank=2, positive_roots=rs.positive_roots, cartan=rs.cartan),
            build_root_system(3),
            "rank",
        ),
        (HighestWeight((1, 2)), HighestWeight(m=(1, 2)), HighestWeight((2, 1)), "m"),
        (
            Component(1, (1,), ORDINARY, (1, 1)),
            Component(row=1, columns=(1,), kind=ORDINARY, rightmost=(1, 1)),
            Component(1, (1,), ORDINARY, (1, 1), length=2),
            "length",
        ),
        (
            LittelmannPattern(2, ((1, 0),)),
            LittelmannPattern(rank=2, rows=((1, 0),)),
            LittelmannPattern(2, ((0, 1),)),
            "rows",
        ),
        (
            # enumerate_decorated builds its patterns without __init__'s checks.
            list(enumerate_decorated(build_root_system(3), HighestWeight((1, 1, 1))))[-1][0],
            LittelmannPattern(3, ((3, 2, 2, 1), (1, 1))),
            LittelmannPattern(3, ((3, 2, 2, 1), (1, 0))),
            "rows",
        ),
    ]


@pytest.mark.parametrize("record, same, other, field", frozen_records())
class TestFrozenRecords:
    def test_value_equality_and_hash(self, record, same, other, field):
        assert record == same and hash(record) == hash(same)
        assert record != other
        assert len({record, same, other}) == 2

    def test_fields_cannot_be_assigned(self, record, same, other, field):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(other, field))
        assert record == same

    def test_copies_are_equal(self, record, same, other, field):
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.copy(record) == record and copy.deepcopy(record) == record


def test_frozen_reprs():
    assert repr(build_root_system(2)) == RS2_REPR
    assert repr(HighestWeight((1, 2))) == "HighestWeight(m=(1, 2))"
    assert repr(Component(1, (1,), ORDINARY, (1, 1))) == COMPONENT_REPR
    assert repr(LittelmannPattern(2, ((1, 0),))) == "LittelmannPattern(rank=2, rows=((1, 0),))"


def test_highest_weight_hash_is_the_field_tuple_hash():
    assert hash(HighestWeight((1, 2))) == hash(((1, 2),))


class TestLocalPartRecord:
    def test_construction_and_repr(self):
        part = LocalPart(1, 1, (0,))
        assert part == LocalPart(rank=1, n=1, twist=(0,), coefficients={})
        assert repr(part) == "LocalPart(rank=1, n=1, twist=(0,), coefficients={})"

    def test_coefficients_are_fresh_per_instance(self):
        a, b = LocalPart(1, 1, (0,)), LocalPart(1, 1, (0,))
        a.coefficients[(1,)] = RingElem.one(1)
        assert b.coefficients == {} and a != b

    def test_mutable_and_unhashable(self):
        part = LocalPart(1, 1, (0,))
        part.n = 2
        assert part.n == 2
        with pytest.raises(TypeError):
            hash(part)


class TestVerificationReportRecord:
    def test_construction_and_repr(self):
        report = VerificationReport("x")
        report.add("d", 1, 2)
        assert report == VerificationReport(suite="x", cases=[Case("d", "1", "2")])
        assert repr(report) == (
            "VerificationReport(suite='x', cases=[Case(description='d', expected='1', actual='2')])"
        )

    def test_cases_are_fresh_per_instance(self):
        a, b = VerificationReport("x"), VerificationReport("x")
        a.add("d", 1, 1)
        assert b.cases == [] and a != b

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(VerificationReport("x"))


def test_case_record():
    case = Case("d", "1", "2")
    assert case == Case(description="d", expected="1", actual="2")
    assert repr(case) == "Case(description='d', expected='1', actual='2')"
    assert (case.description, case.expected, case.actual) == ("d", "1", "2")
    assert not case.passed and Case("d", "1", "1").passed
