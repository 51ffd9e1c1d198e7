"""The plain record classes behave as the dataclasses they replace did."""

import copy
import math
import pickle

import pytest

from geoseq import GEO_ZERO, GeoScalar, MembershipReport, ParanormResult, RunConfig, Tolerances
from geoseq.orlicz import ScaleBracket
from geoseq.statconv import DensityTrace

FROZEN = [
    ScaleBracket(1.0, 2.0, 0.5, 7),
    Tolerances(tol=0, window_count=3, bound_cap=10),
    ParanormResult(2.5, 2.5, GeoScalar.from_log(2.5), probes=3, bracket=(2.0, 2.5)),
]
MUTABLE = [
    MembershipReport("bounded", [1.0], [1.0], 0.0, {"windows": 1}),
    RunConfig(),
    DensityTrace([0], [0.0], [1.0], GeoScalar.from_log(1.0), GEO_ZERO),
]


def test_repr_lists_the_fields_in_order():
    assert repr(ScaleBracket(1.0, math.inf, None, 3)) == (
        "ScaleBracket(lo=1.0, hi=inf, g_hi=None, probes=3)"
    )
    assert repr(Tolerances()) == "Tolerances(tol=1e-06, window_count=10, bound_cap=1000000000.0)"


@pytest.mark.parametrize("record", FROZEN + MUTABLE, ids=lambda r: type(r).__name__)
def test_equal_by_fields_and_class(record):
    twin = copy.copy(record)
    assert twin == record and twin is not record
    assert record != tuple(getattr(record, name) for name in record.__slots__)


@pytest.mark.parametrize("record", FROZEN, ids=lambda r: type(r).__name__)
def test_frozen_record_refuses_assignment_and_hashes_by_fields(record):
    name = record.__slots__[0]
    with pytest.raises(AttributeError, match="frozen"):
        setattr(record, name, 0)
    with pytest.raises(AttributeError, match="frozen"):
        delattr(record, name)
    twin = pickle.loads(pickle.dumps(record))
    assert twin == record and hash(twin) == hash(record)


@pytest.mark.parametrize("record", MUTABLE, ids=lambda r: type(r).__name__)
def test_mutable_record_takes_assignment_and_is_unhashable(record):
    name = record.__slots__[0]
    value = getattr(record, name)
    setattr(record, name, value)
    with pytest.raises(TypeError):
        hash(record)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_tolerances_validate_as_before():
    assert Tolerances(tol=0) == Tolerances(tol=0.0)
    with pytest.raises(ValueError, match="window_count"):
        Tolerances(window_count=True)
