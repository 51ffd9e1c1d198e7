"""The plain record classes behave as the dataclasses they replace did."""

import copy
import importlib
import math
import pickle
from pathlib import Path

import pytest

import geoseq
from geoseq import (
    GEO_ZERO,
    Delta2Report,
    GeoScalar,
    MembershipReport,
    MemberSample,
    ParanormResult,
    RunConfig,
    SuiteReport,
    Tolerances,
    TrialConfig,
    from_log,
)
from geoseq.harness import CheckOutcome, SuiteCheck, _default_spec
from geoseq.orlicz import ScaleBracket
from geoseq.orlicz_checks import OrliczDiagnostics
from geoseq.record import Record
from geoseq.statconv import DensityTrace

FROZEN = [
    ScaleBracket(1.0, 2.0, 0.5, 7),
    Tolerances(tol=0, window_count=3, bound_cap=10),
    ParanormResult(2.5, 2.5, GeoScalar.from_log(2.5), probes=3, bracket=(2.0, 2.5)),
    TrialConfig(seed=3, trials=2, length=40),
    MemberSample(from_log([0.5, -0.25]), (0.5, -0.25), GeoScalar.from_log(0.5)),
    OrliczDiagnostics(False, "convex", (1.0, 2.0, 3.0, 2.5)),
    Delta2Report(True, 4.0, True, "user grid, 3 points", 1.0),
]
MUTABLE = [
    MembershipReport("bounded", [1.0], [1.0], 0.0, {"windows": 1}),
    RunConfig(),
    DensityTrace([0], [0.0], [1.0], GeoScalar.from_log(1.0), GEO_ZERO),
    CheckOutcome("solidity", True, 0.0),
    SuiteCheck("solidity", 2, 0, 0.0),
    SuiteReport({"seed": 3}, [SuiteCheck("solidity", 2, 0, 0.0)], [("solidity", 0, True, 0.0)]),
]


def test_repr_lists_the_fields_in_order():
    assert repr(ScaleBracket(1.0, math.inf, None, 3)) == (
        "ScaleBracket(lo=1.0, hi=inf, g_hi=None, probes=3)"
    )
    assert repr(Tolerances()) == "Tolerances(tol=1e-06, window_count=10, bound_cap=1000000000.0)"
    assert repr(CheckOutcome("scan", False, 1.0, "window 2: 2.0 > 1.0")) == (
        "CheckOutcome(name='scan', passed=False, worst_violation=1.0,"
        " detail='window 2: 2.0 > 1.0')"
    )
    assert repr(OrliczDiagnostics(True)) == (
        "OrliczDiagnostics(passed=True, failure_kind=None, witness=None)"
    )


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


def test_defaults_as_before():
    assert TrialConfig() == TrialConfig(42, 100, 56, _default_spec(), Tolerances())
    assert TrialConfig().slack == TrialConfig.slack == 1e-12
    assert "slack" not in TrialConfig.__slots__
    assert CheckOutcome("scan", True, 0.0).detail is None
    assert SuiteCheck("scan", 1, 0, 0.0) == SuiteCheck("scan", 1, 0, 0.0, None, None)
    assert Delta2Report(True, 2.0, None, "grid", 1.0).clipped == 0
    assert OrliczDiagnostics(False) == OrliczDiagnostics(False, None, None)


def test_suite_records_keep_their_properties():
    passed, failed = SuiteCheck("a", 2, 0, 0.0), SuiteCheck("b", 2, 1, 0.5)
    assert passed.passed and not failed.passed
    assert SuiteReport({}, [passed], []).all_passed
    assert not SuiteReport({}, [passed, failed], []).all_passed


def test_trial_config_validates_as_before():
    with pytest.raises(ValueError, match="trials must be >= 0"):
        TrialConfig(trials=-1)
    with pytest.raises(ValueError, match="length must be >= 8"):
        TrialConfig(length=7)


# a mutable and a frozen record, each with its fields that have no default
@pytest.mark.parametrize(
    "cls, given",
    [(CheckOutcome, ("scan", False, 1.0)), (ParanormResult, (2.5, 2.5, None))],
    ids=["mutable", "frozen"],
)
def test_one_constructor_binds_positions_names_and_defaults(cls, given):
    slots = cls.__slots__
    values = given + tuple(cls._defaults[name] for name in slots[len(given):])
    named = dict(zip(slots, values))
    record = cls(*values)
    assert record._values() == values
    assert cls(**named) == record
    assert cls(*values[:2], **dict(zip(slots[2:], values[2:]))) == record
    assert cls(*given) == record
    # a keyword for the last field, and the defaulted ones between left out
    assert cls(*given[:-1], **{slots[len(given) - 1]: given[-1], slots[-1]: values[-1]}) == record
    first, required = slots[0], slots[len(given) - 1]
    what = cls.__name__
    with pytest.raises(TypeError, match=f"^{what} takes {len(slots)} fields but"):
        cls(*values, 0)
    with pytest.raises(TypeError, match=f"^{what} got an unknown field 'nope'$"):
        cls(*values, nope=0)
    with pytest.raises(TypeError, match=f"^{what} got field '{first}' twice$"):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError, match=f"^{what} is missing field '{required}'$"):
        cls(*given[:-1])


def _geoseq_records() -> set:
    """Every Record subclass that a module of the geoseq package defines."""
    package = Path(geoseq.__file__).parent
    for path in package.glob("*.py"):
        if path.stem not in ("__init__", "__main__"):  # __main__ runs the CLI
            importlib.import_module(f"geoseq.{path.stem}")
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("geoseq."):
                found.add(sub)
    return found


def test_only_records_that_validate_or_derive_fields_write_an_init():
    records = _geoseq_records()
    written = {cls.__name__ for cls in records if "__init__" in vars(cls)}
    assert written == {"Tolerances", "TrialConfig", "RunConfig", "_Suite"}
    for cls in records:  # the constructor fills left-out fields from the end, in slot order
        assert tuple(cls._defaults) == cls.__slots__[len(cls.__slots__) - len(cls._defaults):]
