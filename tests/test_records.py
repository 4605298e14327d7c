"""The package's record and value classes: what each kind promises.

Frozen records are ``typing.NamedTuple``s; classes that validate their input
or are filled in after construction are ``__slots__`` classes with their own
``__init__``.  Unlike a dataclass, neither kind makes Python generate and
compile methods when its module is imported; ``pencil.PencilCase`` is the one
dataclass left.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import godeaux3
from godeaux3.adjoint import LadderReport
from godeaux3.cover import CaseInvalidError, RamificationData
from godeaux3.lattice import DivisorClass, IntersectionLattice, LatticeError
from godeaux3.plane import PlaneCurve, PlaneError, PointCluster
from godeaux3.prooftree import Outcome

NAMED_TUPLES = {
    "adjoint": {"AdjointRow"},
    "cover": {"CaseRecord"},
    "fibration": {"Elimination", "LinearForm"},
    "pencil": {"DropAtom", "SubsystemBranch"},
    "plane": {"ConfigTable"},
    "prooftree": {"ProofNode"},
}


def _own_classes():
    for info in pkgutil.iter_modules(godeaux3.__path__):
        mod = importlib.import_module(f"godeaux3.{info.name}")
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                yield info.name, name, obj


def test_pencil_case_is_the_only_dataclass():
    found = [(mod, name) for mod, name, cls in _own_classes() if dataclasses.is_dataclass(cls)]
    assert found == [("pencil", "PencilCase")]


def test_records_are_named_tuples_without_mutable_defaults():
    found: dict[str, set[str]] = {}
    for mod, name, cls in _own_classes():
        if issubclass(cls, tuple) and hasattr(cls, "_fields"):
            found.setdefault(mod, set()).add(name)
            assert not any(isinstance(v, (dict, list, set))
                           for v in cls._field_defaults.values()), name
    assert found == NAMED_TUPLES


@pytest.mark.parametrize("mod,name", sorted((m, n) for m, names in NAMED_TUPLES.items()
                                            for n in names))
def test_setting_a_field_of_a_record_raises(mod, name):
    cls = getattr(importlib.import_module(f"godeaux3.{mod}"), name)
    record = cls._make([None] * len(cls._fields))
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], 1)


def test_ramification_data_is_equal_and_hashed_by_value():
    a = RamificationData(1, 0, 3, gamma_sq=-3)
    b = RamificationData(1, 0, 3, gamma_sq=-3)
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: -3}[b] == -3
    assert a != RamificationData(1, 0, 3, gamma_sq=1)
    assert a != (1, 0, 3, -3)


def test_mutable_defaults_are_fresh_per_instance():
    first, second = Outcome("verified"), Outcome("verified")
    first.trace.append("x")
    assert second.trace == []
    one, two = LadderReport("s.3l"), LadderReport("s.3l")
    one.failures.append("x")
    one.forced["n'"] = 0
    assert two.failures == [] and two.forced == {}


def test_a_ladder_report_is_ok_exactly_when_it_has_no_failure_line():
    report = LadderReport("s.3l", (3, 0, 1))
    assert report.ok
    report.failures.append("N3 does not vanish in the model")
    assert not report.ok


_PLANE1 = IntersectionLattice.plane_blow_up(1)

# every rejection of a validating constructor that test_cover and test_plane
# do not already check
REJECTED = [
    (LatticeError, lambda: IntersectionLattice(("a", "b"), ((1, 0),), (0, 0))),
    (LatticeError, lambda: IntersectionLattice(("a",), ((1,),), (0, 0))),
    (LatticeError, lambda: IntersectionLattice(("a", "b"), ((1, 2), (3, 1)), (0, 0))),
    (LatticeError, lambda: DivisorClass(_PLANE1, (1,))),
    (CaseInvalidError, lambda: RamificationData(2, 0, 1)),
    (CaseInvalidError, lambda: RamificationData(0, -1, 1)),
    (CaseInvalidError, lambda: RamificationData(0, 0, -1)),
    (CaseInvalidError, lambda: RamificationData(0, 0, 4)),  # h1 = 6 - 8 < 0
    (PlaneError, lambda: PlaneCurve("c", -1, ())),
    (PlaneError, lambda: PointCluster(("P1",), (("P2", "P1"),))),
]


@pytest.mark.parametrize("error,build", REJECTED)
def test_validating_constructors_reject_bad_input(error, build):
    with pytest.raises(error):
        build()
