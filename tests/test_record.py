"""Value records: construction, equality, hashing, immutability, pickling, repr."""

import copy
import functools
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from xlegendre import FamilyKey, Poly, RecursiveFamily, recursive_family
from xlegendre.admissibility import (
    AdmissibilityRecord,
    OrthogonalityEntry,
    OrthogonalityReport,
    orthogonality_check,
)
from xlegendre.operators import FactorizationReport, IdentityCheck, verify_factorization

F = Fraction
SRC = Path(__file__).resolve().parents[1] / "src"
KEY = FamilyKey((1, 3), (F(1, 2), F(-2, 3)))
ONE_LEVEL = FamilyKey((1,), (F(1),))


@functools.cache
def _fields() -> dict:
    """Field values of one instance per record class, in declaration order."""
    rf = recursive_family(ONE_LEVEL, 2)
    report = verify_factorization(ONE_LEVEL, 1)
    return {
        FamilyKey: {"m": KEY.m, "t": KEY.t},
        # a plain dict for the overlaps: an OverlapMap holds its family's lock
        RecursiveFamily: {
            "key": rf.key,
            "tau": rf.tau,
            "xpolys": rf.xpolys,
            "overlaps": dict(rf.overlaps),
            "max_index": rf.max_index,
        },
        AdmissibilityRecord: {"key": KEY, "formula_verdict": True, "roots_in_interval": 0},
        OrthogonalityEntry: {"i1": 0, "i2": 1, "expected": F(0), "actual": F(1, 3)},
        OrthogonalityReport: {
            "key": ONE_LEVEL,
            "max_index": 1,
            "entries": orthogonality_check(ONE_LEVEL, 1).entries,
        },
        IdentityCheck: {
            "identity": "factor_base",
            "passed": False,
            "counterexample_probe": Poly([1, 2]),
        },
        FactorizationReport: {
            "key": ONE_LEVEL,
            "step_level": 1,
            "probe_degree": report.probe_degree,
            "checks": report.checks,
        },
    }


RECORDS = list(_fields())


def _sample(cls):
    return cls(*_fields()[cls].values())


def _hash_or_error(x):
    # a record with an unhashable field (RecursiveFamily's dicts) raises, as
    # a tuple holding it would
    try:
        return hash(x)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_agree(cls):
    fields = _fields()[cls]
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert by_position == by_keyword
    assert _hash_or_error(by_position) == _hash_or_error(by_keyword)
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_bad_arguments_raise_type_error(cls):
    fields = _fields()[cls]
    values = list(fields.values())
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError):
        cls(*values, unknown=1)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    x = _sample(cls)
    for name in _fields()[cls]:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == _sample(cls)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_pickle_and_copies_round_trip(cls):
    x = _sample(cls)
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(y) is cls
        assert y == x
        assert _hash_or_error(y) == _hash_or_error(x)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_names_every_field(cls):
    fields = _fields()[cls]
    inner = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(_sample(cls)) == f"{cls.__name__}({inner})"


def test_equality_needs_the_same_class():
    entry = _sample(OrthogonalityEntry)
    assert entry != (0, 1, F(0), F(1, 3))
    assert entry != _sample(IdentityCheck)
    assert _sample(OrthogonalityEntry) == entry
    assert OrthogonalityEntry(0, 1, F(0), F(0)) != entry


def test_family_key_repr_pinned():
    assert repr(KEY) == "FamilyKey(m=(1, 3), t=(Fraction(1, 2), Fraction(-2, 3)))"


def test_family_key_normalizes_before_comparing_and_hashing():
    parsed = FamilyKey([1, 3], ("1/2", F(-2, 3)))
    assert parsed.m == KEY.m and parsed.t == KEY.t
    assert parsed == KEY and hash(parsed) == hash(KEY) == hash((KEY.m, KEY.t))
    assert FamilyKey((2,), ("1/2",)) == FamilyKey((2,), (F(1, 2),))
    assert hash(FamilyKey((2,), ("1/2",))) == hash(FamilyKey((2,), (F(1, 2),)))
    assert FamilyKey((2,), (1,)) != FamilyKey((2,), (2,))
    assert FamilyKey((2,), (1,)) != FamilyKey((3,), (1,))
    assert {KEY: 1}[parsed] == 1


def test_family_key_never_equals_a_tuple():
    assert KEY != (KEY.m, KEY.t)
    assert (KEY.m, KEY.t) != KEY
    assert FamilyKey.classical() != ((), ())
    assert KEY.__eq__((KEY.m, KEY.t)) is NotImplemented


def test_family_key_value_errors_unchanged():
    with pytest.raises(ValueError, match="^level tuple and parameter tuple differ in length$"):
        FamilyKey((1, 2), (F(1),))
    with pytest.raises(ValueError, match="^levels must be non-negative integers$"):
        FamilyKey((-1,), (F(1),))


def test_cli_import_leaves_dataclasses_and_csv_out():
    # in a fresh interpreter: pytest and hypothesis import dataclasses themselves
    code = ("import sys, xlegendre.cli; "
            "print(sorted({'dataclasses', 'csv', 'click'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
