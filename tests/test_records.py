"""The records: immutable NamedTuples, checked on every construction, cheap to import."""

import enum
import os
import pickle
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import decompose1

import arborist
from arborist import (
    CoprimeBasis,
    QuadMap,
    RenderConfig,
    SearchConfig,
    SearchSummary,
    UsageError,
    Verdict,
    VerdictStatus,
    certify,
    check_valuations,
    compute_delta_e,
    d_sequence,
    family1,
    sign_predict,
    two_independent,
)


def one_of_each_record():
    qmap = family1(Fraction(1, 2))
    orbit = d_sequence(qmap, 3)
    return [
        orbit,
        CoprimeBasis((2, 3)),
        decompose1(orbit, 2),
        compute_delta_e(Fraction(1, 2)),
        two_independent([2, 3]),
        qmap,
        RenderConfig(),
        SearchConfig(height=2, out_path="rows.jsonl"),
        SearchSummary(0, Counter({("ProvenSurjective", "T1.1-1"): 1})),
        sign_predict(qmap),
        check_valuations(orbit, 2)[0],
        certify(Fraction(1, 2), 1, depth=3),
    ]


def test_every_exported_record_is_a_named_tuple():
    classes = {
        obj
        for obj in (getattr(arborist, name) for name in arborist.__all__)
        if isinstance(obj, type) and not issubclass(obj, (Exception, enum.Enum))
    }
    records = {type(record) for record in one_of_each_record()}
    assert classes - records == set()
    assert all(issubclass(cls, tuple) and hasattr(cls, "_fields") for cls in records)


@pytest.mark.parametrize("record", one_of_each_record(), ids=lambda r: type(r).__name__)
def test_records_reject_attribute_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize(
    "good, bad, error, match",
    [
        (family1(Fraction(1, 2)), {"s": 0}, ValueError, "not a map of either family"),
        (family1(Fraction(1, 2)), {"r": -1, "s": 1}, UsageError, "degenerate"),
        (CoprimeBasis((2, 3)), {"elements": (6, 10)}, ValueError, "not coprime"),
        (RenderConfig(), {"burn_in": -1}, UsageError, "burn-in"),
        (SearchConfig(height=2, out_path="x"), {"workers": 0}, UsageError, "worker count"),
        (SearchConfig(height=2, out_path="x"), {"depth": 40}, UsageError, "too deep"),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, tuple) else None,
)
def test_checked_records_refuse_bad_values_on_every_path(good, bad, error, match):
    cls = type(good)
    values = [bad.get(name, value) for name, value in zip(good._fields, good)]
    with pytest.raises(error, match=match):
        cls(*values)
    with pytest.raises(error, match=match):
        cls._make(values)
    with pytest.raises(error, match=match):
        good._replace(**bad)


@pytest.mark.parametrize(
    "record",
    [
        family1(Fraction(-6, 7)),
        QuadMap(2, 13, 29),
        certify(Fraction(13, 29), 2, depth=6),
        Verdict(Fraction(1, 2), 1, VerdictStatus.INAPPLICABLE, None, 3, None, 1, 0, {}),
        SearchSummary(4, Counter({("IndependentToDepth", "-"): 2})),
    ],
)
def test_records_survive_a_pickle_round_trip(record):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record


def test_records_compare_and_unpack_as_tuples():
    assert family1(Fraction(1, 2)) == (1, 1, 2)
    delta, e = compute_delta_e(Fraction(1, 2))
    assert (delta, e) == (1, 0)


def test_importing_the_library_loads_no_dataclasses():
    # a dataclass generates and execs its methods at import; the records
    # are NamedTuples so that no import pays for it
    src = Path(arborist.__file__).resolve().parent.parent
    code = "import sys, arborist, arborist.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert proc.stdout.strip() == "False"
