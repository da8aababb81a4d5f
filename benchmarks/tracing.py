"""Spans recorded around the library's public calls, and the traced pass.

The library has no tracing of its own, so the traced pass splits ``certify``
into stages from outside: after the real ``certify`` call it replays the
stage functions in the order ``certify`` runs them, on the same inputs.  A
replayed call that ``certify`` makes inside another stage (the recursion
inside ``d_sequence``, ``square_classes`` inside ``two_independent``, and
``factor_refine`` and the ``CoprimeBasis`` check inside ``square_classes``)
is timed on its own and recorded as a child of that stage, so a span's self
time is its duration minus its children's.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from workloads import Inputs, PassResult, certify_row_dict

LAYERS = ("critorbit", "exactnum", "independence", "verdict", "search")
STATUSES = (
    "ProvenSurjective",
    "NotSurjective",
    "Inapplicable",
    "IndependentToDepth",
    "DependentAtLevel",
)
CONDITIONS = ("T1.1-1", "T1.1-2", "T1.1-3", "T1.2-1", "T1.2-2", "T1.2-3")
LOG10_2 = math.log10(2)


class Recorder:
    """Spans kept in memory as [name, start, end, parent index, row id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []

    @contextmanager
    def span(self, name: str, row: int, parent: int | None = None):
        record = [name, time.perf_counter(), 0.0, parent, row]
        self.spans.append(record)
        try:
            yield len(self.spans) - 1
        finally:
            record[2] = time.perf_counter()

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self milliseconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            total[name] += (end - start) * 1000.0
            own[name] += (end - start - inner) * 1000.0
        return total, own

    def write(self, path: Path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, row in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ms": round((start - origin) * 1000.0, 4),
                            "end_ms": round((end - origin) * 1000.0, 4),
                            "parent": parent,
                            "row": row,
                        }
                    )
                    + "\n"
                )


def _digits(n: int) -> int:
    """Decimal digits of n from its bit length; str() would hit the 4300 limit."""
    return int(abs(n).bit_length() * LOG10_2) + 1


def _conditions(lib: SimpleNamespace, a: Fraction, family: int):
    """The condition stage of certify_family1/2; returns (map, undecided)."""
    verdict, exactnum = lib.verdict, lib.exactnum
    if family == 1:
        qmap = lib.dynamics.family1(a)
        de = verdict.compute_delta_e(a)
        if a == -2 or exactnum.rational_is_square(a - qmap.c) or de.delta is None:
            return qmap, False
        m = (-1) ** de.delta * (1 << de.e) * abs(a.numerator)
        return qmap, verdict._nonresidue_prime_in(m, a.denominator)[2]
    qmap = lib.dynamics.family2(a)
    if exactnum.rational_is_square(a - qmap.c) or a.numerator != 2:
        return qmap, False
    return qmap, verdict._prime_3_mod_4_in(a.denominator)[2]


class Tally:
    """Counts gathered at the same boundaries as the spans."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.rn_digits_max = 0
        self.orbits: list = []


def _replay(lib, rec: Recorder, tally: Tally, row: int, certify_span: int, a, family, depth, verdict, keep_orbit):
    status = verdict.status.value
    with rec.span("verdict.conditions", row, certify_span):
        qmap, undecided = _conditions(lib, a, family)
    tally.counts["undecided"] += bool(undecided)
    if status == "NotSurjective":
        return
    path = "verdict.audit" if status == "ProvenSurjective" else "verdict.fallback"
    independence_span = None
    with rec.span(path, row, certify_span) as stage:
        with rec.span("critorbit.d_sequence", row, stage) as orbit_span:
            orbit = lib.critorbit.d_sequence(qmap, depth)
        values = orbit.d_values
        if all(d != 0 for d in values):
            with rec.span("independence.two_independent", row, stage) as independence_span:
                result = lib.independence.two_independent(values)
            tally.counts["dependent"] += not result.independent
    tally.rn_digits_max = max(tally.rn_digits_max, _digits(orbit.numerators[-1]))
    if keep_orbit:
        tally.orbits.append(orbit)
    with rec.span("critorbit.recursion", row, orbit_span):
        lib.critorbit.numerator_recursion(qmap.family, a.numerator, a.denominator, depth)
    if independence_span is None:
        return
    with rec.span("independence.square_classes", row, independence_span) as classes_span:
        basis, _ = lib.independence.square_classes(values)
    magnitudes = [m for v in values for m in (abs(v.numerator), v.denominator) if m >= 2]
    if magnitudes:
        with rec.span("exactnum.factor_refine", row, classes_span):
            refined, _ = lib.exactnum.factor_refine(magnitudes)
        tally.counts["factor_refine_calls"] += 1
        tally.counts["basis_size"] += len(refined)
        tally.counts["input_digits"] += sum(map(_digits, magnitudes))
    with rec.span("independence.coprime_check", row, classes_span):
        lib.independence.CoprimeBasis(basis.elements)


def traced_pass(lib: SimpleNamespace, inputs: Inputs, out: Path, orbit_report: bool):
    """certify + stage replay + the row's JSON line for every row, then load_rows.

    Returns the pass result (rows are checked like an untraced pass), the
    per-layer metrics of this pass and the recorder holding its spans.
    """
    rec, tally = Recorder(), Tally()
    certify = lib.verdict.certify
    rows: list[dict | None] = []
    failed = 0
    started = time.perf_counter()
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps({"schema": lib.search.SCHEMA}) + "\n")
        for row_id, (a, family, depth) in enumerate(inputs.rows):
            try:
                with rec.span("verdict.certify", row_id) as certify_span:
                    verdict = certify(a, family, depth=depth)
                _replay(lib, rec, tally, row_id, certify_span, a, family, depth, verdict, orbit_report)
            except Exception as exc:
                print(f"traced row {a} family {family} failed: {exc!r}", file=sys.stderr)
                failed += 1
                rows.append(None)
                continue
            tally.counts["status." + verdict.status.value] += 1
            if verdict.condition:
                tally.counts["condition." + verdict.condition] += 1
            row = certify_row_dict(a, family, verdict)
            start, end = rec.spans[certify_span][1:3]
            row["timing_ms"] = round((end - start) * 1000.0, 3)
            with rec.span("search.json", row_id):
                fh.write(json.dumps(row, sort_keys=True) + "\n")
            rows.append(row)
    with rec.span("search.load_rows", -1):
        loaded = lib.search.load_rows(out)
    wall = time.perf_counter() - started
    if loaded != [row for row in rows if row is not None]:
        print("rows read back with load_rows differ from the rows written", file=sys.stderr)
        failed = len(rows)

    report_failures = 0
    for orbit in tally.orbits:  # counted, not timed: outside the pass wall time
        try:
            json.dumps(lib.critorbit.orbit_report(orbit))
        except ValueError:
            report_failures += 1

    total, own = rec.totals()
    c = tally.counts
    calls = c["factor_refine_calls"]
    stages = total["verdict.conditions"] + total["verdict.audit"] + total["verdict.fallback"]
    metrics = {
        "critorbit.recursion_ms": total["critorbit.recursion"],
        "critorbit.crosscheck_ms": own["critorbit.d_sequence"],
        "critorbit.rN_digits_max": tally.rn_digits_max,
        "critorbit.orbit_report_fail": report_failures,
        "exactnum.factor_refine_ms": total["exactnum.factor_refine"],
        "exactnum.factor_refine_calls": calls,
        "exactnum.basis_size": c["basis_size"] / calls if calls else 0.0,
        "exactnum.input_digits": c["input_digits"] / calls if calls else 0.0,
        "independence.square_classes_ms": total["independence.square_classes"],
        "independence.coprime_check_ms": total["independence.coprime_check"],
        "independence.f2_elim_ms": own["independence.two_independent"],
        "independence.dependent_rows": c["dependent"],
        "verdict.certify_ms": total["verdict.certify"],
        "verdict.conditions_ms": total["verdict.conditions"],
        "verdict.conditions_undecided": c["undecided"],
        "verdict.audit_ms": total["verdict.audit"],
        "verdict.fallback_ms": total["verdict.fallback"],
        "search.json_ms": total["search.json"],
        "search.load_rows_ms": total["search.load_rows"],
        "trace.coverage_frac": stages / total["verdict.certify"],
    }
    for status in STATUSES:
        metrics[f"verdict.status.{status}"] = c["status." + status]
    for tag in CONDITIONS:
        metrics[f"verdict.condition.{tag}"] = c["condition." + tag]
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = sum(v for k, v in own.items() if k.startswith(layer + "."))
    result = PassResult(wall, [], len(inputs.rows), failed, rows)
    return result, metrics, rec, started


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
