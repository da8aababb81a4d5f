import contextlib
import io
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import current_int_str_limit

import arborist
from arborist.backorbit import RenderConfig, render, sample_backward
from arborist.cli import build_parser, main
from arborist.dynamics import family1, family2
from arborist.errors import DegenerateBasePoint, UsageError
from arborist.search import (
    SCHEMA,
    SearchConfig,
    _reduced_pairs,
    certify_row,
    load_rows,
    search,
    tally,
)


def brute_count(height):
    """Signed coprime-pair counting oracle."""
    pairs = sum(
        1
        for s in range(1, height + 1)
        for r in range(1, height + 1)
        if math.gcd(r, s) == 1
    )
    return 2 * pairs


JULIA_TO = ["julia", "--c=-0.75", "--a", "0.5", "--points", "10", "--out"]


def strip_timing(row):
    return {k: v for k, v in row.items() if k != "timing_ms"}


def base_points(height):
    """The sweep's base points as Fractions, in its order."""
    return [Fraction(r, s) for r, s in _reduced_pairs(height)]


class TestEnumerateRationals:
    def test_height_one(self):
        assert list(_reduced_pairs(1)) == [(-1, 1), (1, 1)]

    def test_height_two(self):
        values = base_points(2)
        assert len(values) == 6
        assert set(values) == {
            Fraction(-2),
            Fraction(-1),
            Fraction(1),
            Fraction(2),
            Fraction(-1, 2),
            Fraction(1, 2),
        }

    def test_counts_match_oracle(self):
        for h in range(1, 9):
            assert len(list(_reduced_pairs(h))) == brute_count(h)

    def test_all_reduced_and_within_height(self):
        for r, s in _reduced_pairs(7):
            assert math.gcd(abs(r), s) == 1
            assert 1 <= abs(r) <= 7 and 1 <= s <= 7

    def test_monotone_in_height(self):
        small = set(_reduced_pairs(4))
        large = set(_reduced_pairs(5))
        assert small < large

    def test_deterministic_order(self):
        # s ascending, then r ascending
        pairs = list(_reduced_pairs(5))
        assert pairs == sorted(pairs, key=lambda pair: (pair[1], pair[0]))
        assert pairs == list(_reduced_pairs(5))


def foreign_results_file(tmp_path, schema):
    """A results file of real rows at depth 4 under a header of ``schema``."""
    out = tmp_path / "rows.jsonl"
    search(SearchConfig(height=2, out_path=out, depth=4))
    lines = out.read_text().splitlines(keepends=True)
    lines[0] = json.dumps({"schema": schema, "depth": 4}) + "\n"
    out.write_text("".join(lines))
    return out


class TestSearch:
    def test_rows_and_header(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        summary = search(SearchConfig(height=2, out_path=out, depth=5))
        lines = out.read_text().splitlines()
        assert json.loads(lines[0]) == {"schema": SCHEMA, "depth": 5}
        rows = [json.loads(line) for line in lines[1:]]
        assert summary.rows_written == len(rows)
        # family-1 drops a = -1, family-2 drops a = 1/2
        assert len(rows) == 5 + 5
        keys = {(row["a"], row["family"]) for row in rows}
        assert ("-1", 1) not in keys and ("1/2", 2) not in keys

    def test_skips_exactly_the_degenerate_base_points(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        search(SearchConfig(height=6, out_path=out, depth=2))
        written = {(row["a"], row["family"]) for row in load_rows(out)}
        expected = set()
        for a in base_points(6):
            for fam, ctor in ((1, family1), (2, family2)):
                try:
                    ctor(a)
                except DegenerateBasePoint:
                    continue
                expected.add((str(a), fam))
        assert written == expected
        assert ("-1", 1) not in written and ("1/2", 2) not in written

    def test_known_row_content(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        search(SearchConfig(height=2, out_path=out, depth=5, families=(1,)))
        rows = {row["a"]: row for row in load_rows(out)}
        half = rows["1/2"]["verdict"]
        assert half["status"] == "ProvenSurjective"
        assert "T1.1-2" in half["detail"]["fired"]

    def test_known_family2_rows(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        search(SearchConfig(height=4, out_path=out, depth=5, families=(2,)))
        rows = {row["a"]: row["verdict"] for row in load_rows(out)}
        quarter = rows["1/4"]
        assert quarter["status"] == "ProvenSurjective"
        assert quarter["condition"] == "T1.2-1"
        # a = 1 satisfies no condition (s = 1) and its orbit has a dependency
        one = rows["1"]
        assert one["status"] == "DependentAtLevel"
        assert one["witness"] == [1, 2, 3]

    def test_resume_skips_existing(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        first = search(SearchConfig(height=2, out_path=out, depth=4))
        second = search(SearchConfig(height=3, out_path=out, depth=4))
        assert second.rows_skipped == first.rows_written
        rows = load_rows(out)
        keys = [(row["a"], row["family"]) for row in rows]
        assert len(keys) == len(set(keys))
        expected = set()
        for a in base_points(3):
            if a != -1:
                expected.add((str(a), 1))
            if a != Fraction(1, 2):
                expected.add((str(a), 2))
        assert set(keys) == expected

    def test_resume_after_truncated_row(self, tmp_path):
        cut = tmp_path / "cut.jsonl"
        fresh = tmp_path / "fresh.jsonl"
        search(SearchConfig(height=3, out_path=cut, depth=4))
        data = cut.read_bytes()
        last_row_start = data.rstrip(b"\n").rfind(b"\n") + 1
        cut.write_bytes(data[: last_row_start + 20])  # a crash 20 bytes into the row
        summary = search(SearchConfig(height=4, out_path=cut, depth=4))
        search(SearchConfig(height=4, out_path=fresh, depth=4))

        def rows(path):
            return sorted(map(strip_timing, load_rows(path)), key=lambda r: (r["a"], r["family"]))

        assert rows(cut) == rows(fresh)
        # every complete row is kept: all but the header and the cut row
        assert summary.rows_skipped == len(data.splitlines()) - 2

    def test_corrupt_inner_row_still_raises(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        search(SearchConfig(height=2, out_path=out, depth=4))
        lines = out.read_text().splitlines(keepends=True)
        lines[2] = lines[2][:20] + "\n"
        out.write_text("".join(lines))
        with pytest.raises(ValueError):
            search(SearchConfig(height=3, out_path=out, depth=4))

    def test_rows_reach_the_file_as_written(self, tmp_path, monkeypatch):
        out = tmp_path / "rows.jsonl"
        lines_seen = []

        def watched(task):
            lines_seen.append(len(out.read_text().splitlines()))
            return certify_row(task)

        monkeypatch.setattr("arborist.search.certify_row", watched)
        search(SearchConfig(height=2, out_path=out, depth=4))
        # before row k is computed, the header and k - 1 rows are on disk
        assert lines_seen == list(range(1, len(lines_seen) + 1))

    def test_header_without_depth_is_refused_but_loads(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        search(SearchConfig(height=2, out_path=out, depth=4))
        lines = out.read_text().splitlines(keepends=True)
        lines[0] = json.dumps({"schema": SCHEMA}) + "\n"
        out.write_text("".join(lines))
        assert len(load_rows(out)) == len(lines) - 1
        before = out.read_bytes()
        with pytest.raises(ValueError, match="no depth"):
            search(SearchConfig(height=3, out_path=out, depth=4))
        assert out.read_bytes() == before

    def test_blank_lines_are_skipped(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        search(SearchConfig(height=2, out_path=out, depth=4))
        rows = load_rows(out)
        lines = out.read_text().splitlines(keepends=True)
        out.write_text(lines[0] + "\n" + "".join(lines[1:]) + "  \n")
        assert load_rows(out) == rows
        summary = search(SearchConfig(height=2, out_path=out, depth=4))
        assert (summary.rows_skipped, summary.rows_written) == (len(rows), 0)

    def test_equal_timings_load_as_one_float(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        search(SearchConfig(height=2, out_path=out, depth=4))
        lines = out.read_text().splitlines(keepends=True)
        rows = [json.loads(line) for line in lines[1:3]]
        for row in rows:
            row["timing_ms"] = 0.125
        lines[1:3] = [json.dumps(row, sort_keys=True) + "\n" for row in rows]
        out.write_text("".join(lines))
        first, second = load_rows(out)[:2]
        assert first["timing_ms"] == 0.125
        assert first["timing_ms"] is second["timing_ms"]

    def test_worker_count_does_not_change_rows(self, tmp_path):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        search(SearchConfig(height=3, out_path=serial, depth=5, workers=1))
        search(SearchConfig(height=3, out_path=parallel, depth=5, workers=2))
        rows_a = sorted(
            (strip_timing(r) for r in load_rows(serial)),
            key=lambda r: (r["a"], r["family"]),
        )
        rows_b = sorted(
            (strip_timing(r) for r in load_rows(parallel)),
            key=lambda r: (r["a"], r["family"]),
        )
        assert rows_a == rows_b

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_are_written_with_sorted_keys(self, tmp_path, workers):
        # search writes json.dumps(row) without sort_keys: the row, the
        # verdict and its detail are built in key order instead
        out = tmp_path / "rows.jsonl"
        search(SearchConfig(height=12, out_path=out, depth=6, workers=workers))
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + len(load_rows(out))
        for line in lines[1:]:
            assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_failed_write_leaves_the_queued_rows_uncomputed(self, tmp_path, monkeypatch):
        import concurrent.futures

        import arborist.search as search_module

        submitted = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                future = super().submit(*args, **kwargs)
                submitted.append(future)
                return future

        def open_failing(path, mode="r", **kwargs):
            # the fifth write, after the header and 3 rows, finds the disk full
            fh = open(path, mode, **kwargs)
            write, calls = fh.write, itertools.count(1)

            def failing_write(text):
                if next(calls) == 5:
                    raise OSError("no space left on device")
                return write(text)

            fh.write = failing_write
            return fh

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(search_module, "open_named", open_failing)
        out = tmp_path / "rows.jsonl"
        with pytest.raises(OSError, match="no space"):
            search(SearchConfig(height=30, out_path=out, depth=8, workers=2))
        # map submits one future per chunk of 16 rows up front; a chunk still
        # queued when the write fails is cancelled, not computed
        assert len(submitted) > 100
        computed = [f for f in submitted if not f.cancelled()]
        assert all(f.done() for f in submitted)
        assert len(computed) < len(submitted) // 4
        assert len(load_rows(out)) == 3

    def test_pool_starts_one_process_per_chunk_at_most(self, tmp_path, monkeypatch):
        import concurrent.futures

        pools = []

        class RecordingPool:
            # stands in for ProcessPoolExecutor without starting a process
            def __init__(self, max_workers, **kwargs):
                pools.append(max_workers)

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

            def shutdown(self, cancel_futures):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        out = tmp_path / "rows.jsonl"
        summary = search(SearchConfig(height=4, out_path=out, depth=3, workers=500))
        chunks = -(-summary.rows_written // 16)
        assert chunks == 3 and pools == [chunks]
        # nothing left to compute, or one chunk: no pool is opened
        assert search(SearchConfig(height=4, out_path=out, depth=3, workers=500)).rows_written == 0
        search(SearchConfig(height=2, out_path=tmp_path / "small.jsonl", depth=3, workers=500))
        assert pools == [chunks]
        # and one per CPU at most; with the count unknown, rows are computed here
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        search(SearchConfig(height=4, out_path=tmp_path / "two.jsonl", depth=3, workers=500))
        assert pools == [chunks, 2]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        search(SearchConfig(height=4, out_path=tmp_path / "one.jsonl", depth=3, workers=500))
        assert pools == [chunks, 2]

    def test_rejects_bad_config(self, tmp_path):
        with pytest.raises(ValueError):
            SearchConfig(height=0, out_path=tmp_path / "x.jsonl")
        with pytest.raises(ValueError):
            SearchConfig(height=1, out_path="x", families=(3,))
        # True == 1, but a bool is not a family: its rows would not load
        with pytest.raises(UsageError, match="families must be"):
            SearchConfig(height=1, out_path="x", families=(True,))
        # a repeated family would write each of its rows twice
        for families in [(1, 1), (2, 1, 2)]:
            with pytest.raises(UsageError, match="repeat"):
                SearchConfig(height=1, out_path="x", families=families)

    @pytest.mark.parametrize("schema", ["other-v9", "arborist-v1"])
    def test_rejects_foreign_schema(self, tmp_path, schema):
        out = foreign_results_file(tmp_path, schema)
        before = out.read_bytes()
        with pytest.raises(UsageError, match=f"unexpected schema '{schema}'"):
            load_rows(out)
        with pytest.raises(UsageError, match=f"unexpected schema '{schema}'"):
            search(SearchConfig(height=3, out_path=out, depth=4))
        assert out.read_bytes() == before

    # each line but the list breaks exactly one clause of a complete row:
    # {"a": "5", "r": 5, "s": 1, "family": 1,
    #  "verdict": {"status": "Inapplicable", "condition": null}}
    @pytest.mark.parametrize(
        "line",
        [
            '{"a": "5", "r": 5, "s": 1, "family": 1}',
            "[1, 2]",
            '{"a": "5", "r": 5, "s": 1, "family": 1, "verdict": "Inapplicable"}',
            '{"a": 5, "r": 5, "s": 1, "family": 1, "verdict": {"status": "Inapplicable", "condition": null}}',
            '{"a": "5", "r": 5, "s": 1, "family": 3, "verdict": {"status": "Inapplicable", "condition": null}}',
            '{"a": "5", "r": 5, "s": 1, "family": true, "verdict": {"status": "Inapplicable", "condition": null}}',
            '{"a": "5", "r": 5, "s": 1, "family": 1, "verdict": {"condition": null}}',
            '{"a": "5", "r": 5, "s": 1, "family": 1, "verdict": {"status": "Inapplicable", "condition": [1]}}',
            # the resume keys a row by its integers (r, s, family)
            '{"a": "5", "r": "5", "s": 1, "family": 1, "verdict": {"status": "Inapplicable", "condition": null}}',
            '{"a": "5", "r": 5.0, "s": 1, "family": 1, "verdict": {"status": "Inapplicable", "condition": null}}',
            '{"a": "5", "r": true, "s": 1, "family": 1, "verdict": {"status": "Inapplicable", "condition": null}}',
            '{"a": "5", "r": null, "s": 1, "family": 1, "verdict": {"status": "Inapplicable", "condition": null}}',
            '{"a": "5", "s": 1, "family": 1, "verdict": {"status": "Inapplicable", "condition": null}}',
            '{"a": "5", "r": 5, "s": "1", "family": 1, "verdict": {"status": "Inapplicable", "condition": null}}',
            '{"a": "5", "r": 5, "s": 1.0, "family": 1, "verdict": {"status": "Inapplicable", "condition": null}}',
            '{"a": "5", "r": 5, "s": true, "family": 1, "verdict": {"status": "Inapplicable", "condition": null}}',
            '{"a": "5", "r": 5, "s": null, "family": 1, "verdict": {"status": "Inapplicable", "condition": null}}',
            '{"a": "5", "r": 5, "family": 1, "verdict": {"status": "Inapplicable", "condition": null}}',
        ],
    )
    def test_json_line_that_is_not_a_row_raises(self, tmp_path, line):
        out = tmp_path / "rows.jsonl"
        search(SearchConfig(height=1, out_path=out, depth=2))
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        lineno = len(out.read_text().splitlines())
        with pytest.raises(ValueError, match=f"{out}:{lineno}: not a result row"):
            load_rows(out)

    def test_complete_row_loads(self, tmp_path):
        # the row every line above breaks in one place
        out = tmp_path / "rows.jsonl"
        search(SearchConfig(height=1, out_path=out, depth=2))
        line = '{"a": "5", "r": 5, "s": 1, "family": 1, "verdict": {"status": "Inapplicable", "condition": null}}'
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        assert load_rows(out)[-1] == json.loads(line)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_summary_is_the_tally_of_the_rows_written(self, tmp_path, workers):
        out = tmp_path / "rows.jsonl"
        fresh = search(SearchConfig(height=8, out_path=out, depth=5, workers=workers))
        rows = load_rows(out)
        assert (fresh.rows_skipped, fresh.rows_written) == (0, len(rows))
        assert fresh.counts == tally(rows)
        resumed = search(SearchConfig(height=10, out_path=out, depth=5, workers=workers))
        appended = load_rows(out)[len(rows) :]
        assert (resumed.rows_skipped, resumed.rows_written) == (len(rows), len(appended))
        assert resumed.counts == tally(appended)


class TestCliVerify:
    def test_verify_json(self, capsys):
        assert main(["verify", "--family", "1", "--a", "1/5", "--depth", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ProvenSurjective"
        assert payload["condition"] == "T1.1-1"

    def test_degenerate_is_usage_error(self, capsys):
        assert main(["verify", "--family", "1", "--a", "0/1"]) == 2
        assert "degenerate" in capsys.readouterr().err

    def test_malformed_rational_is_usage_error(self, capsys):
        assert main(["verify", "--family", "1", "--a", "1.5"]) == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "7", "--a", "1/5"])
        assert exc.value.code == 2

    def test_invariant_violation_exits_1(self, capsys, monkeypatch):
        import arborist.cli as cli_module
        from arborist.errors import InvariantViolation

        def broken(*args, **kwargs):
            raise InvariantViolation("synthetic breach")

        monkeypatch.setattr(cli_module, "certify", broken)
        assert main(["verify", "--family", "1", "--a", "1/5"]) == 1
        assert "invariant violation" in capsys.readouterr().err

    def test_internal_value_error_exits_1(self, capsys, monkeypatch):
        import arborist.cli as cli_module

        def broken(*args, **kwargs):
            raise ValueError("synthetic internal fault")

        monkeypatch.setattr(cli_module, "certify", broken)
        assert main(["verify", "--family", "1", "--a", "1/5"]) == 1
        err = capsys.readouterr().err
        assert "internal error" in err and "synthetic internal fault" in err


class TestCliVerifyPins:
    # SHA-256 of `arborist verify` stdout for verdicts whose orbit products
    # pass the GMP cutoff: 7/1152921504606847007, whose non-square cofactors
    # passed the residue screen and went to math.isqrt when these were
    # recorded (about 2 s and 27 s on Python 3.11); 13/29, where r_20 has 5M
    # bits; 1000003/7 and 4096/3, where the 2r split's modulus (2r)^2 * 45045
    # spans more than one CPython digit; and 25/3 and -1/2, DependentAtLevel
    # where the witness level's cofactor prime to 2r is a square > 1 (139^2
    # and 11^2), so the level goes to F_2 elimination with its own numerator
    PINS = {
        (2, "7/1152921504606847007", 16): (
            "ad001e8b1c452d887e71f1071a77f3473d0100c75caa72a685b3d75dd6e6de02"
        ),
        (2, "7/1152921504606847007", 17): (
            "bc119748feca63277c5d94e5efb143c1a86a11db29370ec4a2d7da08adc5262a"
        ),
        (2, "13/29", 20): "89a5fb30b84a7c483085d79794fe0b4c22f3449547390d47e68f117904478e27",
        (1, "1000003/7", 12): "05fc4c03f31c1f85fca52f0d1aa75f656320cd68ee5e9cde8c766bdb96126d66",
        (2, "4096/3", 12): "6813c884c3ba29ddaa35b64e830d1fafb0d84069873a5e21d534de72a9fa9a1a",
        (1, "25/3", 16): "318d5301e31ec5922cedef18814aff0f6ba48e26758c3f91342fc2f09826ace7",
        (2, "-1/2", 16): "752412e76cba5e80ff302f9a498aa7f74af1734473c5c85b00b45ce35f95554f",
    }

    @pytest.mark.parametrize("family, a, depth", list(PINS), ids=lambda v: str(v))
    def test_output_is_pinned(self, family, a, depth, capsys):
        import hashlib

        argv = ["verify", "--family", str(family), f"--a={a}", "--depth", str(depth)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINS[family, a, depth]


class TestCliVerifyDetailPins:
    # `arborist verify` stdout at depth 6 for denominators that do not factor
    # below the trial-division cutoff, recorded while each family had its own
    # condition function: the witness search is undecided or finds only a
    # divisor, and the undecided note is written only when nothing fires
    PINS = {
        (1, "-10/1000036000099"): (
            '{"a": "-10/1000036000099", "condition": "T1.1-1", "delta": 0, '
            '"depth": 6, "detail": {"fired": ["T1.1-1"], "m": "20"}, "e": 1, '
            '"family": 1, "status": "ProvenSurjective", "witness": null}'
        ),
        (1, "-13/1000036000099"): (
            '{"a": "-13/1000036000099", "condition": "T1.1-3", "delta": 0, '
            '"depth": 6, "detail": {"divisor": "1000036000099", '
            '"fired": ["T1.1-3"], "m": "13"}, "e": 0, "family": 1, '
            '"status": "ProvenSurjective", "witness": null}'
        ),
        (1, "-12/1000036000099"): (
            '{"a": "-12/1000036000099", "condition": null, "delta": 0, '
            '"depth": 6, "detail": {"m": "24", '
            '"note": "finite-depth evidence only, not a proof", '
            '"reason": "no certificate condition fires", '
            '"undecided": "non-residue search undecided: s did not fully factor"}, '
            '"e": 1, "family": 1, "status": "IndependentToDepth", '
            '"witness": null}'
        ),
        (2, "2/1000042000117"): (
            '{"a": "2/1000042000117", "condition": "T1.2-2", "delta": null, '
            '"depth": 6, "detail": {"fired": ["T1.2-2"]}, "e": null, '
            '"family": 2, "status": "ProvenSurjective", "witness": null}'
        ),
        (2, "2/1000036000099"): (
            '{"a": "2/1000036000099", "condition": "T1.2-2", "delta": null, '
            '"depth": 6, "detail": {"divisor": "1000036000099", '
            '"fired": ["T1.2-2", "T1.2-3"]}, "e": null, "family": 2, '
            '"status": "ProvenSurjective", "witness": null}'
        ),
        (2, "2/1000070001221"): (
            '{"a": "2/1000070001221", "condition": null, "delta": null, '
            '"depth": 6, "detail": {"note": "finite-depth evidence only, '
            'not a proof", "reason": "no certificate condition fires", '
            '"undecided": "prime-witness search undecided: s did not fully factor"}, '
            '"e": null, "family": 2, "status": "IndependentToDepth", '
            '"witness": null}'
        ),
    }

    @pytest.mark.parametrize("family, a", list(PINS), ids=lambda v: str(v))
    def test_output_is_pinned(self, family, a, capsys):
        assert main(["verify", "--family", str(family), f"--a={a}", "--depth", "6"]) == 0
        assert capsys.readouterr().out == self.PINS[family, a] + "\n"


class TestCliVerifyStatusPins:
    # `arborist verify` stdout for every status, in both families, recorded
    # while cmd_verify still passed sort_keys=True to json.dumps: the keys
    # and the detail's come sorted from Verdict.to_json_dict
    PINS = {
        (1, "13/29", 12): (
            '{"a": "13/29", "condition": "T1.1-1", "delta": 1, "depth": 12, '
            '"detail": {"fired": ["T1.1-1", "T1.1-2"], "m": "-13"}, "e": 0, '
            '"family": 1, "status": "ProvenSurjective", "witness": null}'
        ),
        (2, "13/29", 12): (
            '{"a": "13/29", "condition": null, "delta": null, "depth": 12, '
            '"detail": {"note": "finite-depth evidence only, not a proof", '
            '"reason": "no certificate condition fires"}, "e": null, "family": 2, '
            '"status": "IndependentToDepth", "witness": null}'
        ),
        (2, "2/27", 8): (
            '{"a": "2/27", "condition": "T1.2-3", "delta": null, "depth": 8, '
            '"detail": {"fired": ["T1.2-3"], "q": "3"}, "e": null, "family": 2, '
            '"status": "ProvenSurjective", "witness": null}'
        ),
        (1, "9/10", 8): (
            '{"a": "9/10", "condition": null, "delta": null, "depth": 8, '
            '"detail": {"note": "finite-depth evidence only, not a proof", '
            '"reason": "delta is undefined for this base point"}, "e": 0, '
            '"family": 1, "status": "IndependentToDepth", "witness": null}'
        ),
        (1, "1/4", 4): (
            '{"a": "1/4", "condition": null, "delta": 1, "depth": null, '
            '"detail": {"a_minus_c": "9/16", "reason": "a - c is a rational square"}, '
            '"e": 0, "family": 1, "status": "NotSurjective", "witness": null}'
        ),
        (2, "3/4", 4): (
            '{"a": "3/4", "condition": null, "delta": null, "depth": null, '
            '"detail": {"a_minus_c": "25/16", "reason": "a - c is a rational square"}, '
            '"e": null, "family": 2, "status": "NotSurjective", "witness": null}'
        ),
        (1, "-2", 4): (
            '{"a": "-2", "condition": null, "delta": null, "depth": 4, '
            '"detail": {"reason": "f(0) equals the base point; the backward orbit '
            'is not a regular tree", "zero_levels": [1]}, "e": 1, "family": 1, '
            '"status": "Inapplicable", "witness": null}'
        ),
        (2, "1", 6): (
            '{"a": "1", "condition": null, "delta": null, "depth": 6, '
            '"detail": {"level": 3, "reason": "no certificate condition fires"}, '
            '"e": null, "family": 2, "status": "DependentAtLevel", "witness": [1, 2, 3]}'
        ),
    }

    @pytest.mark.parametrize("family, a, depth", list(PINS), ids=lambda v: str(v))
    def test_output_is_pinned(self, family, a, depth, capsys):
        argv = ["verify", "--family", str(family), f"--a={a}", "--depth", str(depth)]
        assert main(argv) == 0
        assert capsys.readouterr().out == self.PINS[family, a, depth] + "\n"


class TestCliUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--family", "1", "--a", "1/0"],
            ["verify", "--family", "2", "--a", "1/2"],
            ["orbit", "--family", "1", "--a", "x"],
            ["independence", "--values", "2,0,3"],
            ["independence", "--values", ",".join(["2"] * 21), "--oracle"],
            ["julia", "--c", "abc", "--a", "0.5"],
            ["julia", "--c=-0.75", "--a", "0.5", "--burn-in", "-1"],
            ["julia", "--c=-0.75", "--a", "0.5", "--height", "0"],
            ["julia", "--c=-0.75", "--a", "0.5", "--bounds", "1", "0", "0", "1"],
        ],
    )
    def test_bad_input_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--c=-1", "--a=inf"],
            ["--c=-1", "--a=nan"],
            ["--c=nan", "--a=0", "--csv"],
            ["--c=-1", "--a=0", "--width", "4", "--height", "4"]
            + ["--bounds", "0", "1e-320", "0", "1"],
            ["--c=-1", "--a=0", "--width", "1000000000", "--height", "1000000000"],
        ],
        ids=["a-inf", "a-nan", "c-nan-csv", "scale-overflow", "too-many-pixels"],
    )
    def test_julia_refuses_what_it_cannot_draw(self, argv, capsys):
        assert main(["julia", "--points", "3", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    LONG_NEGATIVE = "-" + "7" * 4000  # parses as an int: 4000 digits

    @pytest.mark.parametrize(
        "argv, count",
        [
            (["verify", "--family", "1", "--a", "1/5", "--depth", "0"], "depth"),
            (["orbit", "--family", "1", "--a", "1/5", "--depth", "-3"], "depth"),
            (["verify", "--family", "1", "--a", "1/3", "--depth", LONG_NEGATIVE], "depth"),
            (["search", "--height", "0"], "height"),
            (["search", "--height", "2", "--depth", "0"], "depth"),
            (["search", "--height", "2", "--workers", "0"], "worker count"),
            (["search", "--height", "3", "--workers", LONG_NEGATIVE], "worker count"),
        ],
    )
    def test_nonpositive_counts_get_the_library_message(
        self, tmp_path, monkeypatch, capsys, argv, count
    ):
        # the parser reads the integer; check_depth and SearchConfig refuse
        # it, before any orbit arithmetic and before search opens its file
        monkeypatch.chdir(tmp_path)
        argv = argv + ["--out", "unused.jsonl"] if argv[0] == "search" else argv
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {count} must be positive\n")
        assert list(tmp_path.iterdir()) == []

    def test_a_count_that_is_not_an_integer_is_refused_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--height", "two", "--out", "unused.jsonl"])
        assert exc.value.code == 2
        assert "not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["report", "--in", "missing.jsonl"], "missing.jsonl"),
            (["report", "--in", "."], "."),
            (["search", "--height", "1", "--out", "."], "."),
            (["search", "--height", "1", "--out", "no/rows.jsonl"], "no/rows.jsonl"),
            ([*JULIA_TO, "no/julia.pgm"], "no/julia.pgm"),
            ([*JULIA_TO, "."], "."),
        ],
    )
    def test_missing_or_directory_path_exits_2(self, tmp_path, monkeypatch, capsys, argv, named):
        # a path the user named that is missing or a directory is their error
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {named}: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--in", "rows.jsonl"],
            ["search", "--height", "1", "--out", "rows.jsonl"],
            [*JULIA_TO, "rows.jsonl"],
        ],
        ids=["report", "search", "julia"],
    )
    def test_path_the_user_may_not_open_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        # open is patched, since chmod denies nothing to a superuser
        import arborist.errors as errors_module

        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(errors_module, "open", denied, raising=False)
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: rows.jsonl: Permission denied\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--family", "1", "--a", "1/3", "--depth", "40"],
            ["verify", "--family", "2", "--a", "13/29", "--depth", "23"],
            ["orbit", "--family", "1", "--a=-5/17", "--depth", "23"],
            ["search", "--height", "6", "--depth", "24", "--out", "rows.jsonl"],
        ],
    )
    def test_depth_past_the_limit_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert "is too deep" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # search refused before writing

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--family", "1", "--a", "1/{digits}", "--depth", "1"],
            ["orbit", "--family", "2", "--a", "{digits}"],
            ["independence", "--values", "2,{digits}"],
        ],
        ids=["verify", "orbit", "independence"],
    )
    def test_rational_past_the_int_str_limit_exits_2(self, argv, capsys):
        limit = current_int_str_limit()
        if not limit:
            pytest.skip("this interpreter has no int/str digit limit")
        digits = "7" * (limit + 700)
        assert main([arg.format(digits=digits) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"more than {limit} digits" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--family", "1", "--a", "1/3", "--depth", "{digits}"],
            ["search", "--height", "{digits}", "--out", "unused.jsonl"],
        ],
        ids=["verify-depth", "search-height"],
    )
    def test_count_past_the_int_str_limit_exits_2(self, argv, capsys):
        limit = current_int_str_limit()
        if not limit:
            pytest.skip("this interpreter has no int/str digit limit")
        digits = "7" * (limit + 700)
        with pytest.raises(SystemExit) as exc:
            main([arg.format(digits=digits) for arg in argv])
        assert exc.value.code == 2
        # argparse's usage lines, then the one-line error
        message = capsys.readouterr().err.splitlines()[-1]
        assert len(message) < 200 and f"more than {limit} digits" in message

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--family", "1", "--a", "1/3", "--depth", "{junk}"],
            ["julia", "--c", "{junk}", "--a", "0.5"],
            ["verify", "--family", "1", "--a", "{junk}"],
            ["independence", "--values", "2,{junk},3"],
        ],
        ids=["verify-depth", "julia-c", "verify-a", "independence-values"],
    )
    def test_an_argument_that_is_not_a_number_is_echoed_short(self, argv, capsys):
        junk = "x" * 5000
        try:
            code = main([arg.format(junk=junk) for arg in argv])
        except SystemExit as exc:  # argparse's own exit
            code = exc.code
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        # argparse's usage lines come first; the error is one line
        errors = [line for line in lines if "error: " in line]
        assert len(errors) == 1 and errors == lines[-1:]
        assert len(errors[0].encode()) < 200 and "xxx...xxx" in errors[0]
        assert all(len(line.encode()) < 200 for line in lines)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--family", "1", "--a", "1/{sevens}", "--depth", "20"],
            ["search", "--height", "{sevens}", "--out", "unused.jsonl"],
        ],
        ids=["verify-a", "search-height"],
    )
    def test_a_long_number_that_is_refused_is_echoed_short(
        self, tmp_path, monkeypatch, argv, capsys
    ):
        # 4000 digits parse as an int, and the refusal cuts them in the middle
        monkeypatch.chdir(tmp_path)
        sevens = "7" * 4000
        try:
            code = main([arg.format(sevens=sevens) for arg in argv])
        except SystemExit as exc:  # argparse's own exit
            code = exc.code
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert "7777777777...7777777777" in lines[-1]
        assert all(len(line.encode()) < 200 for line in lines)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "option, argv",
        [
            ("--family", ["verify", "--family", "{junk}", "--a", "1/3"]),
            ("--family", ["orbit", "--family", "{junk}", "--a", "1/3"]),
            ("--family", ["search", "--height", "3", "--family", "{junk}", "--out", "x"]),
            *(
                (option, ["julia", "--c", "-1", "--a", "0", option, "{junk}"])
                for option in ("--points", "--seed", "--burn-in", "--width", "--height")
            ),
            ("--bounds", ["julia", "--c", "-1", "--a", "0", "--bounds", "{junk}", "0", "0", "1"]),
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_a_numeric_option_that_is_not_a_number_is_echoed_short(self, option, argv, capsys):
        junk = "x" * 5000
        with pytest.raises(SystemExit) as exc:
            main([arg.format(junk=junk) for arg in argv])
        assert exc.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        # argparse's usage lines come first; the error is one line
        errors = [line for line in lines if "error: " in line]
        assert len(errors) == 1 and errors == lines[-1:]
        assert f"argument {option}" in errors[0] and "xxx...xxx" in errors[0]
        assert all(len(line.encode()) < 200 for line in lines)

    @pytest.mark.parametrize("schema", ["other-v9", "arborist-v1"])
    def test_foreign_results_file_exits_2(self, tmp_path, capsys, schema):
        out = foreign_results_file(tmp_path, schema)
        before = out.read_bytes()
        for argv in (["report", "--in", str(out)], ["search", "--height", "1", "--out", str(out)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {out}: unexpected schema '{schema}'\n"
        assert out.read_bytes() == before


class TestCliOrbit:
    def test_orbit_report(self, capsys):
        assert main(["orbit", "--family", "1", "--a", "1/2", "--depth", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["D"] == ["5/4", "-11/16", "-311/256"]

    def test_default_depth_with_large_denominator(self, capsys):
        # r_12 has about 7000 digits, more than str() converts by default
        assert main(["orbit", "--family", "1", "--a", "13/29"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["N"] == 12 and len(payload["D"]) == 12


class TestCliOrbitPins:
    # SHA-256 of `arborist orbit` stdout, recorded before D_i was formatted
    # from r_i and s**(2**i) without a Fraction
    PINS = {
        ("13/29", 1, 12): "1c0882db00c536eb46d0c2c91010d0133401a4fde70fe4e3b442bd7a37c9f249",
        ("13/29", 2, 12): "d5f4e4bfa2dfa891d0458e8c2caf11d78589452c98a8e2be78afbc3d01ed7b64",
        ("-5/17", 1, 12): "308ea77ca8037ba0dd8a56962a24b3ee629979501ecab90916a998665cedf114",
        ("-5/17", 2, 12): "4ba2c04d0c46e2f9c2c5c864e2718187edf47ca86a3d40b8fca7acae3c297d15",
        ("7/23", 1, 12): "d2bae854485f10091765b577127be4e8269f1732f9a83981afe01cca7e3f98bf",
        ("2/27", 2, 12): "307b44808db7a749ebea9584054ce5a3a2c5c6f9522e3c03a833f8d768fb3824",
        ("3/19", 1, 12): "235c967d126892214ecde271c37ec5cd7b130355eb34c876469ed63d18dbec9d",
        ("11/27", 2, 12): "66465cd444b7766ca9b1ef2dfe758345effdae2cc9bd52683abba311901cbedd",
        ("1", 2, 12): "8eccb37c35534ddc29b4a5a6db0bc33d716180252a75b79a5aaf027261dce330",
        ("13/29", 1, 14): "486a2b5131a3606a89431e9a71d3ed85a9c9d6d9d327efc7edcb36cd72d272f2",
        ("13/29", 2, 14): "37df7d4240b20d529db5d7d0265be4ae66f52a30e9a592c49d3fd3376cceb8d6",
        ("-5/17", 1, 14): "aad28b3a1eb8e9e8987eeab5500b0df5c6ee4872ec8ee2cc041e0419c23b161e",
        ("-5/17", 2, 14): "83d512eb89d455801751a858d19a72e2243d453106eb4b930c89d1f614968098",
        ("7/23", 1, 14): "5c636bcfdf360e09dfe45e00c7e7525626bfc9bbac3734d80bbf7e883e3afcf6",
        ("2/27", 2, 14): "ae88de0294f83a5734c0b3a5b50065ce0b738638d401a8e2e7c262ab9a60dfa7",
        ("3/19", 1, 14): "067733c3c9b9090d4d8a5420c96ac9aadc2aa75dcd989e82a4ffcc9ff8b781b4",
        ("11/27", 2, 14): "097999949a3eeb415d11871cbef5095b50cc9ebdcdc71983e5970ccc88f93c09",
        ("1", 2, 14): "9d6299e1bb7e6a3d8341a550836ca329bc13a5e6590c4de6b1fdd4f712bc9de7",
        # r_19 has 2.5M bits: the numbers pass the decimal converter's splits
        ("13/29", 2, 19): "0b9d6796eb501b814aea588c4aa7dc81ccbe231ca67d347375ae05373e8eec50",
        # s = 99 and r = 97, the largest prime up to REPORT_PRIME_BOUND:
        # valuation checks at 2, 3, 11 and 97
        ("97/99", 1, 6): "73dd48257f3deff306838c2a854bbceda615ae0a7e6a00ec92b3e05d2c028544",
    }

    @pytest.mark.parametrize("a, family, depth", list(PINS), ids=lambda v: str(v))
    def test_output_is_pinned(self, a, family, depth, capsys):
        import hashlib

        argv = ["orbit", "--family", str(family), f"--a={a}", "--depth", str(depth)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINS[a, family, depth]


class TestCliIndependence:
    def test_oracle_dependency(self, capsys):
        assert main(["independence", "--values", "2,3,6", "--oracle"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "Dependent"
        assert payload["witness_values"] == ["2", "3", "6"]

    def test_independent_list(self, capsys):
        assert main(["independence", "--values", "5/4,-11/16"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "Independent"
        assert payload["witness_indices"] is None

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["--values", "2/3,6"],
                '{"status": "Dependent", "witness_indices": [0, 1], '
                '"witness_values": ["2/3", "6"]}',
            ),
            (
                ["--values", "7/12,3/28,-5,15/2,1/9"],
                '{"status": "Dependent", "witness_indices": [0, 1], '
                '"witness_values": ["7/12", "3/28"]}',
            ),
            (
                ["--values", "6/35,10/21,15/14"],
                '{"status": "Dependent", "witness_indices": [0, 1], '
                '"witness_values": ["6/35", "10/21"]}',
            ),
            (
                ["--values", "5/4,-11/16,-311/256"],
                '{"status": "Independent", "witness_indices": null, '
                '"witness_values": null}',
            ),
            (
                ["--values=-1,1/4"],
                '{"status": "Dependent", "witness_indices": [1], '
                '"witness_values": ["1/4"]}',
            ),
            (
                ["--values", "7/12,3/28,-5,15/2,1/9", "--oracle"],
                '{"status": "Dependent", "witness_indices": [0, 1], '
                '"witness_values": ["7/12", "3/28"]}',
            ),
            # the lists below were recorded while every p/q was keyed by p*q:
            # orbit values and other values over square denominators, values
            # over other denominators, and both in one list
            (
                [
                    "--values=1010/841,-448721/707281,-583436145314/500246412961,"
                    "-171517972884010923745601/250246473680347348787521"
                ],
                '{"status": "Independent", "witness_indices": null, '
                '"witness_values": null}',
            ),
            (
                ["--values=1010/841,-448721/707281,-453208210/9"],
                '{"status": "Dependent", "witness_indices": [0, 1, 2], '
                '"witness_values": ["1010/841", "-448721/707281", "-453208210/9"]}',
            ),
            (
                ["--values", "3/4,12/25"],
                '{"status": "Dependent", "witness_indices": [0, 1], '
                '"witness_values": ["3/4", "12/25"]}',
            ),
            (
                ["--values=-1/4,-9/49,1/2,8"],
                '{"status": "Dependent", "witness_indices": [0, 1], '
                '"witness_values": ["-1/4", "-9/49"]}',
            ),
            (
                ["--values", "5/4,-11/16,-311/256,7/12,21"],
                '{"status": "Dependent", "witness_indices": [3, 4], '
                '"witness_values": ["7/12", "21"]}',
            ),
            (
                ["--values", "1/1152921504606847007,1152921504606847007/4,3"],
                '{"status": "Dependent", "witness_indices": [0, 1], '
                '"witness_values": ["1/1152921504606847007", "1152921504606847007/4"]}',
            ),
            (
                ["--values=-2/9,3/8,5/49,-7/50,11,13/18"],
                '{"status": "Independent", "witness_indices": null, '
                '"witness_values": null}',
            ),
            # 6 = 2 * 3, and over square denominators 3/4 * 12/25 = (3/5)^2
            (
                ["--values", "2,3,6"],
                '{"status": "Dependent", "witness_indices": [0, 1, 2], '
                '"witness_values": ["2", "3", "6"]}',
            ),
            (
                ["--values", "3/4,12/25,5/9"],
                '{"status": "Dependent", "witness_indices": [0, 1], '
                '"witness_values": ["3/4", "12/25"]}',
            ),
        ],
    )
    def test_output_is_pinned(self, argv, expected, capsys):
        # recorded before square classes were keyed by p*q per value, except
        # where noted
        assert main(["independence", *argv]) == 0
        assert capsys.readouterr().out == expected + "\n"

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["elimination", "oracle"])
    def test_a_zero_value_has_one_message_on_both_paths(self, oracle, capsys):
        assert main(["independence", "--values", "2,0,3", *oracle]) == 2
        err = capsys.readouterr().err
        assert err == "error: independence is undefined for zero, which has no square class\n"


class TestCliBrokenPipe:
    def test_reader_closing_early_exits_141_quietly(self):
        # the report is 385,150 bytes, far more than a pipe buffers
        src = Path(arborist.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = ["orbit", "--family", "1", "--a", "13/29", "--depth", "16"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "arborist", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        code = proc.wait(timeout=60)
        with proc.stderr:
            assert proc.stderr.read() == b""
        assert code == 141

    # a verdict of 183 bytes waits in stdout's buffer until the final flush;
    # conftest keeps PYTHONUNBUFFERED out of the environment, as in a shell
    VERIFY = [sys.executable, "-m", "arborist", "verify", "--family", "1", "--a", "1/5"]

    def run_verify(self, stdout):
        src = Path(arborist.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        return subprocess.run(self.VERIFY, stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60)

    def test_short_output_to_a_closed_pipe_exits_141_quietly(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.run_verify(write_end)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_short_output_to_a_full_device_exits_1(self):
        with open("/dev/full", "wb") as full:
            proc = self.run_verify(full)
        assert proc.returncode == 1
        assert proc.stderr == b"i/o error: [Errno 28] No space left on device\n"



class TestCliInterrupt:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_ctrl_c_exits_130_and_leaves_a_resumable_file(self, tmp_path, workers):
        # a terminal sends SIGINT to the whole foreground process group, the
        # pool's workers included; the sweep of height 200 runs for seconds
        src = Path(arborist.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = tmp_path / "rows.jsonl"
        argv = ["search", "--height", "200", "--depth", "10", "--out", str(out)]
        with subprocess.Popen(
            [sys.executable, "-m", "arborist", *argv, "--workers", str(workers)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            start_new_session=True,
        ) as proc:
            try:
                deadline = time.monotonic() + 60
                while not (out.exists() and out.read_bytes().count(b"\n") > 2):
                    assert proc.poll() is None and time.monotonic() < deadline
                    time.sleep(0.05)
                os.killpg(proc.pid, signal.SIGINT)
                _, err = proc.communicate(timeout=60)
            finally:
                if proc.returncode is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        assert b"Traceback" not in err
        assert proc.returncode == 130
        assert out.read_bytes().endswith(b"\n")
        assert len(load_rows(out)) >= 2

class TestCliSearchAndReport:
    def test_search_then_report(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        assert (
            main(["search", "--height", "2", "--depth", "4", "--out", str(out)]) == 0
        )
        search_output = capsys.readouterr().out
        assert "rows written: 10" in search_output
        assert main(["report", "--in", str(out)]) == 0
        report = capsys.readouterr().out
        assert "ProvenSurjective" in report
        assert "total rows: 10" in report

    def test_summary_and_tally_are_pinned(self, tmp_path, capsys):
        # SHA-256 of the sweep's summary and of the report's tally; a second
        # run over the same file resumes it and writes nothing
        import hashlib

        def digest(text):
            return hashlib.sha256(text.encode()).hexdigest()

        out = str(tmp_path / "rows.jsonl")
        argv = ["search", "--height", "6", "--depth", "6", "--out", out]
        assert main(argv) == 0
        assert digest(capsys.readouterr().out) == (
            "8440e0938a25ccba5ee8bd914134fc754219d61b6e47af2712b259081b50e761"
        )
        assert main(argv) == 0
        assert "rows written: 0" in capsys.readouterr().out.splitlines()
        assert main(["report", "--in", out]) == 0
        assert digest(capsys.readouterr().out) == (
            "7c49abeb2a9470985cf24603c1611bfc0b0f51482dcd994f2c76dd4de2bc06b1"
        )

    def test_proven_rows_reverify_identically(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        main(["search", "--height", "3", "--depth", "5", "--out", str(out)])
        capsys.readouterr()
        for row in load_rows(out):
            if row["verdict"]["status"] != "ProvenSurjective":
                continue
            code = main(
                [
                    "verify",
                    "--family",
                    str(row["family"]),
                    f"--a={row['a']}",
                    "--depth",
                    "5",
                ]
            )
            assert code == 0
            assert json.loads(capsys.readouterr().out) == row["verdict"]

    def test_resume_at_other_depth_exits_2(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        assert main(["search", "--height", "2", "--depth", "6", "--out", str(out)]) == 0
        capsys.readouterr()
        before = out.read_bytes()
        assert main(["search", "--height", "3", "--depth", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "depth 6" in err and "depth 3" in err
        assert out.read_bytes() == before

    def test_report_skips_a_row_cut_by_a_crash(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        assert main(["search", "--height", "3", "--depth", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        data = out.read_bytes()
        out.write_bytes(data[:-37])
        rows_left = len(data.splitlines()) - 2  # minus the header and the cut row
        assert main(["report", "--in", str(out)]) == 0
        captured = capsys.readouterr()
        assert f"total rows: {rows_left}" in captured.out
        assert f"{out}:{rows_left + 2}: skipped an unterminated last line" in captured.err
        assert len(load_rows(out)) == rows_left

    def test_report_skips_a_row_cut_by_a_crash_on_a_pipe(self):
        # a pipe cannot tell where the cut line starts; report counts the bytes
        src = Path(arborist.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "arborist", "report", "--in", "/dev/stdin"],
            input=json.dumps({"schema": SCHEMA, "depth": 4}).encode() + b'\n{"a": "1", "fam',
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == b"/dev/stdin:2: skipped an unterminated last line\n"
        assert proc.stdout.decode().splitlines()[-1] == "total rows: 0"

    @pytest.mark.parametrize("line", ['{"a": "5", "r": 5, "s": 1, "family": 1}', "[1,2]"])
    @pytest.mark.parametrize("command", ["report", "search"])
    def test_json_line_that_is_not_a_row_exits_2(self, tmp_path, capsys, command, line):
        out = tmp_path / "rows.jsonl"
        assert main(["search", "--height", "2", "--depth", "4", "--out", str(out)]) == 0
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        capsys.readouterr()
        before = out.read_bytes()
        argv = {
            "report": ["report", "--in", str(out)],
            "search": ["search", "--height", "3", "--depth", "4", "--out", str(out)],
        }[command]
        assert main(argv) == 2
        lineno = len(before.splitlines())
        assert f"{out}:{lineno}: not a result row" in capsys.readouterr().err
        assert out.read_bytes() == before

    def test_refused_resume_leaves_a_cut_file_as_it_was(self, tmp_path, capsys):
        # the bad row is found before the cut last row would be dropped
        out = tmp_path / "rows.jsonl"
        argv = ["search", "--height", "3", "--depth", "4", "--out", str(out)]
        assert main(argv) == 0
        lines = out.read_bytes().splitlines(keepends=True)
        lines[2] = b'{"a": "5", "r": 5, "s": 1, "family": 1}\n'
        lines[-1] = lines[-1][:20]
        out.write_bytes(b"".join(lines))
        capsys.readouterr()
        before = out.read_bytes()
        assert main(argv) == 2
        assert f"{out}:3: not a result row" in capsys.readouterr().err
        assert out.read_bytes() == before

    @pytest.mark.parametrize("command", ["report", "search"])
    def test_line_that_is_not_utf8_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "rows.jsonl"
        assert main(["search", "--height", "2", "--depth", "4", "--out", str(out)]) == 0
        lines = out.read_bytes().splitlines(keepends=True)
        lines[3] = lines[3].replace(b'"a": "', b'"a": "\xff', 1)
        out.write_bytes(b"".join(lines))
        capsys.readouterr()
        before = out.read_bytes()
        argv = {
            "report": ["report", "--in", str(out)],
            "search": ["search", "--height", "3", "--depth", "4", "--out", str(out)],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{out}:4: corrupt line" in err and "internal error" not in err
        assert out.read_bytes() == before

    def test_report_on_an_empty_file_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "rows.jsonl"
        empty.write_bytes(b"")
        assert main(["report", "--in", str(empty)]) == 2
        assert capsys.readouterr().err == f"error: {empty}: empty results file\n"

    def test_report_names_a_corrupt_line(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        assert main(["search", "--height", "2", "--depth", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines(keepends=True)
        lines[3] = lines[3][:20] + "\n"
        out.write_text("".join(lines))
        assert main(["report", "--in", str(out)]) == 2
        assert f"{out}:4: corrupt line" in capsys.readouterr().err

    def test_header_that_lost_its_newline_is_resumed(self, tmp_path, capsys):
        # a crash after the header's JSON but before its newline
        out, fresh = tmp_path / "rows.jsonl", tmp_path / "fresh.jsonl"
        header = json.dumps({"schema": SCHEMA, "depth": 4})
        out.write_text(header, encoding="utf-8")
        assert main(["search", "--height", "2", "--depth", "4", "--out", str(out)]) == 0
        assert main(["search", "--height", "2", "--depth", "4", "--out", str(fresh)]) == 0
        assert out.read_text().splitlines()[0] == header
        assert [strip_timing(row) for row in load_rows(out)] == [
            strip_timing(row) for row in load_rows(fresh)
        ]

    def test_header_cut_inside_its_json_exits_2(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        out.write_text(json.dumps({"schema": SCHEMA, "depth": 4})[:-5], encoding="utf-8")
        before = out.read_bytes()
        assert main(["search", "--height", "2", "--depth", "4", "--out", str(out)]) == 2
        assert f"{out}:1: corrupt line" in capsys.readouterr().err
        assert out.read_bytes() == before

    def test_unwritable_output_path(self, tmp_path, capsys):
        # a missing directory in a path the user named is their error
        target = tmp_path / "missing" / "rows.jsonl"
        code = main(["search", "--height", "1", "--out", str(target)])
        assert code == 2
        assert f"{target}: No such file or directory" in capsys.readouterr().err


class TestCliJulia:
    def test_defaults_are_render_config_defaults(self):
        args = build_parser().parse_args(["julia", "--c", "-1", "--a", "0"])
        cfg = RenderConfig()
        assert args.points == cfg.n_points
        assert args.burn_in == cfg.burn_in
        assert args.seed == cfg.seed
        assert (args.width, args.height) == (cfg.width, cfg.height)
        assert tuple(args.bounds) == cfg.bounds

    @pytest.mark.parametrize("low", ["-1e-3", "-1E-3", "-.001", "-0.001", "-1"])
    def test_negative_bounds_are_values_in_every_float_form(self, low, tmp_path):
        # argparse's own rule takes -0.001 for a number but -1e-3 for an option
        argv = ["julia", "--c", "-0.75,0.1", "--a", "0", "--bounds", low, "1", "-2e0", "-1"]
        args = build_parser().parse_args(argv)
        assert args.c == "-0.75,0.1"
        assert args.bounds == [float(low), 1.0, -2.0, -1.0]
        out = tmp_path / "points.csv"
        assert main([*argv, "--points", "3", "--csv", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_an_infinite_bound_reaches_the_render_config(self, capsys):
        argv = ["julia", "--c", "-1", "--a", "0", "--points", "3", "--bounds", "-inf", "1", "0", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: bounds must be finite\n"

    def test_pgm_output(self, tmp_path):
        out = tmp_path / "julia.pgm"
        code = main(
            [
                "julia",
                "--c",
                "-0.75",
                "--a",
                "0.5",
                "--points",
                "5000",
                "--seed",
                "42",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = out.read_bytes()
        assert data.startswith(b"P5\n800 800\n255\n")

    def test_csv_output(self, tmp_path):
        out = tmp_path / "points.csv"
        code = main(
            [
                "julia",
                "--c=-0.75,0",
                "--a",
                "0.5,0",
                "--points",
                "50",
                "--seed",
                "1",
                "--csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 50
        assert all(len(line.split(",")) == 2 for line in lines)

    def test_csv_to_stdout(self, capsys):
        assert main(["julia", "--c", "-1", "--a", "0", "--points", "10", "--csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 10
        assert all(len(line.split(",")) == 2 for line in lines)

    def test_csv_to_a_text_stdout(self, capsys):
        # a StringIO in place of stdout has no binary buffer; the CSV goes
        # to it as text, the same characters as to a real stdout
        argv = ["julia", "--c=-1", "--a", "0", "--points", "3", "--csv"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        with contextlib.redirect_stdout(io.StringIO()) as text:
            assert main(argv) == 0
        assert text.getvalue() == expected and len(expected.splitlines()) == 3
        assert capsys.readouterr().err == ""

    def test_pgm_to_stdout(self, capsysbinary):
        argv = ["julia", "--c=-1", "--a", "0", "--points", "20", "--width", "8", "--height", "8"]
        assert main(argv) == 0
        cfg = RenderConfig(width=8, height=8, n_points=20)
        assert capsysbinary.readouterr().out == render(sample_backward(-1, 0, cfg), cfg)

    def test_pgm_to_a_text_stdout_exits_2_naming_out(self, capsys):
        with contextlib.redirect_stdout(io.StringIO()) as text:
            assert main(["julia", "--c=-1", "--a", "0", "--points", "3"]) == 2
        assert text.getvalue() == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--out" in err

    def test_identical_seed_identical_bytes(self, tmp_path):
        args = lambda path: [
            "julia",
            "--c",
            "-0.75",
            "--a",
            "0.5",
            "--points",
            "2000",
            "--seed",
            "42",
            "--out",
            str(path),
        ]
        first, second = tmp_path / "a.pgm", tmp_path / "b.pgm"
        assert main(args(first)) == 0 and main(args(second)) == 0
        assert first.read_bytes() == second.read_bytes()
