"""Height-bounded certification sweep with resumable JSONL output.

Rows are independent (one per admissible base point and family), so the
sweep is an order-preserving map over the enumeration: worker count never
changes row content, and an existing output file is extended rather than
recomputed.  The header line records the schema and the depth, and a file
is only extended when it was written with this schema and at that depth.
Every row is flushed as it is written; a row cut short by a crash is
dropped on resume and computed again; the header line is never cut, and
a header that lost only its newline gets it back.  The base points are the
reduced pairs (r, s) of ``_reduced_pairs``, the one enumeration; each goes
as its integers into the certifier's one entry, ``verdict._certify``, and
each row, verdict included, is built with its keys in sorted order, as
``json.dumps`` writes them.

Schema ``arborist-v2`` keeps an undecided witness search in the verdict's
``detail["undecided"]``.  In ``arborist-v1`` files that note sat at
``detail["note"]``, where the finite-depth fallback overwrote it; those
files still load but are not extended.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from .critorbit import DEFAULT_DEPTH
from .dynamics import DEGENERATE, Family
from .errors import UsageError, open_named
from .verdict import _certify

SCHEMA = "arborist-v2"
#: every schema load_rows reads; search extends SCHEMA files only
READABLE_SCHEMAS = ("arborist-v1", SCHEMA)


@dataclass(frozen=True)
class SearchConfig:
    height: int
    out_path: str | Path
    families: tuple[int, ...] = (1, 2)
    depth: int = DEFAULT_DEPTH
    workers: int = 1

    def __post_init__(self) -> None:
        if self.height < 1:
            raise UsageError("height must be positive")
        if self.depth < 1:
            raise UsageError("depth must be positive")
        if self.workers < 1:
            raise UsageError("worker count must be positive")
        if not self.families or any(f not in (1, 2) for f in self.families):
            raise UsageError("families must be a nonempty subset of {1, 2}")
        if len(set(self.families)) != len(self.families):
            raise UsageError(f"families {self.families} repeat a family")


@dataclass
class SearchSummary:
    rows_written: int = 0
    rows_skipped: int = 0
    status_counts: dict[str, int] = field(default_factory=dict)
    condition_counts: dict[str, int] = field(default_factory=dict)

    def record(self, row: dict) -> None:
        self.rows_written += 1
        verdict = row["verdict"]
        status = verdict["status"]
        self.status_counts[status] = self.status_counts.get(status, 0) + 1
        if verdict["condition"]:
            tag = verdict["condition"]
            self.condition_counts[tag] = self.condition_counts.get(tag, 0) + 1


def _reduced_pairs(height: int) -> Iterator[tuple[int, int]]:
    """(r, s) of every reduced r/s with 1 <= |r| <= height, 1 <= s <= height.

    Deterministic order: s ascending, then r ascending.  Degenerate base
    points are emitted; filtering is the consumer's concern.
    """
    for s in range(1, height + 1):
        for r in range(-height, height + 1):
            if r != 0 and math.gcd(abs(r), s) == 1:
                yield r, s


def certify_row(task: tuple[int, int, int, int]) -> dict:
    """Compute one self-contained result row; picklable for worker pools."""
    r, s, family, depth = task
    started = time.perf_counter()
    verdict = _certify(r, s, family, depth)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    fields = verdict.to_json_dict()
    # keys in sorted order, as json.dumps writes them
    return {
        "a": fields["a"],
        "family": family,
        "r": r,
        "s": s,
        "timing_ms": round(elapsed_ms, 3),
        "verdict": fields,
    }


def _read_header(path: str | Path, fh) -> dict:
    line = fh.readline()
    if not line:
        raise UsageError(f"{path}: empty results file")
    head = _parse_line(path, 1, line)
    schema = head.get("schema") if isinstance(head, dict) else None
    if schema not in READABLE_SCHEMAS:
        raise UsageError(f"{path}: unexpected schema {schema!r}")
    return head


def _parse_line(path: str | Path, lineno: int, line: str, decode=json.loads):
    try:
        return decode(line)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}:{lineno}: corrupt line: {exc}") from None


def _is_row(row) -> bool:
    # what search's resume and tally read: a, family, status and condition
    if not isinstance(row, dict):
        return False
    family, verdict = row.get("family"), row.get("verdict")
    return (
        isinstance(row.get("a"), str)
        and type(family) is int
        and family in (1, 2)
        and isinstance(verdict, dict)
        and isinstance(verdict.get("status"), str)
        and "condition" in verdict
        and isinstance(verdict["condition"], (str, type(None)))
    )


def load_rows(path: str | Path) -> list[dict]:
    """Read a JSONL results file, validating the schema header.

    The header's depth is optional here, so files written without one
    still load.  An unterminated last line is a row cut short by a crash:
    it is skipped with a note on stderr, as ``search`` drops it before
    resuming.  Any other line that is not JSON, or is JSON but not a row (an
    object with a string ``a``, a ``family`` of 1 or 2 and a ``verdict``
    object holding a string ``status`` and a ``condition`` that is a string
    or null), raises UsageError naming ``path:line``.  Files of every schema
    in READABLE_SCHEMAS load.  Equal float texts (``timing_ms`` repeats
    often) load as one shared float object.
    """
    floats: dict[str, float] = {}
    decode = json.JSONDecoder(
        parse_float=lambda text: floats.setdefault(text, float(text))
    ).decode
    rows = []
    with open_named(path, "r", encoding="utf-8") as fh:
        _read_header(path, fh)
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            if not line.endswith("\n"):
                print(f"{path}:{lineno}: skipped an unterminated last line", file=sys.stderr)
                break
            row = _parse_line(path, lineno, line, decode)
            if not _is_row(row):
                raise UsageError(f"{path}:{lineno}: not a result row")
            rows.append(row)
    return rows


def _check_extendable(path: Path, depth: int) -> None:
    with open_named(path, "r", encoding="utf-8") as fh:
        head = _read_header(path, fh)
    if head["schema"] != SCHEMA:
        raise UsageError(
            f"{path}: written with schema {head['schema']}, this run writes {SCHEMA}; "
            "write a new file"
        )
    recorded = head.get("depth")
    if recorded != depth:
        found = "no depth" if recorded is None else f"depth {recorded}"
        raise UsageError(
            f"{path}: header records {found}, this run asks for depth {depth}; "
            "resume at the recorded depth or write a new file"
        )


def _drop_partial_row(path: Path) -> None:
    # Only the last line can lack its newline: rows are flushed one by one.
    # The header has been read whole, so a file without any newline is a
    # header that lost only its own: restore it rather than cut line 1.
    with open(path, "rb+") as fh:
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        end = fh.read().rfind(b"\n") + 1
        if end:
            fh.truncate(end)
        else:
            fh.write(b"\n")


def search(cfg: SearchConfig) -> SearchSummary:
    """Run the sweep, appending to (and resuming from) cfg.out_path.

    An existing file must carry SCHEMA and cfg.depth in its header;
    otherwise it is left unchanged and UsageError is raised.
    """
    out = Path(cfg.out_path)
    summary = SearchSummary()
    done: set[tuple[str, int]] = set()
    if out.exists() and out.stat().st_size > 0:
        _check_extendable(out, cfg.depth)
        _drop_partial_row(out)
        for row in load_rows(out):
            done.add((row["a"], row["family"]))
        mode = "a"
    else:
        mode = "w"

    degenerate = {fam: DEGENERATE[Family(fam)] for fam in cfg.families}
    tasks = []
    for r, s in _reduced_pairs(cfg.height):
        for fam in cfg.families:
            if (r, s) in degenerate[fam]:
                continue
            if done and (str(Fraction(r, s)), fam) in done:
                summary.rows_skipped += 1
                continue
            tasks.append((r, s, fam, cfg.depth))

    with open_named(out, mode, encoding="utf-8", newline="\n") as fh:
        if mode == "w":
            fh.write(json.dumps({"schema": SCHEMA, "depth": cfg.depth}) + "\n")
            fh.flush()
        if cfg.workers == 1:
            results = map(certify_row, tasks)
        else:
            # imported here, so the serial path never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=cfg.workers)
            results = pool.map(certify_row, tasks, chunksize=16)
        try:
            for row in results:
                fh.write(json.dumps(row) + "\n")
                fh.flush()
                summary.record(row)
        finally:
            if cfg.workers > 1:
                # map has submitted every chunk; a failed write must not wait
                # for the rest of the sweep to be computed
                pool.shutdown(cancel_futures=True)
    return summary


def tally(rows: list[dict]) -> dict[tuple[str, str], int]:
    """Per (status, condition) row counts, for reporting."""
    counts: dict[tuple[str, str], int] = {}
    for row in rows:
        verdict = row["verdict"]
        key = (verdict["status"], verdict["condition"] or "-")
        counts[key] = counts.get(key, 0) + 1
    return counts
