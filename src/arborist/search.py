"""Height-bounded certification sweep with resumable JSONL output.

Rows are independent (one per admissible base point and family), so the
sweep is an order-preserving map over the enumeration: worker count never
changes row content, and an existing output file is extended rather than
recomputed.  The base points are the reduced pairs (r, s) of
``_reduced_pairs``, the one enumeration; each becomes the ``QuadMap`` that
checks it, which goes into the certifier's one entry, ``verdict._certify``
(``SearchConfig`` has checked the depth), and each row, verdict included,
is built with its keys in sorted order, as ``json.dumps`` writes them.

One streaming reader, ``_Rows``, reads a results file for ``load_rows``,
``report`` and the resume, which keeps only the integer (r, s, family) keys
of the rows, so every row must carry ``r`` and ``s`` as ints; a task is
skipped by its own (r, s, family), without building its text.  ``_Rows``
accepts no schema but SCHEMA, and a file is extended only at the depth its
header records.
A resume checks the header and every complete row before it changes the
file, so a refused run leaves it as it was; only then does it drop a row
cut short by a crash (rows are flushed one by one, so only the last line
can be cut) or give a header that lost only its newline its newline back.
"""

from __future__ import annotations

import json
import math
import os
import signal
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .critorbit import DEFAULT_DEPTH, check_depth
from .dynamics import DEGENERATE, QuadMap, is_family
from .errors import UsageError, checked, open_named
from .verdict import _certify

SCHEMA = "arborist-v2"
#: base points per task sent to a worker process
_CHUNK = 16


@checked
class SearchConfig(NamedTuple):
    height: int
    out_path: str | Path
    families: tuple[int, ...] = (1, 2)
    depth: int = DEFAULT_DEPTH
    workers: int = 1

    def _check(self) -> None:
        if self.height < 1:
            raise UsageError("height must be positive")
        if self.workers < 1:
            raise UsageError("worker count must be positive")
        if not self.families or not all(map(is_family, self.families)):
            raise UsageError("families must be a nonempty subset of {1, 2}")
        if len(set(self.families)) != len(self.families):
            raise UsageError(f"families {self.families} repeat a family")
        check_depth(self.height, self.height, self.depth)  # |r|, s <= height


class SearchSummary(NamedTuple):
    """What one sweep did: the rows it skipped as already present, and the
    rows it wrote counted per (status, condition), "-" for no condition."""

    rows_skipped: int
    counts: Counter[tuple[str, str]]

    @property
    def rows_written(self) -> int:
        return self.counts.total()


def _row_key(row: dict) -> tuple[str, str]:
    verdict = row["verdict"]
    return verdict["status"], verdict["condition"] or "-"


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
    verdict = _certify(QuadMap(family, r, s), depth)
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


class _Rows:
    """One streaming pass over a results file opened in binary.

    Construction reads and checks the header line; iteration yields every
    complete row, raising UsageError as :func:`iter_rows` describes.  Only the
    last line can lack its newline, since rows are flushed one by one, so
    iteration stops there: ``cut`` is the byte offset where that line starts
    and ``lineno`` its number.  ``cut`` is 0 when the header lost only its
    newline, and None when the file ends with one.
    """

    def __init__(self, path: str | Path, fh) -> None:
        self.path, self._fh, self.lineno = path, fh, 1
        floats: dict[str, float] = {}
        self._decode = json.JSONDecoder(
            parse_float=lambda text: floats.setdefault(text, float(text))
        ).decode
        line = fh.readline()
        if not line:
            raise UsageError(f"{path}: empty results file")
        self.header = self._parse(line)
        schema = self.header.get("schema") if isinstance(self.header, dict) else None
        if schema != SCHEMA:
            raise UsageError(f"{path}: unexpected schema {schema!r}")
        self.cut: int | None = None if line.endswith(b"\n") else 0
        self._offset = len(line)  # bytes read: a pipe cannot tell() them

    def _parse(self, line: bytes):
        try:
            return self._decode(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise UsageError(f"{self.path}:{self.lineno}: corrupt line: {exc}") from None

    def __iter__(self) -> Iterator[dict]:
        for line in self._fh:
            self.lineno += 1
            if not line.endswith(b"\n"):
                self.cut = self._offset
                return
            self._offset += len(line)
            if line.strip():
                row = self._parse(line)
                if not _is_row(row):
                    raise UsageError(f"{self.path}:{self.lineno}: not a result row")
                yield row


def _is_row(row) -> bool:
    # what the resume reads, its keys r, s and family (ints), what tally
    # reads, status and condition, and the row's text a
    if not isinstance(row, dict):
        return False
    verdict = row.get("verdict")
    return (
        isinstance(row.get("a"), str)
        and type(row.get("r")) is int
        and type(row.get("s")) is int
        and is_family(row.get("family"))
        and isinstance(verdict, dict)
        and isinstance(verdict.get("status"), str)
        and "condition" in verdict
        and isinstance(verdict["condition"], (str, type(None)))
    )


def iter_rows(path: str | Path) -> Iterator[dict]:
    """Stream the rows of a JSONL results file, validating the schema header.

    The header's depth is optional here, so files written without one
    still load.  An unterminated last line is a row cut short by a crash:
    it is skipped with a note on stderr, as ``search`` drops it before
    resuming.  Any other line that is not UTF-8 JSON, or is JSON but not a
    row (an object with a string ``a``, ints ``r`` and ``s``, a ``family``
    of 1 or 2 and a ``verdict`` object holding a string ``status`` and a
    ``condition`` that is a string or null), raises UsageError naming
    ``path:line``; ``r``, ``s`` and ``family`` are the resume's keys.  Equal
    float texts load as one shared float object.
    """
    with open_named(path, "rb") as fh:
        rows = _Rows(path, fh)
        yield from rows
    if rows.cut:
        print(f"{path}:{rows.lineno}: skipped an unterminated last line", file=sys.stderr)


def load_rows(path: str | Path) -> list[dict]:
    """The rows of :func:`iter_rows`, as a list."""
    return list(iter_rows(path))


def search(cfg: SearchConfig) -> SearchSummary:
    """Run the sweep, appending to (and resuming from) cfg.out_path.

    An existing file must record cfg.depth in its header and hold only rows;
    otherwise it is left unchanged and UsageError is raised.
    """
    out = Path(cfg.out_path)
    skipped = 0
    done: set[tuple[int, int, int]] = set()
    mode, cut = "w", None
    if out.exists() and out.stat().st_size > 0:
        with open_named(out, "rb") as fh:
            rows = _Rows(out, fh)
            recorded = rows.header.get("depth")
            if recorded != cfg.depth:
                found = "no depth" if recorded is None else f"depth {recorded}"
                raise UsageError(
                    f"{out}: header records {found}, this run asks for depth {cfg.depth}; "
                    "resume at the recorded depth or write a new file"
                )
            done = {(row["r"], row["s"], row["family"]) for row in rows}
        mode, cut = "a", rows.cut

    tasks = []
    for r, s in _reduced_pairs(cfg.height):
        for fam in cfg.families:
            if (r, s) in DEGENERATE[fam]:
                continue
            if (r, s, fam) in done:
                skipped += 1
                continue
            tasks.append((r, s, fam, cfg.depth))

    with open_named(out, mode, encoding="utf-8", newline="\n") as fh:
        # a resumed file has passed every check; only now is it changed
        if mode == "w":
            fh.write(json.dumps({"schema": SCHEMA, "depth": cfg.depth}) + "\n")
        elif cut == 0:  # line 1 is never cut: the header gets its newline back
            fh.write("\n")
        elif cut:
            fh.truncate(cut)
        fh.flush()
        # a fork starts every worker at once: one per chunk and per CPU at
        # most, and a run of one chunk or none computes here
        workers = min(cfg.workers, -(-len(tasks) // _CHUNK), os.cpu_count() or 1)
        if workers <= 1:
            results = map(certify_row, tasks)
        else:
            # imported here, so the serial path never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # Ctrl-C reaches the whole process group; only this process
            # stops, and the finally below cancels the queued chunks
            sigint = (signal.SIGINT, signal.SIG_IGN)
            pool = ProcessPoolExecutor(workers, initializer=signal.signal, initargs=sigint)
            results = pool.map(certify_row, tasks, chunksize=_CHUNK)
        counts: Counter[tuple[str, str]] = Counter()
        try:
            for row in results:
                fh.write(json.dumps(row) + "\n")
                fh.flush()
                counts[_row_key(row)] += 1
        finally:
            if workers > 1:
                # map has submitted every chunk; a failed write must not wait
                # for the rest of the sweep to be computed
                pool.shutdown(cancel_futures=True)
    return SearchSummary(skipped, counts)


def tally(rows: Iterable[dict]) -> Counter[tuple[str, str]]:
    """Per (status, condition) row counts, for reporting, as search counts them."""
    return Counter(map(_row_key, rows))
