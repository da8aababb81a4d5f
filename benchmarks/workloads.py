"""Workload definitions, input generation and the untraced passes.

Every workload is a list of rows, one per (base point, family, depth), run as
one *pass*.  A run repeats passes until its time is up.  The library only
ever sees the generated base points and the search configuration; the seed
stays in the benchmark.

Correctness is checked per row against ``reference.json``: each row is
rendered the way ``arborist search`` writes it (``timing_ms`` stripped) and
its SHA-256 prefix compared with the digest recorded at the commit that
defined the benchmark.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

# sweep: the ROADMAP's end-to-end point, every base point of height <= 30 in
# both families.  Traced runs add a pass with POOL_WORKERS workers.
SWEEP_HEIGHT = 30
SWEEP_DEPTH = 10
SMOKE_SWEEP_HEIGHT = 4
POOL_WORKERS = 2

# deep: a fixed orbit set at depths where r_N has 5k-24k digits.  Half the
# pairs take the audit path (ProvenSurjective), half the fallback path.
DEEP_PAIRS = (
    ("13/29", 1),  # ProvenSurjective T1.1-1
    ("13/29", 2),  # IndependentToDepth
    ("-5/17", 1),  # ProvenSurjective T1.1-1
    ("-5/17", 2),  # IndependentToDepth
    ("7/23", 1),  # ProvenSurjective T1.1-1
    ("2/27", 2),  # ProvenSurjective T1.2-3
    ("3/19", 1),  # IndependentToDepth
    ("11/27", 2),  # IndependentToDepth
)
DEEP_DEPTHS = (12, 13, 14)

WORKLOADS = ("sweep", "deep")

LIBRARY_MODULES = ("critorbit", "dynamics", "exactnum", "independence", "search", "verdict")


def load_library(src: Path) -> SimpleNamespace:
    """Import a fresh copy of the library's modules from ``src``.

    Dropping the cached modules first makes the import cost part of every
    set-up, so work a later change moves to import time shows in setup_s.
    """
    for name in [m for m in sys.modules if m == "arborist" or m.startswith("arborist.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    root = importlib.import_module("arborist")
    if Path(root.__file__).resolve().parent != (src / "arborist").resolve():
        raise ImportError(f"arborist imported from {root.__file__}, not {src}")
    return SimpleNamespace(
        **{name: importlib.import_module(f"arborist.{name}") for name in LIBRARY_MODULES}
    )


def row_key(family: int, a: Fraction | str, depth: int) -> str:
    return f"{family}:{a}:{depth}"


def parse_key(key: str) -> tuple[int, Fraction, int]:
    family, a, depth = key.split(":")
    return int(family), Fraction(a), int(depth)


def row_digest(row: dict) -> str:
    """Digest of a result row as ``arborist search`` writes it, minus timing."""
    body = {k: v for k, v in row.items() if k != "timing_ms"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()[:16]


def certify_row_dict(a: Fraction, family: int, verdict) -> dict:
    """The row ``arborist search`` writes for one verdict, without timing."""
    return {
        "a": str(a),
        "family": family,
        "r": a.numerator,
        "s": a.denominator,
        "verdict": verdict.to_json_dict(),
    }


@dataclass
class Inputs:
    """What one pass runs: search settings or an explicit list of rows."""

    keys: list[str]  # expected rows, in the order they are produced
    rows: list[tuple[Fraction, int, int]]  # (a, family, depth) per key
    height: int = 0  # search workloads only

    @property
    def is_search(self) -> bool:
        return self.height > 0


def make_inputs(workload: str, seed: int, reference: dict, smoke: bool) -> Inputs:
    """Build one workload's inputs from the seed and the reference key lists."""
    rng = random.Random(seed)
    keys = reference["workloads"][workload]
    height = 0
    if workload == "sweep":
        # search fixes the row order itself; the seed has nothing to vary.
        height = SMOKE_SWEEP_HEIGHT if smoke else SWEEP_HEIGHT
        chosen = [k for k in keys if _height(parse_key(k)[1]) <= height]
    elif workload == "deep":
        chosen = list(keys)
        if smoke:
            chosen = [k for k in chosen if parse_key(k)[2] == DEEP_DEPTHS[0]][:2]
        rng.shuffle(chosen)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rows = [(a, family, depth) for family, a, depth in map(parse_key, chosen)]
    return Inputs(chosen, rows, height=height)


def _height(a: Fraction) -> int:
    return max(abs(a.numerator), a.denominator)


@dataclass
class PassResult:
    wall_s: float
    latencies_ms: list[float]
    attempted: int
    failed: int
    rows: list[dict | None] = field(default_factory=list)  # None: the row raised


def search_pass(lib: SimpleNamespace, inputs: Inputs, out: Path, workers: int) -> PassResult:
    """One ``search()`` into a fresh results file, read back with load_rows."""
    out.unlink(missing_ok=True)
    cfg = lib.search.SearchConfig(
        height=inputs.height, out_path=out, depth=SWEEP_DEPTH, workers=workers
    )
    attempted = len(inputs.keys)
    started = time.perf_counter()
    try:
        lib.search.search(cfg)
        wall = time.perf_counter() - started
        rows = lib.search.load_rows(out)
    except Exception as exc:  # a failed pass is a measured failure, not a crash
        print(f"search failed: {exc!r}", file=sys.stderr)
        return PassResult(time.perf_counter() - started, [], attempted, attempted)
    return PassResult(wall, [row["timing_ms"] for row in rows], attempted, 0, rows)


def certify_pass(lib: SimpleNamespace, inputs: Inputs) -> PassResult:
    """``certify`` on every row, each call timed on its own."""
    certify = lib.verdict.certify
    latencies, rows, failed = [], [], 0
    started = time.perf_counter()
    for a, family, depth in inputs.rows:
        t0 = time.perf_counter()
        try:
            verdict = certify(a, family, depth=depth)
        except Exception as exc:
            print(f"certify({a}, {family}, {depth}) failed: {exc!r}", file=sys.stderr)
            failed += 1
            rows.append(None)
            continue
        latencies.append((time.perf_counter() - t0) * 1000.0)
        rows.append((a, family, verdict))
    wall = time.perf_counter() - started
    rendered = [certify_row_dict(*r) if r else None for r in rows]
    return PassResult(wall, latencies, len(inputs.rows), failed, rendered)


def count_mismatches(result: PassResult, inputs: Inputs, digests: dict) -> int:
    """Rows that are missing, out of order or differ from the reference.

    ``result.rows`` lines up with ``inputs.keys``; a row that already failed
    with an exception is None there and is not counted twice.
    """
    if result.failed == result.attempted:
        return 0
    bad = abs(len(result.rows) - len(inputs.keys))
    for key, row in zip(inputs.keys, result.rows):
        if row is None:
            continue
        family, a, _ = parse_key(key)
        if (row["family"], row["a"]) != (family, str(a)) or row_digest(row) != digests.get(key):
            bad += 1
    return min(bad, result.attempted - result.failed)

