"""arborist benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  Each run sets up several times and reports the median
set-up time, then repeats passes of the workload until ``--seconds`` have
elapsed (and, outside --smoke, until at least MIN_SAMPLES rows are timed).
Every row is checked against ``reference.json``; any exception or mismatch
makes ``correct`` false and the exit code 1.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans and a results file with the run's metadata go to
``.bench_build/arborist/``.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "arborist"
REFERENCE = BENCH / "reference.json"

SETUP_REPEATS = 6  # at the start; one more before every later pass
MIN_SAMPLES = 100  # latency_ms_p90 needs at least 10 samples beyond it
HARD_STOP_S = 120.0  # no new pass starts after this, so a run ends within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_frac", "_efficiency")):
        return "ratio"
    return "digits" if "digits" in name else "count"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--reference", type=Path, default=REFERENCE, help="reference digests to check against")
    p.add_argument(
        "--record-reference", action="store_true",
        help="recompute every reference row with this checkout and write --reference",
    )
    args = p.parse_args(argv)
    if args.workload is None and not args.record_reference:
        p.error("--workload is required")
    return args


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "commit": git_commit(),
    }


def percentile_90(samples: list[float]) -> tuple[float, int]:
    """p90 and the number of samples beyond it."""
    if len(samples) < 2:
        value = samples[0] if samples else 0.0
        return value, 0
    value = statistics.quantiles(samples, n=10)[8]
    return value, sum(1 for x in samples if x > value)


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak of its finished children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def set_up(args):
    """Import the library afresh, load the reference and build the inputs."""
    lib = workloads.load_library(SRC)
    reference = json.loads(args.reference.read_text())
    inputs = workloads.make_inputs(args.workload, args.seed, reference, args.smoke)
    OUT.mkdir(parents=True, exist_ok=True)
    return lib, reference, inputs


def run_one(args) -> int:
    times = []

    def timed_set_up():
        gc.collect()  # garbage left by the previous set-up is not this one's cost
        started = time.perf_counter()
        prepared = set_up(args)
        times.append(time.perf_counter() - started)
        return prepared

    for _ in range(SETUP_REPEATS):
        lib, reference, inputs = timed_set_up()
    digests = reference["digests"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = OUT / f"rows-{tag}.jsonl"
    min_samples = 0 if args.smoke or args.trace else MIN_SAMPLES

    def untraced(workers: int = 1):
        if inputs.is_search:
            result = workloads.search_pass(lib, inputs, out, workers)
        else:
            result = workloads.certify_pass(lib, inputs)
        result.failed += workloads.count_mismatches(result, inputs, digests)
        result.rows = []  # checked; dropping them keeps memory flat across passes
        return result

    passes, pooled, traced, layer_metrics = [], [], [], []
    started = time.perf_counter()
    while True:
        if passes:  # one more set-up per pass spreads them over the run
            lib, _, inputs = timed_set_up()
        passes.append(untraced())
        if args.trace:
            if inputs.is_search:
                pooled.append(untraced(workloads.POOL_WORKERS))
            result, metrics, rec, origin = tracing.traced_pass(
                lib, inputs, out, orbit_report=args.workload == "deep"
            )
            result.failed += workloads.count_mismatches(result, inputs, digests)
            result.rows = []
            traced.append(result)
            layer_metrics.append(metrics)
        elapsed = time.perf_counter() - started
        samples = sum(len(p.latencies_ms) for p in passes)
        if elapsed >= HARD_STOP_S or (elapsed >= args.seconds and samples >= min_samples):
            break

    everything = passes + pooled + traced
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    walls = [p.wall_s for p in passes]
    latencies = [x for p in passes for x in p.latencies_ms] or [0.0]
    p90, beyond = percentile_90(latencies)
    rows = len(inputs.keys)
    metrics: dict[str, float]
    if args.trace:
        metrics = tracing.median_metrics(layer_metrics)
        base = statistics.median(walls)
        metrics["trace.overhead_frac"] = statistics.median(p.wall_s for p in traced) / base - 1.0
        metrics["search.pool_efficiency"] = (
            base / (workloads.POOL_WORKERS * statistics.median(p.wall_s for p in pooled))
            if pooled else 0.0
        )
        units = {name: per_layer_unit(name) for name in metrics}
        rec.write(OUT / f"spans-{tag}.jsonl", origin)
    else:
        metrics = {
            "setup_s": statistics.median(times),
            "wall_s": statistics.median(walls),
            "rows_per_s": statistics.median(rows / w for w in walls),
            "latency_ms_p50": statistics.median(latencies),
            "latency_ms_p90": p90,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = dict(END_TO_END)

    meta = metadata(args)
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"# passes={len(passes)} rows_per_pass={rows} latency_samples={len(latencies)} "
          f"beyond_p90={beyond}")
    print("# pass_walls_s=" + ",".join(f"{w:.4f}" for w in walls))
    for name in sorted(metrics):
        print(f"{args.workload:9s} {name:36s} {metrics[name]:>16.6f} {units[name]}")
    fail_frac = failed / attempted
    print(f"{args.workload:9s} {'fail_frac':36s} {fail_frac:>16.6f} ratio ({failed} of {attempted} rows)")
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"meta": meta, "fail_frac": fail_frac, **result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS and set-up stay separate."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--reference", str(args.reference)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        status = status or proc.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def record_reference(args) -> int:
    """Write the digest of every row any workload can draw, at this checkout."""
    lib = workloads.load_library(SRC)
    OUT.mkdir(parents=True, exist_ok=True)
    out = OUT / "reference-sweep.jsonl"
    out.unlink(missing_ok=True)
    lib.search.search(lib.search.SearchConfig(
        height=workloads.SWEEP_HEIGHT, out_path=out, depth=workloads.SWEEP_DEPTH, workers=1
    ))
    keys = {"sweep": [], "deep": []}
    digests = {}
    for row in lib.search.load_rows(out):
        key = workloads.row_key(row["family"], row["a"], workloads.SWEEP_DEPTH)
        keys["sweep"].append(key)
        digests[key] = workloads.row_digest(row)
    keys["deep"] = [
        workloads.row_key(family, a, depth)
        for a, family in workloads.DEEP_PAIRS
        for depth in workloads.DEEP_DEPTHS
    ]
    for key in keys["deep"]:
        family, a, depth = workloads.parse_key(key)
        verdict = lib.verdict.certify(a, family, depth=depth)
        digests[key] = workloads.row_digest(workloads.certify_row_dict(a, family, verdict))
    reference = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "digest": "sha256 of json.dumps(row without timing_ms, sort_keys=True), first 16 hex digits",
        "workloads": keys,
        "digests": digests,
    }
    args.reference.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {args.reference}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "arborist" / "__init__.py").is_file():
        print(f"benchmark: no library at {SRC / 'arborist'}; run inside a full checkout",
              file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
