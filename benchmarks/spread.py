"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workload deep --runs 10 [--seconds 20] [--json out.json]

For every end-to-end metric this prints the median of the runs' values and
the distance between the first and third quartile (statistics.quantiles,
n=4) as a share of that median, next to the metric's bound from
BENCHMARK.json.  Runs are sequential, one seed each (1..runs, or starting
at --first-seed).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--json", type=Path, help="also write the values and summary here")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        result = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, correct={result['correct']}")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in
                                          ((k, vs[-1]) for k, vs in values.items())), flush=True)

    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of the bound"
        print(f"{args.workload:9s} {name:16s} median={median:<12.6g} spread={spread:.4f} "
              f"bound={bound}{flag}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                                         "values": values, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
