"""Smoke tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q benchmarks/test_benchmark.py

Each test runs ``run.py --smoke``, which uses tiny inputs drawn from the same
reference as the full workloads.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import make_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCRATCH = ROOT / ".bench_build" / "arborist-tests"


def run(*extra: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    cmd = [sys.executable, str(script), "--seed", "5", "--seconds", "0.5", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = run("--workload", workload, "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        printed = [line.split() for line in lines[:-1] if not line.startswith("#")]
        assert [workload, name] in [fields[:2] for fields in printed]
        assert [name, unit] in [[f[1], f[3]] for f in printed if len(f) >= 4]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


@pytest.mark.parametrize("workload", ["sweep", "deep"])
def test_tampered_reference_digest_is_a_failure(workload):
    reference = json.loads((BENCH / "reference.json").read_text())
    key = make_inputs(workload, 5, reference, smoke=True).keys[0]
    reference["digests"][key] = "0" * 16
    SCRATCH.mkdir(parents=True, exist_ok=True)
    tampered = SCRATCH / f"tampered-{workload}.json"
    tampered.write_text(json.dumps(reference))
    proc = run("--workload", workload, "--trace", "0", "--smoke", "--reference", str(tampered))
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]


def test_all_runs_every_workload():
    proc = run("--workload", "all", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"]:
            assert f"{workload}.{metric['name']}" in result["metrics"]


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path,
               script=tmp_path / "benchmarks" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
