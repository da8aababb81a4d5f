"""Every row the benchmark can draw keeps its digest in ``benchmarks/reference.json``.

``benchmarks/run.py --record-reference`` recomputes all 2242 rows (the
sweep at height 30 and the deep set) with this checkout, and the digests
and the workload lists must equal the checked-in ones.  A digest covers a
row without its ``timing_ms``, so a new row or detail key fails here too.
The scripts run from a copy beside a link to this checkout's ``src``, so
the sweep file they write lands in the test's own directory.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_rows_match_the_checked_in_reference(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for script in (ROOT / "benchmarks").glob("*.py"):
        shutil.copy(script, tmp_path / "benchmarks")
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    fresh = tmp_path / "reference.json"
    argv = [sys.executable, "benchmarks/run.py", "--record-reference", "--reference", str(fresh)]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(fresh.read_text(encoding="utf-8"))
    checked_in = json.loads((ROOT / "benchmarks" / "reference.json").read_text(encoding="utf-8"))
    assert len(checked_in["digests"]) == 2242
    assert recorded["workloads"] == checked_in["workloads"]
    differing = recorded["digests"].items() ^ checked_in["digests"].items()
    changed = sorted({key for key, _ in differing})
    assert not changed, f"{len(changed)} rows changed, the first {changed[:5]}"
