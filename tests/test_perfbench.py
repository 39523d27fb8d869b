"""The benchmark's traced children pass their own checks: each child's outputs match
perfbench/reference/, and its trace counts (one call per criterion, one
conservation_report per criterion-9 seed, one instantaneous_rates per CSV row) match
what those outputs imply.  Only reads perfbench/: no spans, no reference written."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["reversal-3k", "collective-d32", "verify"])
def test_traced_child_is_correct(workload):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"),
         "--workload", workload, "--spawned", "0", "--trace"],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["problems"] == [], result["problems"]
