"""The README example and the experiment scripts run as documented."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "run_ratio_sweep": ["--sizes", "2", "4"],
    "run_reversal_demo": [],
    "run_otto_comparison": [],
}


def test_readme_example(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert float(capsys.readouterr().out) > 0  # the example's coherence generation


@pytest.mark.parametrize("name", list(SCRIPTS))
def test_script_exits_zero(name):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py"), *SCRIPTS[name]],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
