"""``tools/ab_inprocess.py``: the repository timed against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_repository_against_itself_gives_equal_outputs():
    cmd = [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), str(ROOT), str(ROOT), "--workload", "kernels", "--ops", "4"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "kernels: 4 operations a side, seed 1"
    assert lines[1].startswith("time ratio change/parent per operation: median ")
    assert lines[2].startswith("change faster in ") and lines[2].endswith(" of 4 operations")
    assert lines[-1] == "outputs that differ: 0; failed operations: parent 0, change 0"
