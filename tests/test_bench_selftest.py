"""The benchmark's own self-test runs against the current program.

``bench/selftest.py`` checks the dataset-bulk generated truth, the goldens
and the verdict rule; running it here means a program change that breaks
the benchmark's output checks fails the test suite too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    child = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert child.returncode == 0, child.stdout + child.stderr
