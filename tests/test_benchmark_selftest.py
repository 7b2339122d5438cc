"""The benchmark's own self-test (perfbench/selftest.py) as a tier-1 check.

It shows that the benchmark's frame check catches every flipped frame
byte under the current codec, that a changed simulator CSV digit is
caught, and that bad invocations are refused.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4 and all(line.startswith("PASS ") for line in lines), proc.stdout
