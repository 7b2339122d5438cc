"""The benchmark's own checks as tier-1 tests.

The self-test (perfbench/selftest.py) shows that the benchmark's frame
check catches every flipped frame byte under the current codec, that a
changed simulator CSV digit is caught, and that bad invocations are
refused. The golden check recomputes the benchmark's seeded digests and
compares them with perfbench/golden.json. The tracer check wraps every
layer the benchmark measures, so a library function the tracer looks up
by name cannot vanish unnoticed.
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


def test_benchmark_golden_digests_match():
    # the benchmark's correctness gate: seeded workload outputs and the
    # fixed frame grid must hash to the committed perfbench/golden.json
    code = ("import sys; sys.path.insert(0, 'perfbench'); import golden, run; "
            "run.import_library(); sys.exit(golden.record() != golden.load())")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_tracer_installs_and_restores():
    # install_layers looks each traced function up by name in its module
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run, tracing; "
            "run.import_library(); t = tracing.Tracer(); tracing.install_layers(t); "
            "t.restore()")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
