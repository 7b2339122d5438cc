"""Test-run header: the numpy version and the BLAS kernel and thread count.

Several pinned digests hold for one OpenBLAS kernel only (ROADMAP item 3):
a run on a CPU where OpenBLAS picks another kernel shows why they fail.
run_tests_on_kernel reruns tests in a child process on a kernel chosen by name.
traced_peak measures a call's peak traced memory for the memory tests.
"""

import ctypes
import glob
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np


def _openblas_call(name: str, restype):
    """The result of numpy's bundled OpenBLAS function name(), None if it cannot be called."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    try:
        fn = getattr(ctypes.CDLL(libs[0]), name)
    except (IndexError, OSError, AttributeError):
        return None
    fn.argtypes, fn.restype = [], restype
    return fn()


def openblas_core() -> str | None:
    """The kernel name numpy's bundled OpenBLAS chose, None if it cannot be read."""
    name = _openblas_call("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return None if name is None else name.decode()


def run_tests_on_kernel(coretype: str, args: list[str]) -> tuple[str, subprocess.CompletedProcess]:
    """Run pytest on args in a child process on OpenBLAS's coretype kernel, set in the
    child's environment only; the kernel name the child read, and the process."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
               PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, pytest, conftest; print(conftest.openblas_core()); "
            f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *{args!r}]))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root / "tests", env=env,
                          capture_output=True, text=True, timeout=300)
    return proc.stdout.partition("\n")[0], proc


def traced_peak(fn, *args) -> int:
    """The peak bytes tracemalloc counts while fn(*args) runs, arguments made before."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pytest_report_header(config):
    threads = _openblas_call("scipy_openblas_get_num_threads64_", ctypes.c_int)
    return (f"numpy {np.__version__}, BLAS kernel {openblas_core() or 'unknown'}, "
            f"BLAS threads {'unknown' if threads is None else threads}")
