"""Test-run header: the numpy version and the BLAS kernel and thread count.

Several pinned digests hold for one OpenBLAS kernel only (ROADMAP item 3):
a run on a CPU where OpenBLAS picks another kernel shows why they fail.
"""

import ctypes
import glob
import os

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


def pytest_report_header(config):
    threads = _openblas_call("scipy_openblas_get_num_threads64_", ctypes.c_int)
    return (f"numpy {np.__version__}, BLAS kernel {openblas_core() or 'unknown'}, "
            f"BLAS threads {'unknown' if threads is None else threads}")
