"""Tier-1 runs BLAS on the thread count ``tests/conftest.py`` pins."""

import ctypes
import glob
import os

import numpy as np
import pytest


def openblas_threads():
    """The thread count numpy's bundled OpenBLAS runs, or None when
    numpy bundles none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            if hasattr(lib, name):
                get_num_threads = getattr(lib, name)
                get_num_threads.argtypes = []
                get_num_threads.restype = ctypes.c_int
                return get_num_threads()
    return None


def test_openblas_runs_the_pinned_thread_count():
    threads = openblas_threads()
    if threads is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    assert threads == int(os.environ["OPENBLAS_NUM_THREADS"])
