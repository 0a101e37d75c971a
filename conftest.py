"""Test-session set-up shared by ``tests/`` and ``perfbench/``.

One BLAS/OpenMP thread per process unless the caller set a count, as
``perfbench/run.py`` pins it: pytest loads this file before any test
module imports numpy, and at default threading the small decompositions
the suites run in are slower and erratic on a busy machine.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
