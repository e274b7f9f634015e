"""Pin BLAS to one thread before numpy loads, as the CLI does.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy first imports it, and
the test modules import numpy before bmbodies (whose own pin would then
come too late), so the suite sets the variables here, ahead of them.
"""
import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin BLAS "
                       "to one thread")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
