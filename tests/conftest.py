"""One BLAS and OpenMP thread for the test run, unless the caller set them.

The dense work left in the package (the LU solve of cayley_power_circulant
and cayley_power's solve and matrix power, the fd engine's step-count
bracket and symmetric eigenvalue solve) is small; on a machine with few cores, more threads only
add start-up and contention.  The thread counts are read when numpy loads,
so this must run before anything imports it.
"""
import os
import sys

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py set its threads"
