"""Pins the BLAS and OpenMP thread counts to one before numpy first loads.

At the relaxation sizes the tests solve, a second BLAS thread costs time
instead of saving it, and one thread gives the numerics the benchmark
measures (sweepbench/run.py pins the same variables).  This file sits at
the root because pytest imports sweepbench/test_sweepbench.py, and numpy
with it, before tests/conftest.py.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def pytest_configure(config):
    # set here rather than in pyproject.toml: pytest resolves that filter's
    # class, importing scipy and numpy, before it loads this file
    config.addinivalue_line("filterwarnings", "error::scipy.linalg.LinAlgWarning")
    # an overflow or invalid value inside a solve fails the test that met it
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")
    # so does a call that a numpy or scipy release is about to change
    for category in ("DeprecationWarning", "PendingDeprecationWarning", "FutureWarning"):
        config.addinivalue_line("filterwarnings", f"error::{category}")
