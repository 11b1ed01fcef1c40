"""Shared pytest configuration.

Property tests run under a hypothesis profile without a per-example
deadline (timing on small shared machines varies too much for one) and
with derandomized example generation, so every run checks the same cases.
The `dense_lift` fixture builds the matrix-level lift's dense
superoperator, the oracle for the lift's exact kernel.
"""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("groupwalk", deadline=None, derandomize=True)
settings.load_profile("groupwalk")


def _dense_lift(lift):
    """The dense n^2 x n^2 superoperator of an OperatorOnMatrices on
    row-major vectorized arrays: row i*n + j holds weight w at column
    perm[i]*n + perm[j] for each term (distinct terms never share an
    entry).  The library builds no such matrix; tests use it as the oracle."""
    size = lift.group.order ** 2
    mat = np.zeros((size, size))
    for w, cols in lift.terms:
        mat[np.arange(size), cols] += float(w)
    return mat


@pytest.fixture(scope="session")
def dense_lift():
    return _dense_lift
