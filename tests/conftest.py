"""Shared pytest configuration.

Property tests run under a hypothesis profile without a per-example
deadline (timing on small shared machines varies too much for one) and
with derandomized example generation, so every run checks the same cases.
The `dense_lift` fixture builds the matrix-level lift's dense
superoperator, the oracle for the lift's exact kernel, and `dense_eigen`
solves a convolution operator by LAPACK on its dense matrix, the oracle
for the block spectrum.
"""

import numpy as np
import pytest
from hypothesis import settings

from groupwalk.operators import _gather

settings.register_profile("groupwalk", deadline=None, derandomize=True)
settings.load_profile("groupwalk")


def _dense_lift(lift):
    """The dense n^2 x n^2 superoperator of an OperatorOnMatrices on
    row-major vectorized arrays: row i*n + j holds weight w at column
    perm[i]*n + perm[j] for each term of its lifted walk (distinct terms
    never share an entry).  The library builds no such matrix; tests use it
    as the oracle."""
    size = lift.group.order ** 2
    mat = np.zeros((size, size))
    for w, cols in zip(lift.walk.weights, lift.walk.perms):
        mat[np.arange(size), cols] += w
    return mat


@pytest.fixture(scope="session")
def dense_lift():
    return _dense_lift


def _dense_eigen(op):
    """(eigenvalues, residuals) of a convolution operator in the form of
    `ConvolutionOperator.eigenvalues`, from LAPACK on the dense n x n
    matrix: eigh for a symmetric measure, eig otherwise, each residual
    |P v - lambda v| / |v| gathered through the operator's walk.  The library
    solves one block per character of an abelian subgroup instead."""
    a = op.as_array()
    if op.symmetric:
        eigvals, eigvecs = np.linalg.eigh(a)
        eigvals = eigvals.astype(complex)
    else:
        eigvals, eigvecs = np.linalg.eig(a)
    residuals = tuple(
        float(np.linalg.norm(_gather(op.stencil(), v) - lam * v) / np.linalg.norm(v))
        for lam, v in zip(eigvals, eigvecs.T)
    )
    eigvals.flags.writeable = False
    return eigvals, residuals


@pytest.fixture(scope="session")
def dense_eigen():
    return _dense_eigen
