"""Exact and floating linear-algebra kernels shared across the package.

The Fraction routines (RREF, nullspace, solve, matmul) are the tests'
elimination oracles with no caller in the package, kept here because the
bench tracer wraps them by name.  The floating routines are thin wrappers
over numpy decompositions, and expm is a Padé approximant over numpy
products and one solve.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "ComputationError",
    "rational_rref",
    "rational_nullspace",
    "rational_solve",
    "rational_matmul",
    "operator_norm",
    "float_nullspace",
    "expm",
]


class ComputationError(RuntimeError):
    """A numerical routine failed; carries the failing context."""


def rational_rref(matrix):
    """Reduced row echelon form over Fraction.  Returns (rref, pivot_cols)."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, nrows) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = Fraction(1, 1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(nrows):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rows, pivots


def rational_nullspace(matrix):
    """Basis of the right nullspace of a Fraction matrix.

    One vector per free column, in increasing column order: the vector has a
    1 at its free column and the pivot entries back-substituted from
    rational_rref, which makes the output canonical.
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    rref, pivots = rational_rref(matrix)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, col in enumerate(pivots):
            vec[col] = -rref[row][free]
        basis.append(vec)
    return basis


def rational_solve(matrix, rhs):
    """Solve M x = rhs exactly.  Returns one solution (free vars zero) or
    None when the system is inconsistent."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    augmented = [list(row) + [b] for row, b in zip(matrix, rhs)]
    rref, pivots = rational_rref(augmented)
    for row in rref:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    solution = [Fraction(0)] * ncols
    for row_idx, pivot_col in enumerate(pivots):
        if pivot_col < ncols:
            solution[pivot_col] = rref[row_idx][ncols]
    return solution


def rational_matmul(a, b):
    """Exact product of two Fraction matrices."""
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    bt = [[b[r][c] for r in range(k)] for c in range(m)]
    return [[sum(arow[i] * bcol[i] for i in range(k)) for bcol in bt] for arow in a]


def operator_norm(matrix):
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(matrix, dtype=complex), 2))


def float_nullspace(matrix, tol=1e-9):
    """Orthonormal basis (columns) of the numerical nullspace via SVD."""
    a = np.asarray(matrix)
    if a.size == 0:
        return np.zeros((0, 0))
    _, s, vh = np.linalg.svd(a)
    ncols = a.shape[1]
    null_mask = np.zeros(ncols, dtype=bool)
    null_mask[len(s):] = True  # wide matrices: columns beyond rank
    null_mask[: len(s)] = s <= tol
    return vh[null_mask].conj().T


# Higham (2005), Table 2.3 and eq. (2.11): the 1-norm bound theta_m under
# which the [m/m] Padé approximant of exp is accurate to double precision,
# and its coefficients b_0 .. b_m.
_PADE = {
    3: (1.495585217958292e-2, (120, 60, 12, 1)),
    5: (2.539398330063230e-1, (30240, 15120, 3360, 420, 30, 1)),
    7: (9.504178996162932e-1, (17297280, 8648640, 1995840, 277200, 25200, 1512, 56, 1)),
    9: (2.097847961257068e0, (17643225600, 8821612800, 2075673600, 302702400, 30270240,
                              2162160, 110880, 3960, 90, 1)),
    13: (5.371920351148152e0, (64764752532480000, 32382376266240000, 7771770303897600,
                               1187353796428800, 129060195264000, 10559470521600,
                               670442572800, 33522128640, 1323241920, 40840800, 960960,
                               16380, 182, 1)),
}


def expm(matrix):
    """exp of a square float matrix by scaling and squaring (Higham, "The
    scaling and squaring method for the matrix exponential revisited", SIAM
    J. Matrix Anal. Appl. 26(4), 2005).  The smallest degree m in 3, 5, 7, 9
    whose theta_m bounds ||A||_1 is used as is; otherwise A is halved
    s = ceil(log2(||A||_1 / theta_13)) times for degree 13 and the result
    squared s times.  With U and V the odd and even parts of the Padé
    numerator, exp(A) ~ (V - U)^-1 (V + U), one solve."""
    a = np.asarray(matrix, dtype=float)
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    if not math.isfinite(norm):
        raise ValueError("expm needs a matrix of finite entries")
    m = next((m for m in (3, 5, 7, 9) if norm <= _PADE[m][0]), 13)
    s = max(0, math.ceil(math.log2(norm / _PADE[13][0]))) if m == 13 else 0
    a = a / 2.0**s
    b = _PADE[m][1]
    eye = np.eye(len(a))
    a2 = a @ a
    if m < 13:
        powers = [eye, a2]  # the even powers A^0 .. A^(m - 1)
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
        v = sum(b[2 * k] * p for k, p in enumerate(powers))
    else:  # Higham's evaluation of degree 13 in six products
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (
            a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
        )
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r
