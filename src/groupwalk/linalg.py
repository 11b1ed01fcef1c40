"""Exact and floating linear-algebra kernels shared across the package.

Exact nullspaces come from one certified modular kernel: elimination modulo
word-size primes in numpy int64, rational reconstruction of the canonical
basis, and an exact check of every vector by the caller.  The Fraction
routines (RREF, solve) serve small systems and act as the test oracle.  The
floating routines are thin wrappers over numpy decompositions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

import numpy as np

# Primes below 2**31, so products of two residues fit in int64.
_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
)

__all__ = [
    "ComputationError",
    "rational_rref",
    "certified_nullspace",
    "rational_nullspace",
    "rational_solve",
    "rational_matmul",
    "normalize_leading",
    "GF2System",
    "operator_norm",
    "float_nullspace",
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


def _rref_mod(a, p):
    """Reduced row echelon form of an int64 matrix modulo p, in place.

    Pivots are chosen as the first nonzero entry at or below the current
    rank, as in rational_rref.  Returns the pivot columns.
    """
    nrows, ncols = a.shape
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        nonzero = np.flatnonzero(a[rank:, col])
        if nonzero.size == 0:
            continue
        row = rank + int(nonzero[0])
        if row != rank:
            a[[rank, row]] = a[[row, rank]]
        a[rank, col:] = a[rank, col:] * pow(int(a[rank, col]), -1, p) % p
        targets = np.flatnonzero(a[:, col])
        targets = targets[targets != rank]
        if targets.size:
            factors = a[targets, col][:, None]
            a[targets, col:] = (a[targets, col:] - factors * a[rank, col:]) % p
        pivots.append(col)
    return pivots


def _reconstruct(u, modulus, bound):
    """The fraction a/b with |a|, b <= bound and a = b*u mod modulus, or None
    (Wang, Guy and Davenport, SIGSAM Bull. 16, 1982)."""
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _basis_from_residues(ncols, pivots, free, block, modulus):
    """Canonical nullspace basis rebuilt from the RREF entries of the free
    columns (block[i][j] is row i, free column j, modulo modulus)."""
    bound = isqrt(modulus // 2)
    basis = [[Fraction(0)] * ncols for _ in free]
    for vec, col in zip(basis, free):
        vec[col] = Fraction(1)
    rows, cols = np.nonzero(block)
    for i, j in zip(rows.tolist(), cols.tolist()):
        value = _reconstruct(-int(block[i, j]) % modulus, modulus, bound)
        if value is None:
            return None
        basis[j][pivots[i]] = value
    return basis


def certified_nullspace(ncols, residues, certify):
    """Canonical basis of the right nullspace of an exact rational matrix.

    The matrix is given only through ``residues(p)``, which returns it
    reduced modulo the prime p as an int64 array (or None when p divides a
    denominator).  Each prime is eliminated in numpy; the basis is rebuilt
    by rational reconstruction, combining primes by CRT while a prime keeps
    the same pivots, and returned once ``certify(basis)`` confirms exactly
    that every vector lies in the kernel.

    The answer is the basis rational_nullspace defines: one vector per free
    column, with a 1 there and support on earlier pivot columns only.  The
    mod-p rank never exceeds the rational rank, so k certified vectors of a
    k-dimensional mod-p kernel prove the dimension; each vector shows its
    free column depends on earlier columns, so the free columns, and with
    them the vectors, are the rational ones.  A prime that drops the rank
    yields a basis that fails the certificate, and the next prime is tried.
    """
    best = None
    for p in _PRIMES:
        matrix = residues(p)
        if matrix is None:
            continue
        pivots = _rref_mod(matrix, p)
        free = sorted(set(range(ncols)) - set(pivots))
        block = matrix[: len(pivots), free]
        key = pivots + [ncols] * (ncols - len(pivots))
        if best is None or key < best:
            # the first prime, or every earlier one lost rank on a prefix
            best, acc, modulus = key, block.astype(object), p
        elif key == best:
            lift = (block - (acc % p).astype(np.int64)) % p * pow(modulus % p, -1, p) % p
            acc, modulus = acc + modulus * lift.astype(object), modulus * p
        else:
            continue
        basis = _basis_from_residues(ncols, pivots, free, acc, modulus)
        if basis is not None and certify(basis):
            return basis
    raise ComputationError(f"no prime certified the nullspace of a matrix with {ncols} columns")


def _fraction_mod(x, p):
    x = Fraction(x)
    if x.denominator % p == 0:
        return None
    return x.numerator * pow(x.denominator, -1, p) % p


def rational_nullspace(matrix):
    """Basis of the right nullspace of a Fraction matrix.

    One vector per free column, in increasing column order: the vector has a
    1 at its free column and back-substituted pivot entries, which makes the
    output canonical.  Computed by certified_nullspace and checked against
    every row exactly.
    """
    if not matrix:
        return []
    ncols = len(matrix[0])

    def residues(p):
        rows = [[_fraction_mod(x, p) for x in row] for row in matrix]
        if any(x is None for row in rows for x in row):
            return None
        return np.array(rows, dtype=np.int64)

    def certify(basis):
        return all(sum(a * b for a, b in zip(row, vec)) == 0 for vec in basis for row in matrix)

    return certified_nullspace(ncols, residues, certify)


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


def normalize_leading(vec, cutoff=0.0):
    """Scale a vector so the first entry is 1 when nonzero, else the first
    nonzero entry is 1.  Works for Fraction and float entries alike."""
    lead = None
    for x in vec:
        if abs(x) > cutoff:
            lead = x
            break
    if lead is None:
        return list(vec)
    return [x / lead for x in vec]


class GF2System:
    """Incremental GF(2) linear system with bitset rows.

    Equations are ``mask . x = rhs`` where ``mask`` packs variable
    coefficients as integer bits.  Rows are kept in echelon form keyed by
    their lowest set bit, which makes feasibility checks O(rows).
    """

    def __init__(self):
        self.rows = {}  # pivot bit position -> (mask, rhs)
        self.contradiction = False

    def _reduce(self, mask, rhs):
        while mask:
            pivot = (mask & -mask).bit_length() - 1
            if pivot not in self.rows:
                return mask, rhs, pivot
            row_mask, row_rhs = self.rows[pivot]
            mask ^= row_mask
            rhs ^= row_rhs
        return 0, rhs, None

    def add(self, mask, rhs):
        """Insert one equation.  Returns False when it contradicts the system."""
        if self.contradiction:
            return False
        mask, rhs, pivot = self._reduce(mask, rhs)
        if pivot is None:
            if rhs:
                self.contradiction = True
                return False
            return True
        self.rows[pivot] = (mask, rhs)
        return True

    def consistent_with(self, mask, rhs):
        """Would (mask, rhs) be consistent, without inserting it?"""
        if self.contradiction:
            return False
        reduced_mask, reduced_rhs, _ = self._reduce(mask, rhs)
        return bool(reduced_mask) or not reduced_rhs

    def lex_min_solution(self, nvars):
        """Lexicographically smallest solution vector (x_0, ..., x_{nvars-1}).

        Greedy per variable: fix the earliest undetermined bit to 0 whenever
        the system stays consistent, else to 1.  Returns None when the system
        is contradictory.
        """
        if self.contradiction:
            return None
        scratch = GF2System()
        scratch.rows = dict(self.rows)
        bits = []
        for i in range(nvars):
            mask = 1 << i
            if scratch.consistent_with(mask, 0):
                scratch.add(mask, 0)
                bits.append(0)
            else:
                scratch.add(mask, 1)
                bits.append(1)
        return bits


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
