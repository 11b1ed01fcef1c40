"""Convolution Markov operators, their spectra, and the matrix-level lift.

The right operator sends f to f * mu (steps multiply on the right), the
left operator sends f to mu * f.  Both are weighted sums of permutations of
the group's element indices, one per support element, and
`ConvolutionOperator.stencil()` is the one place those permutations are
built (on ball truncations a product that leaves the ball is written as -1).
The private `_gather` is the one place a stencil is applied: `apply`,
`apply_truncated`, the matrix-level lift `OperatorOnMatrices` (weighted
conjugation of order-by-order arrays, applied through the lifted
permutations perm[i]*n + perm[j]), the spectrum residuals and, through
`apply`, every exact certificate.  The dense and mod-p matrices are built
from the same stencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .groups import ConstructionError
from .linalg import ComputationError, certified_nullspace, float_nullspace, normalize_leading
from .measures import GroupMeasure

PERIPHERAL_TOL = 1e-8
CLUSTER_TOL = 1e-7

__all__ = [
    "ComputationError",
    "GroupFunction",
    "ConvolutionOperator",
    "EigenvalueRecord",
    "SpectralReport",
    "OperatorOnMatrices",
    "right_operator",
    "left_operator",
    "apply",
    "apply_truncated",
    "spectrum",
    "exact_kernel",
    "eigenspace",
    "conditional_expectation",
    "fourier_coefficient",
    "eigen_operator_to_function",
]


def _is_exact_value(x):
    return isinstance(x, (Fraction, int)) and not isinstance(x, bool)


def _as_array(values):
    if any(isinstance(v, complex) for v in values):
        return np.array([complex(v) for v in values])
    return np.array([float(v) for v in values])


def _gather(terms, values, exact):
    """sum_h w_h * values[perm_h] over a stencil [(w_h, perm_h)], as an array.

    Exact: values are ints and Fractions; the sum runs on Python-int
    numerators over one common denominator in an object array, and the
    result holds Fractions.  Otherwise values is a float or complex array
    (sequences are converted) and the terms are added in stencil order
    starting from 0.
    """
    if not exact:
        vec = values if isinstance(values, np.ndarray) else _as_array(values)
        return sum(float(w) * vec[perm] for w, perm in terms)
    den = math.lcm(*(v.denominator for v in values))
    nums = np.array([v.numerator * (den // v.denominator) for v in values], dtype=object)
    scale = math.lcm(*(w.denominator for w, _ in terms))
    total = sum(w.numerator * (scale // w.denominator) * nums[perm] for w, perm in terms)
    den *= scale
    return np.array([Fraction(x, den) for x in total], dtype=object)


class GroupFunction:
    """Function on a group's element indices; values may be exact or floating.

    Entries equal to None mark points where a partial result is undefined
    (only produced by apply_truncated).
    """

    def __init__(self, group, values):
        values = list(values)
        if len(values) != group.order:
            raise ValueError(
                f"function has {len(values)} values but {group.name} has {group.order} elements"
            )
        self.group = group
        self.values = values

    @staticmethod
    def constant(group, value):
        return GroupFunction(group, [value] * group.order)

    @property
    def is_exact(self):
        return all(_is_exact_value(v) for v in self.values)

    @property
    def is_partial(self):
        return any(v is None for v in self.values)

    def sup_norm(self):
        return max(abs(v) for v in self.values if v is not None)

    def as_array(self):
        return _as_array(self.values)

    def __add__(self, other):
        self._check_peer(other)
        return GroupFunction(self.group, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        self._check_peer(other)
        return GroupFunction(self.group, [a - b for a, b in zip(self.values, other.values)])

    def __mul__(self, other):
        self._check_peer(other)
        return GroupFunction(self.group, [a * b for a, b in zip(self.values, other.values)])

    def __neg__(self):
        return GroupFunction(self.group, [-v for v in self.values])

    def scale(self, c):
        return GroupFunction(self.group, [c * v for v in self.values])

    def _check_peer(self, other):
        if not isinstance(other, GroupFunction) or other.group is not self.group:
            raise ValueError("group functions live on different groups")
        if self.is_partial or other.is_partial:
            raise ValueError("arithmetic on partial functions is not defined")

    def __eq__(self, other):
        return (
            isinstance(other, GroupFunction)
            and self.group is other.group
            and self.values == other.values
        )

    def __repr__(self):
        return f"<GroupFunction on {self.group.name} len={len(self.values)}>"


class ConvolutionOperator:
    """Convolution operator on a finite group, stored as weighted permutations.

    (P f)(g) = sum over the support of mu(h) f(perm_h[g]), where perm_h[g]
    is g*h for the right walk and h*g for the left walk.
    """

    def __init__(self, group, measure, side):
        self.group = group
        self.measure = measure
        self.side = side
        self.exact = measure.exact
        self._float_matrix = None
        self._exact_matrix = None
        self._stencil = None

    def stencil(self):
        """[(weight, perm)] with one int64 index array per support element,
        in sorted support order; perm[g] is g*h (right) or h*g (left), and
        -1 where that product leaves a ball truncation."""
        if self._stencil is None:
            mul, elements = self.group.mul, range(self.group.order)
            self._stencil = []
            for h in self.measure.support():
                if self.side == "right":
                    perm = [mul(g, h) for g in elements]
                else:
                    perm = [mul(h, g) for g in elements]
                perm = np.array([-1 if x is None else x for x in perm], dtype=np.int64)
                self._stencil.append((self.measure.weights[h], perm))
        return self._stencil

    def exact_matrix(self):
        """Row-stochastic Fraction matrix: rows index g, columns index x."""
        if not self.exact:
            raise ComputationError(f"{self.side} operator on {self.group.name} has float weights")
        if self._exact_matrix is None:
            n = self.group.order
            rows = [[Fraction(0)] * n for _ in range(n)]
            for w, perm in self.stencil():
                for g, x in enumerate(perm.tolist()):
                    rows[g][x] += w
            self._exact_matrix = rows
        return self._exact_matrix

    def as_array(self):
        if self._float_matrix is None:
            n = self.group.order
            mat = np.zeros((n, n))
            for w, perm in self.stencil():
                mat[np.arange(n), perm] += float(w)
            self._float_matrix = mat
        return self._float_matrix

    def __repr__(self):
        return f"<ConvolutionOperator {self.side} on {self.group.name}>"


def _require_finite(group, what):
    if group.is_truncated:
        raise ConstructionError(f"{what} requires a finite group; use apply_truncated on balls")


def right_operator(group, mu):
    """Operator f -> f * mu with entries[g][x] = mu(g^-1 x)."""
    _require_finite(group, "right_operator")
    return ConvolutionOperator(group, mu, "right")


def left_operator(group, mu):
    """Operator f -> mu * f with entries[g][x] = mu(x g^-1)."""
    _require_finite(group, "left_operator")
    return ConvolutionOperator(group, mu, "left")


def apply(op, f):
    """Apply a convolution operator to a group function.

    Stays exact when both the measure and the function are exact.
    """
    if f.group is not op.group:
        raise ValueError("function and operator live on different groups")
    if f.is_partial:
        raise ValueError("apply needs a total function; apply_truncated handles partial ones")
    return GroupFunction(op.group, list(_gather(op.stencil(), f.values, op.exact and f.is_exact)))


def apply_truncated(group, mu, f, side):
    """Apply one convolution step on a ball truncation.

    Returns (result, interior) where interior lists the indices g at which
    every required product stays in the ball and f is defined there; the
    result holds None outside the interior.  The measure may live on any
    ball of the same family (matched by canonical form), which permits
    degenerate radii where the measure itself would not fit.
    """
    if not group.is_truncated:
        raise ConstructionError("apply_truncated requires a ball truncation; use apply instead")
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    if not mu.group.is_truncated or mu.group.family_key() != group.family_key():
        raise ValueError(
            f"measure on {mu.group.name} cannot act on {group.name}: different family"
        )
    if f.group is not group:
        raise ValueError("function and ball live on different groups")
    weights = {}
    for h, w in mu.weights.items():
        form = mu.group.canonical_form(h)
        if mu.group.length_form(form) > 1:
            raise ValueError("truncated measures must be supported on word length <= 1")
        weights[group.index_of_form(form)] = w
    if None in weights:  # a step leaves the ball from every point (radius 0)
        return GroupFunction(group, [None] * group.order), []
    terms = ConvolutionOperator(group, GroupMeasure(group, weights, mu.exact), side).stencil()
    # index -1 (a product outside the ball) reads the undefined last slot
    defined = np.array([v is not None for v in f.values] + [False])
    inside = np.logical_and.reduce([defined[perm] for _, perm in terms])
    exact = mu.exact and all(v is None or _is_exact_value(v) for v in f.values)
    total = _gather(terms, [0 if v is None else v for v in f.values] + [0], exact)
    values = [v if ok else None for v, ok in zip(total.tolist(), inside.tolist())]
    return GroupFunction(group, values), np.flatnonzero(inside).tolist()


@dataclass(frozen=True)
class EigenvalueRecord:
    value: complex
    multiplicity: int
    residual: float

    def to_json(self):
        return {
            "re": self.value.real,
            "im": self.value.imag,
            "multiplicity": self.multiplicity,
            "residual": self.residual,
        }


@dataclass
class SpectralReport:
    eigenvalues: list
    peripheral: list
    tol: float
    peripheral_tol: float = PERIPHERAL_TOL

    def to_json(self):
        return {
            "eigenvalues": [rec.to_json() for rec in self.eigenvalues],
            "peripheral": [{"re": z.real, "im": z.imag} for z in self.peripheral],
            "tol": self.tol,
            "peripheral_tol": self.peripheral_tol,
        }


def _sort_key(z):
    angle = math.atan2(z.imag, z.real) % (2 * math.pi)
    return (-round(abs(z), 9), round(angle, 9))


def _roots(parent, idx):
    root = parent[idx]
    while True:
        up = parent[root]
        if np.array_equal(up, root):
            return root
        root = up


def _clusters(values):
    """Single-linkage clusters of complex values at CLUSTER_TOL.

    Each cluster lists its indices in (re, im) order, and clusters come in
    the order of their first member.  A sweep over the real-sorted values
    compares each value with the successors whose real parts lie within
    CLUSTER_TOL, one offset at a time, and joins close pairs in a
    union-find forest whose parents point to smaller sorted positions, so
    every root is the first member of its cluster.
    """
    order = np.lexsort((values.imag, values.real))
    z = values[order]
    n = len(z)
    parent = np.arange(n)
    for d in range(1, n):
        if not (z.real[d:] - z.real[:-d] <= CLUSTER_TOL).any():
            break
        lo = np.flatnonzero(np.abs(z[d:] - z[:-d]) <= CLUSTER_TOL)
        hi = lo + d
        while lo.size:
            a, b = _roots(parent, lo), _roots(parent, hi)
            apart = a != b
            parent[np.maximum(a, b)[apart]] = np.minimum(a, b)[apart]
            lo, hi = lo[apart], hi[apart]
    clusters = {}
    for i, root in zip(order.tolist(), _roots(parent, np.arange(n)).tolist()):
        clusters.setdefault(root, []).append(i)
    return list(clusters.values())


def spectrum(op, tol=1e-9, peripheral_tol=PERIPHERAL_TOL):
    """Full eigenvalue report with residual certificates.

    Eigenvalues joined by a chain of steps of at most CLUSTER_TOL (1e-7)
    form one record whose value is their mean and whose multiplicity is the
    cluster size; the peripheral list keeps every
    representative with modulus >= 1 - peripheral_tol.
    """
    a = op.as_array()
    symmetric = bool(np.allclose(a, a.T, atol=1e-12, rtol=0.0))
    try:
        if symmetric:
            eigvals, eigvecs = np.linalg.eigh(a)
            eigvals = eigvals.astype(complex)
        else:
            eigvals, eigvecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(
            f"eigensolver failed for the {op.side} operator on {op.group.name}: {exc}"
        ) from exc
    residuals = []
    for i in range(len(eigvals)):
        v = eigvecs[:, i]
        image = _gather(op.stencil(), v, False)
        residuals.append(float(np.linalg.norm(image - eigvals[i] * v) / np.linalg.norm(v)))
    worst = max(residuals, default=0.0)
    if worst > tol:
        raise ComputationError(
            f"eigenpair residual {worst:.3e} exceeds tol {tol:.3e} "
            f"for the {op.side} operator on {op.group.name}"
        )
    records = []
    for members in _clusters(eigvals):
        values = [complex(eigvals[i]) for i in members]
        rep = sum(values) / len(values)
        records.append(EigenvalueRecord(rep, len(values), max(residuals[i] for i in members)))
    records.sort(key=lambda r: _sort_key(r.value))
    peripheral = [r.value for r in records if abs(r.value) >= 1.0 - peripheral_tol]
    return SpectralReport(records, peripheral, tol, peripheral_tol)


def exact_kernel(ops, lam):
    """Canonical exact basis of ker(P - lam I) for P = ops[0] o ops[1] o ...

    The composite is the stencil of all products of the operators' terms;
    its matrix is built modulo each prime straight from those weighted
    permutations and eliminated by linalg.certified_nullspace.  Every
    returned vector is certified by exact application of the operators.
    Vectors are the canonical free-column basis of rational_nullspace.
    """
    group = ops[0].group
    n = group.order
    rows = np.arange(n)
    terms = [(Fraction(1), rows)]
    for op in ops:
        terms = [(w * v, q[perm]) for w, perm in terms for v, q in op.stencil()]

    def residues(p):
        mat = np.zeros((n, n), dtype=np.int64)
        for w, perm in terms:
            if w.denominator % p == 0:
                return None
            mat[rows, perm] += w.numerator * pow(w.denominator, -1, p) % p
        mat[rows, rows] -= lam
        return mat % p

    def certify(basis):
        for vec in basis:
            f = GroupFunction(group, vec)
            for op in reversed(ops):
                f = apply(op, f)
            if f.values != [lam * x for x in vec]:
                return False
        return True

    return certified_nullspace(n, residues, certify)


def eigenspace(op, lam, tol=1e-9):
    """Basis of the lam-eigenspace of a convolution operator.

    Exact when the measure is rational and lam is 1 or -1: exact_kernel
    eliminates modulo primes and certifies P v = lam v for every vector.
    Otherwise a floating rank-revealing nullspace.  Basis vectors are
    normalized so the entry at the identity is 1 when nonzero, else the
    first nonzero entry is 1.  Returns [] when lam is not an eigenvalue.
    """
    group = op.group
    if op.exact and lam in (1, -1):
        basis = exact_kernel([op], int(lam))
        return [GroupFunction(group, normalize_leading(vec)) for vec in basis]
    a = op.as_array().astype(complex) - complex(lam) * np.eye(group.order)
    cols = float_nullspace(a, tol)
    out = []
    for i in range(cols.shape[1]):
        vec = cols[:, i]
        if np.allclose(vec.imag, 0.0, atol=1e-12):
            vec = vec.real
        out.append(GroupFunction(group, normalize_leading(list(vec), cutoff=1e-12)))
    return out


MAX_SUPEROPERATOR_ORDER = 12


class OperatorOnMatrices:
    """Weighted conjugation by regular-representation permutations.

    side "right": T -> sum_g mu(g) rho_g T rho_g^*, which on diagonal
    arrays reproduces f -> f * mu.  side "left": T -> sum_g mu(g)
    lambda_g^* T lambda_g, reproducing f -> mu * f on diagonals.  The terms
    are the stencil of the convolution operator on the same side.
    """

    def __init__(self, group, measure, side):
        if group.is_truncated:
            raise ConstructionError("matrix-level operators require a finite group")
        if group.order > MAX_SUPEROPERATOR_ORDER:
            raise ConstructionError(
                f"matrix-level operators support order <= {MAX_SUPEROPERATOR_ORDER}, "
                f"got {group.order}"
            )
        if side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', got {side!r}")
        self.group = group
        self.measure = measure
        self.side = side
        n = group.order
        # the stencil lifted to row-major arrays: entry (i, j) reads (perm[i], perm[j])
        self.terms = [
            (w, (perm[:, None] * n + perm).ravel())
            for w, perm in ConvolutionOperator(group, measure, side).stencil()
        ]

    def apply(self, T):
        """Apply to an order-by-order array: ndarrays give ndarrays and
        nested lists give nested lists, exact when the measure and every
        list entry are exact."""
        n = self.group.order
        flat = T.ravel() if isinstance(T, np.ndarray) else [x for row in T for x in row]
        exact = self.measure.exact and all(_is_exact_value(x) for x in flat)
        out = _gather(self.terms, flat, exact).reshape(n, n)
        return out if isinstance(T, np.ndarray) else out.tolist()

    def matrix(self):
        """Dense float matrix acting on row-major vectorized arrays.

        Row i*n + j holds weight w at column perm[i]*n + perm[j] for each
        term; distinct terms never share an entry.
        """
        n = self.group.order
        mat = np.zeros((n * n, n * n))
        rows = np.arange(n * n)
        for w, cols in self.terms:
            mat[rows, cols] += float(w)
        return mat

    def __repr__(self):
        return f"<OperatorOnMatrices {self.side} on {self.group.name}>"


def conditional_expectation(group, T):
    """Diagonal of an array, as a function on the group."""
    return GroupFunction(group, [T[i][i] for i in range(group.order)])


def fourier_coefficient(group, T, g):
    """Diagonal of T * lambda_g^*: values[i] = T[i, g^-1 i]."""
    ginv = group.inv(g)
    cols = [group.mul(ginv, i) for i in group.elements()]
    return GroupFunction(group, [T[i][cols[i]] for i in group.elements()])


def eigen_operator_to_function(T, lam, mu, tol=1e-9):
    """Turn a peripheral eigen-array of the matrix-level operator into a
    scalar eigenfunction of the convolution operator.

    Picks the translation g whose Fourier coefficient has the largest sup
    norm (ties broken by element order) and certifies f * mu = lam * f.
    Returns (g, f).
    """
    group = mu.group
    arr = np.asarray(T, dtype=complex)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValueError("zero array has no eigenfunction")
    s_op = OperatorOnMatrices(group, mu, "right")
    residual = float(np.linalg.norm(s_op.apply(arr) - complex(lam) * arr))
    if residual > tol * norm:
        raise ValueError(
            f"array is not a lam={lam} eigenvector of the matrix-level operator "
            f"(residual {residual:.3e})"
        )
    best_g, best_f, best_norm = None, None, 0.0
    for g in group.elements():
        f = fourier_coefficient(group, arr, g)
        f_norm = float(f.sup_norm())
        if f_norm > best_norm + tol * norm and f_norm > tol * norm:
            best_g, best_f, best_norm = g, f, f_norm
    if best_g is None:
        raise ValueError("all Fourier coefficients vanish; array is numerically zero")
    vec = best_f.as_array()
    image = apply(right_operator(group, mu), best_f).as_array()
    res = float(np.max(np.abs(image - complex(lam) * vec)))
    if res > tol * max(1.0, best_norm):
        raise ValueError(
            f"Fourier coefficient violates the eigen relation beyond tol (residual {res:.3e})"
        )
    values = [complex(v) for v in vec]
    if all(abs(v.imag) <= 1e-14 for v in values):
        values = [v.real for v in values]
    return best_g, GroupFunction(group, values)
