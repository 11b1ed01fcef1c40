"""Convolution Markov operators, their spectra, and the matrix-level lift.

The right operator sends f to f * mu (steps multiply on the right), the
left operator sends f to mu * f.  Both are weighted sums of permutations of
the group's element indices, one per support element, and
`ConvolutionOperator.stencil()` is the one place a measure becomes those
permutations.  Each is one whole-permutation product of the group,
`right_perm(h)` or `left_perm(h)`, built by array arithmetic or lookups
rather than one `mul` per element (on ball truncations a product that
leaves the ball is written as -1).
The private `_gather` is the one place a stencil is applied: `apply`,
`apply_truncated`, the matrix-level lift `OperatorOnMatrices` (weighted
conjugation of order-by-order arrays, applied through the lifted
permutations perm[i]*n + perm[j]), the spectrum residuals and, through
`apply`, every exact certificate.  The dense matrix is built from the same
stencil, and so are the exact +-1 eigenspaces: `component_kernel` reads
them off the connected classes of the graph g -- perm[g], labelled by the
same numpy union-find that clusters eigenvalues.

`right_operator` and `left_operator` return one memoised operator per
(measure, side), kept on the measure, so every task on one measure shares
its stencil, its read-only dense matrix and its eigenvalues and eigenpair
residuals, solved once: by one FFT (characters) on cyclic groups and their
products, by LAPACK on the dense matrix elsewhere.  Dense allocations are
estimated first and refused above DENSE_BYTES_BUDGET.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .groups import ConstructionError, CyclicGroup, ProductGroup
from .linalg import ComputationError, float_nullspace, normalize_leading
from .measures import GroupMeasure, is_symmetric

PERIPHERAL_TOL = 1e-8
CLUSTER_TOL = 1e-7
DENSE_BYTES_BUDGET = 1 << 30

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
    "require_dense_budget",
    "spectrum",
    "component_kernel",
    "eigenspace",
    "conditional_expectation",
    "fourier_coefficient",
    "eigen_operator_to_function",
]


def require_dense_budget(shape, itemsize, what):
    """Refuse a dense array of `shape` with `itemsize`-byte entries when it
    would exceed DENSE_BYTES_BUDGET; call before allocating."""
    nbytes = math.prod(shape) * itemsize
    if nbytes > DENSE_BYTES_BUDGET:
        raise ConstructionError(
            f"{what} needs a dense {' x '.join(map(str, shape))} array of "
            f"{nbytes / 2**20:.1f} MiB, over the dense-matrix budget "
            f"DENSE_BYTES_BUDGET = {DENSE_BYTES_BUDGET / 2**20:.1f} MiB"
        )


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
        self.side = side
        self.weights = measure.weights
        self.exact = measure.exact
        self.symmetric = is_symmetric(measure)
        self._measure = weakref.ref(measure)
        self._float_matrix = None
        self._exact_matrix = None
        self._stencil = None
        self._eigen = None

    @property
    def measure(self):
        """The measure while it lives (held weakly: its memo holds this operator)."""
        return self._measure()

    def stencil(self):
        """[(weight, perm)] with one int64 index array per support element,
        in sorted support order; perm[g] is g*h (right) or h*g (left), and
        -1 where that product leaves a ball truncation.  Each perm is one
        whole-permutation product of the group, budgeted before it is built."""
        if self._stencil is None:
            group = self.group
            require_dense_budget(
                (len(self.weights), group.order), 8, f"the {self.side} stencil on {group.name}"
            )
            perm = group.right_perm if self.side == "right" else group.left_perm
            self._stencil = [(self.weights[h], perm(h)) for h in sorted(self.weights)]
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
        """Dense float matrix (rows g, columns x), built once and read-only:
        the operator is shared by every task on its measure."""
        if self._float_matrix is None:
            n = self.group.order
            require_dense_budget((n, n), 8, f"the {self.side} operator on {self.group.name}")
            mat = np.zeros((n, n))
            for w, perm in self.stencil():
                mat[np.arange(n), perm] += float(w)
            mat.flags.writeable = False
            self._float_matrix = mat
        return self._float_matrix

    def eigenvalues(self):
        """(eigenvalues, residuals), computed once; residuals[i] is
        |P v_i - lambda_i v_i| / |v_i| for the i-th eigenvector (not kept)."""
        if self._eigen is None:
            orders = _cyclic_orders(self.group)
            eigvals, residuals = self._character_eigen(orders) if orders else self._dense_eigen()
            eigvals.flags.writeable = False
            self._eigen = (eigvals, tuple(residuals))
        return self._eigen

    def _character_eigen(self, orders):
        """The character chi_k(x) = exp(2 pi i sum_j k_j x_j / n_j) of the
        mixed-radix coordinates x has P chi_k = lambda_k chi_k exactly, with
        lambda_k = sum_h mu(h) chi_k(h) read off one fftn at index -k.  Its
        residual |P chi_k - lambda_k chi_k| / |chi_k| is |lambda_k - sum_h
        mu(h) chi_k(h)|, the sum evaluated directly in O(n |S|).  Symmetric
        measures keep real parts only, as eigh does."""
        support = sorted(self.weights)
        weights = [float(self.weights[h]) for h in support]
        table = np.bincount(support, weights, self.group.order)
        eigvals = np.fft.fftn(table.reshape(orders))[np.ix_(*[-np.arange(n) % n for n in orders])]
        real = np.ix_(*[np.arange(n) * 2 % n == 0 for n in orders])  # k = -k: chi_k is real
        eigvals[real] = eigvals[real].real
        eigvals = (eigvals.real.astype(complex) if self.symmetric else eigvals).ravel()
        ks = np.indices(orders)
        direct = sum(
            w * np.exp(2j * np.pi * sum(k * x % n / n for k, x, n in zip(ks, coords, orders)))
            for w, *coords in zip(weights, *np.unravel_index(support, orders))
        )
        return eigvals, np.abs(eigvals - direct.ravel()).tolist()

    def _dense_eigen(self):
        a = self.as_array()
        n = self.group.order
        require_dense_budget((n, n), 16, f"the eigenvectors of {self!r}")
        try:
            if self.symmetric:
                eigvals, eigvecs = np.linalg.eigh(a)
                eigvals = eigvals.astype(complex)
            else:
                eigvals, eigvecs = np.linalg.eig(a)
        except np.linalg.LinAlgError as exc:
            raise ComputationError(
                f"eigensolver failed for the {self.side} operator on {self.group.name}: {exc}"
            ) from exc
        return eigvals, [
            float(np.linalg.norm(_gather(self.stencil(), v, False) - lam * v) / np.linalg.norm(v))
            for lam, v in zip(eigvals, eigvecs.T)
        ]

    def __repr__(self):
        return f"<ConvolutionOperator {self.side} on {self.group.name}>"


def _cyclic_orders(group):
    """[n_1, n_2, ...] for Z_n1 x Z_n2 x ... (nested products flattened), else None."""
    if isinstance(group, CyclicGroup):
        return [group.n]
    parts = [_cyclic_orders(f) for f in group.factors] if isinstance(group, ProductGroup) else [None]
    return None if None in parts else [n for part in parts for n in part]


def _require_finite(group, what):
    if group.is_truncated:
        raise ConstructionError(f"{what} requires a finite group; use apply_truncated on balls")


def _operator(group, mu, side):
    """mu's memoised operator on one side; uncached when mu lives on
    another group object."""
    if group is not mu.group:
        return ConvolutionOperator(group, mu, side)
    op = mu._operators.get(side)
    if op is None:
        op = mu._operators[side] = ConvolutionOperator(group, mu, side)
    return op


def right_operator(group, mu):
    """Operator f -> f * mu with entries[g][x] = mu(g^-1 x), one per measure."""
    _require_finite(group, "right_operator")
    return _operator(group, mu, "right")


def left_operator(group, mu):
    """Operator f -> mu * f with entries[g][x] = mu(x g^-1), one per measure."""
    _require_finite(group, "left_operator")
    return _operator(group, mu, "left")


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
    measure = mu if mu.group is group else GroupMeasure(group, weights, mu.exact)
    terms = _operator(group, measure, side).stencil()
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
    # an angle rounding to 2 pi is 0: the sign of an imaginary rounding error cannot move it
    angle = round(math.atan2(z.imag, z.real) % (2 * math.pi), 9) % round(2 * math.pi, 9)
    return (-round(abs(z), 9), angle)


def _roots(parent, idx):
    """Roots of idx in a union-find forest whose parents point to smaller
    indices.  Pointer jumping first flattens the whole forest in place, so
    a chain of depth d takes log2(d) passes."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent[idx]
        parent[:] = grand


def _union(parent, lo, hi):
    """Join the classes of lo[i] and hi[i] for every i.  Each round hooks
    every larger root under the smallest root it is paired with, so a root
    stays the smallest member of its class."""
    while lo.size:
        a, b = _roots(parent, lo), _roots(parent, hi)
        apart = a != b
        np.minimum.at(parent, np.maximum(a, b)[apart], np.minimum(a, b)[apart])
        lo, hi = lo[apart], hi[apart]


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
        _union(parent, lo, lo + d)
    clusters = {}
    for i, root in zip(order.tolist(), _roots(parent, np.arange(n)).tolist()):
        clusters.setdefault(root, []).append(i)
    return list(clusters.values())


def spectrum(op, tol=1e-9, peripheral_tol=PERIPHERAL_TOL):
    """Full eigenvalue report with residual certificates.

    Eigenvalues joined by a chain of steps of at most CLUSTER_TOL (1e-7)
    form one record whose value is their mean and whose multiplicity is the
    cluster size; the peripheral list keeps every
    representative with modulus >= 1 - peripheral_tol.  The eigensolve is
    the operator's (done once); the residuals are checked against this
    call's tol.
    """
    eigvals, residuals = op.eigenvalues()
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


_ENTRIES = {0: Fraction(0), 1: Fraction(1), -1: Fraction(-1)}


def _classes(n, perms):
    """Each index's class label in the graph with edges g -- perm[g]: the
    smallest index of its connected class."""
    parent = np.arange(n)
    for perm in perms:
        _union(parent, np.arange(n), perm)
    return _roots(parent, np.arange(n))


def component_kernel(ops, lam):
    """Exact basis of ker(P - lam I) for P = ops[0] o ops[1] o ... and lam = +-1.

    P is a positive combination of the composite stencil's permutations
    (g -> q[perm[g]] over every pair of terms), so eigenspace's theorem
    applies to the graph g -- perm(g).  A class is bipartite exactly when
    g and (g, 1) fall in different classes of the double cover
    (g, 0) -- (perm(g), 1).  The basis holds one vector per class (per
    bipartite class for -1), ordered by each class's largest index: its
    indicator, or its colouring with +1 at the class's smallest index.
    This is the canonical free-column basis of rational_nullspace, scaled
    by normalize_leading.  Every vector is certified by exact application
    of the operators.
    """
    group = ops[0].group
    n = group.order
    perms = [np.arange(n)]
    for op in ops:
        perms = [q[perm] for perm in perms for _, q in op.stencil()]
    if lam == 1:
        classes, signs = _classes(n, perms), np.ones(n, dtype=np.int64)
        kept = np.ones(n, dtype=bool)
    else:
        cover = _classes(2 * n, [np.concatenate([perm + n, perm]) for perm in perms])
        even, odd = cover[:n], cover[n:]
        classes = np.minimum(even, odd)
        signs = np.where(even == classes, 1, -1)
        kept = even != odd
    last = np.full(n, -1)
    np.maximum.at(last, classes[kept], np.arange(n)[kept])
    labels = np.flatnonzero(last >= 0)
    labels = labels[np.argsort(last[labels])]
    require_dense_budget((len(labels), n), 8, f"the {lam:+d} eigenspace basis on {group.name}")
    basis = []
    for label in labels.tolist():
        codes = np.where(classes == label, signs, 0).tolist()
        f = GroupFunction(group, [_ENTRIES[c] for c in codes])
        image = f
        for op in reversed(ops):
            image = apply(op, image)
        if image.values != [_ENTRIES[lam * c] for c in codes]:
            raise ComputationError(
                f"class vector {len(basis)} on {group.name} failed P f = {lam} f"
            )
        basis.append(f)
    return basis


def eigenspace(op, lam, tol=1e-9):
    """Basis of the lam-eigenspace of a convolution operator.

    Exact when the measure is rational and lam is 1 or -1, by the maximum
    principle for the doubly stochastic P = sum_h w_h perm_h with every
    w_h > 0 (Seneta, Non-negative Matrices and Markov Chains, 1981, ch. 1;
    Horn and Johnson, Matrix Analysis, ch. 8): P f = f exactly when f is
    constant on each connected class of the graph g -- perm_h(g), and
    P f = -f exactly when f is, on each class, a multiple of a +-1
    colouring that flips along every edge, and 0 on the classes that have
    none.  The dimension (the number of classes, or of bipartite classes)
    rests on this theorem; component_kernel labels the classes and
    certifies P v = lam v exactly for every vector.  Otherwise a floating
    rank-revealing nullspace.  Basis vectors are normalized so the entry at the identity
    is 1 when nonzero, else the first nonzero entry is 1.  Returns [] when
    lam is not an eigenvalue.
    """
    group = op.group
    if op.exact and lam in (1, -1):
        return component_kernel([op], int(lam))
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
            for w, perm in _operator(group, measure, side).stencil()
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
    cols = group.left_perm(group.inv(g)).tolist()
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
