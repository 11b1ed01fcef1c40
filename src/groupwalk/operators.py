"""Convolution Markov operators, their spectra, and the matrix-level lift.

The right operator sends f to f * mu (steps multiply on the right), the
left operator sends f to mu * f.  Both are weighted sums of permutations of
the group's element indices, one per support element, and
`ConvolutionOperator.stencil()` is the one place a measure becomes those
permutations.  Each is one whole-permutation product of the group,
`right_perm(h)` or `left_perm(h)`, built by array arithmetic or lookups
rather than one `mul` per element (on ball truncations a product that
leaves the ball is written as -1).
The private `_gather` applies every stencil: `apply`, `apply_truncated`,
the matrix-level lift `OperatorOnMatrices` (weighted conjugation of
order-by-order arrays, applied through the lifted permutations
perm[i]*n + perm[j]), the spectrum residuals and every exact certificate.
Only the foguel walk in `verify` sums stencil terms itself, in `_gather`'s
order, over many measures' inverse left stencils at once.  The dense
matrix is built from the same stencil.  The exact +-1 eigenspaces of the
walks and the exact +-1 arrays of the lift come from one kernel:
`component_kernel` reads them off the connected classes of the graph
x -- perm[x] of any stencil, over the n elements or the n^2 entries,
labelled by the same numpy union-find that clusters eigenvalues.

An exact `GroupFunction` is an integer numerator array over one positive
denominator (plus a `defined` mask for partial ball results); `_gather`
sums the stencil on the numerators, in int64 when no partial sum can reach
2**63 and on Python ints otherwise, and returns the numerators over the
denominator times the weights' common denominator.  No exact step builds a
Fraction per entry; the `values` list is only a read view.

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


_INT64_LIMIT = 1 << 63
_CERTIFY_ENTRIES = 1 << 20  # entries of the class vectors certified in one block


def _max_abs(nums):
    """max |x| over a numerator array (0 when empty), as a Python int."""
    if not nums.size:
        return 0
    if nums.dtype == object:
        return max(map(abs, nums.tolist()))
    return int(np.abs(nums).max())


def _fit(nums, bound):
    """nums as int64 when `bound`, a bound on the modulus of every value to
    be computed from them, is below 2**63; else as Python ints in an object
    array, which cannot overflow."""
    return nums.astype(np.int64 if bound < _INT64_LIMIT else object, copy=False)


def _exact_parts(values):
    """(numerators, denominator) of a sequence of ints and Fractions over
    their least common denominator, or None when any entry is not exact."""
    if not all(_is_exact_value(v) for v in values):
        return None
    den = math.lcm(*(v.denominator for v in values))
    nums = [v.numerator * (den // v.denominator) for v in values]
    return _fit(np.array(nums, dtype=object), max(map(abs, nums), default=0)), den


def _to_float(nums, den):
    """Each nums[i] / den as the nearest float, as float(Fraction) gives it."""
    if den < 1 << 53 and _max_abs(nums) < 1 << 53:
        return nums.astype(np.float64) / den
    return np.array([x / den for x in nums.tolist()], dtype=np.float64)


def _gather(terms, vec, den=None):
    """sum_h w_h * vec[perm_h] over a stencil [(w_h, perm_h)].

    Exact when den is given: vec holds integer numerators over den, and the
    result is (numerators, den * scale) with scale the least common
    denominator of the weights; the sum runs in int64 when max|vec| times
    the sum of the scaled weights stays below 2**63, else on Python ints.
    Otherwise vec is a float or complex array (sequences are converted) and
    the terms are added in stencil order starting from 0.
    """
    if den is None:
        vec = vec if isinstance(vec, np.ndarray) else _as_array(vec)
        return sum(float(w) * vec[perm] for w, perm in terms)
    scale = math.lcm(*(w.denominator for w, _ in terms))
    coeffs = [w.numerator * (scale // w.denominator) for w, _ in terms]
    vec = _fit(vec, max(_max_abs(vec), 1) * sum(coeffs))
    return sum(c * vec[perm] for c, (_, perm) in zip(coeffs, terms)), den * scale


class GroupFunction:
    """Function on a group's element indices; values may be exact or floating.

    An exact function is one integer numerator array (int64, or Python
    ints in an object array once a value could overflow int64) over one
    positive denominator, kept reduced: the gcd of the denominator and
    every numerator is 1, so equal functions have equal representations.
    A float or complex function is one ndarray.  A partial result of
    apply_truncated also carries a boolean `defined` mask (its undefined
    entries hold 0).  `values` is the read view, built on first access: a
    list with Fraction entries for exact results (the list given to the
    constructor, as given), floats or complexes otherwise, and None where
    the function is undefined.
    """

    def __init__(self, group, values):
        values = list(values)
        if len(values) != group.order:
            raise ValueError(
                f"function has {len(values)} values but {group.name} has {group.order} elements"
            )
        defined = np.array([v is not None for v in values], dtype=bool)
        filled = values if defined.all() else [0 if v is None else v for v in values]
        parts = _exact_parts(filled)
        if parts is None:
            self._set(group, None, 1, _as_array(filled), defined)
        else:
            self._set(group, *parts, None, defined)
        self._values = values

    @classmethod
    def _from_numerators(cls, group, nums, den=1, defined=None):
        """An exact function from an integer array over a positive
        denominator, reduced by their gcd; undefined entries must be 0."""
        if den != 1:
            common = math.gcd(den, int(np.gcd.reduce(nums)))
            if common > 1:
                nums, den = nums // common, den // common
        if nums.dtype == object:
            nums = _fit(nums, _max_abs(nums))
        fn = cls.__new__(cls)
        fn._set(group, nums, den, None, defined)
        return fn

    @classmethod
    def _from_array(cls, group, array, defined=None):
        """A float or complex function from an ndarray; undefined entries must be 0."""
        fn = cls.__new__(cls)
        fn._set(group, None, 1, array, defined)
        return fn

    def _set(self, group, nums, den, array, defined):
        self.group = group
        self._nums = nums
        self._den = den
        self._array = array
        self._defined = None if defined is None or defined.all() else defined
        self._values = None

    @staticmethod
    def constant(group, value):
        if _is_exact_value(value):
            nums = _fit(np.full(group.order, value.numerator, dtype=object), abs(value.numerator))
            return GroupFunction._from_numerators(group, nums, value.denominator)
        return GroupFunction(group, [value] * group.order)

    @property
    def values(self):
        if self._values is None:
            if self._nums is not None:
                den = self._den
                values = [Fraction(x, den) for x in self._nums.tolist()]
            else:
                values = self._array.tolist()
            if self._defined is not None:
                values = [v if ok else None for v, ok in zip(values, self._defined.tolist())]
            self._values = values
        return self._values

    def __getitem__(self, g):
        """The value at index g, read without building `values`."""
        if self._values is not None:
            return self._values[g]
        if self._defined is not None and not self._defined[g]:
            return None
        if self._nums is not None:
            return Fraction(int(self._nums[g]), self._den)
        return self._array[g].item()

    @property
    def is_exact(self):
        return self._nums is not None

    @property
    def is_partial(self):
        return self._defined is not None

    def sup_norm(self):
        if self._nums is not None:
            return Fraction(_max_abs(self._nums), self._den)
        return float(np.abs(self._array).max())

    def as_array(self):
        if self.is_partial:
            raise ValueError("a partial function has no array")
        return np.array(self._float())

    def _float(self):
        """Float (or complex) values, 0 where undefined; not to be written."""
        if self._nums is not None:
            return _to_float(self._nums, self._den)
        return self._array

    def _combine(self, pairs):
        """sum c * f over [(c, f)] of exact total functions and int or
        Fraction coefficients, on the numerators."""
        den = math.lcm(*(c.denominator * f._den for c, f in pairs))
        mults = [c.numerator * (den // (c.denominator * f._den)) for c, f in pairs]
        dtype_bound = sum(abs(m) * max(_max_abs(f._nums), 1) for m, (_, f) in zip(mults, pairs))
        total = sum(m * _fit(f._nums, dtype_bound) for m, (_, f) in zip(mults, pairs))
        return GroupFunction._from_numerators(self.group, total, den)

    def __add__(self, other):
        self._check_peer(other)
        if self.is_exact and other.is_exact:
            return self._combine([(1, self), (1, other)])
        return GroupFunction._from_array(self.group, self._float() + other._float())

    def __sub__(self, other):
        self._check_peer(other)
        if self.is_exact and other.is_exact:
            return self._combine([(1, self), (-1, other)])
        return GroupFunction._from_array(self.group, self._float() - other._float())

    def __mul__(self, other):
        self._check_peer(other)
        if self.is_exact and other.is_exact:
            bound = max(_max_abs(self._nums), 1) * max(_max_abs(other._nums), 1)
            nums = _fit(self._nums, bound) * _fit(other._nums, bound)
            return GroupFunction._from_numerators(self.group, nums, self._den * other._den)
        return GroupFunction._from_array(self.group, self._float() * other._float())

    def __neg__(self):
        if self.is_exact:
            out = self._combine([(-1, self)])
        else:
            out = GroupFunction._from_array(self.group, -self._array)
        out._defined = self._defined
        return out

    def scale(self, c):
        """c * f; a partial function stays undefined where it was."""
        if self.is_exact and _is_exact_value(c):
            out = self._combine([(c, self)])
        else:
            factor = float(c) if isinstance(c, Fraction) else c
            out = GroupFunction._from_array(self.group, factor * self._float())
        out._defined = self._defined
        return out

    def equals_on(self, other, indices):
        """Whether self and other take equal values (None where undefined)
        at every index in indices."""
        idx = np.asarray(indices, dtype=np.int64)
        if not (self.is_exact and other.is_exact):
            return all(self[g] == other[g] for g in idx.tolist())
        bound = max(
            max(_max_abs(self._nums), 1) * other._den, max(_max_abs(other._nums), 1) * self._den
        )
        return bool(
            np.array_equal(self._mask()[idx], other._mask()[idx])
            and np.array_equal(
                _fit(self._nums[idx], bound) * other._den,
                _fit(other._nums[idx], bound) * self._den,
            )
        )

    def inner(self, other):
        """Exact sum over g of self(g) * other(g) for exact total functions."""
        self._check_peer(other)
        if not (self.is_exact and other.is_exact):
            raise ValueError("inner needs exact functions")
        bound = self.group.order * max(_max_abs(self._nums), 1) * max(_max_abs(other._nums), 1)
        total = np.dot(_fit(self._nums, bound), _fit(other._nums, bound))
        return Fraction(int(total), self._den * other._den)

    def _check_peer(self, other):
        if not isinstance(other, GroupFunction) or other.group is not self.group:
            raise ValueError("group functions live on different groups")
        if self.is_partial or other.is_partial:
            raise ValueError("arithmetic on partial functions is not defined")

    def __eq__(self, other):
        if not isinstance(other, GroupFunction) or self.group is not other.group:
            return False
        if self.is_exact and other.is_exact:
            return (
                self._den == other._den
                and np.array_equal(self._nums, other._nums)
                and np.array_equal(self._mask(), other._mask())
            )
        return self.values == other.values

    def _mask(self):
        return np.ones(self.group.order, dtype=bool) if self._defined is None else self._defined

    def __repr__(self):
        return f"<GroupFunction on {self.group.name} len={self.group.order}>"


def _function_values(f):
    """f's entries as reports write them: "n" or "n/d" in lowest terms for
    exact functions, read off the numerators (one gcd per entry, no
    Fraction), floats or [re, im] otherwise, None where f is undefined."""
    if f.is_exact:
        nums, den = f._nums, f._den
        if nums.dtype == object or den >= _INT64_LIMIT:
            common = [math.gcd(x, den) for x in nums.tolist()]
        else:
            common = np.gcd(nums, den).tolist()
        values = [
            str(x // c) if c == den else f"{x // c}/{den // c}"
            for x, c in zip(nums.tolist(), common)
        ]
    else:
        values = [[v.real, v.imag] if isinstance(v, complex) else v for v in f._array.tolist()]
    if f.is_partial:
        values = [v if ok else None for v, ok in zip(values, f._defined.tolist())]
    return values


class ConvolutionOperator:
    """Convolution operator on a finite group, stored as weighted permutations.

    (P f)(g) = sum over the support of mu(h) f(perm_h[g]), where perm_h[g]
    is g*h for the right walk and h*g for the left walk.
    """

    def __init__(self, group, measure, side):
        if side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', got {side!r}")
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
            float(np.linalg.norm(_gather(self.stencil(), v) - lam * v) / np.linalg.norm(v))
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
    if op.exact and f.is_exact:
        return GroupFunction._from_numerators(op.group, *_gather(op.stencil(), f._nums, f._den))
    return GroupFunction._from_array(op.group, _gather(op.stencil(), f._float()))


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
    if side not in ("right", "left"):  # checked here too: radius 0 returns before any operator
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
        nowhere = np.zeros(group.order, dtype=bool)
        return GroupFunction._from_array(group, np.zeros(group.order), nowhere), []
    measure = mu if mu.group is group else GroupMeasure(group, weights, mu.exact)
    terms = _operator(group, measure, side).stencil()
    # index -1 (a product outside the ball) reads the undefined last slot
    defined = np.append(f._mask(), False)
    inside = np.logical_and.reduce([defined[perm] for _, perm in terms])
    if mu.exact and f.is_exact:
        nums, den = _gather(terms, np.append(f._nums, 0), f._den)
        out = GroupFunction._from_numerators(group, np.where(inside, nums, 0), den, inside)
    else:
        total = _gather(terms, np.append(f._float(), 0))
        out = GroupFunction._from_array(group, np.where(inside, total, 0), inside)
    return out, np.flatnonzero(inside).tolist()


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


def _sort_order(values):
    """The stable order of complex values by _sort_key, computed on arrays.

    numpy's modulus and angle may differ from math's by a few ulps, which
    moves a key rounded to 9 decimals only when the scaled value lies next
    to a half; those few values take _sort_key itself, so every key equals
    _sort_key's.
    """
    keys = []
    fragile = np.zeros(len(values), dtype=bool)
    for x in (np.abs(values), np.arctan2(values.imag, values.real) % (2 * math.pi)):
        scaled = x * 1e9
        fragile |= np.abs(scaled - np.floor(scaled) - 0.5) < 1e-5
        keys.append(np.rint(scaled) / 1e9)
    mags, angles = -keys[0], keys[1] % round(2 * math.pi, 9)
    for i in np.flatnonzero(fragile).tolist():
        mags[i], angles[i] = _sort_key(complex(values[i]))
    return np.lexsort((angles, mags))


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

    Returns (members, labels): the indices of values grouped by cluster,
    each cluster's in (re, im) order and clusters in the order of their
    first member, and the cluster number of each.  A sweep over the
    real-sorted values compares each value with the successors whose real
    parts lie within CLUSTER_TOL, one offset at a time, and joins close
    pairs in a union-find forest whose parents point to smaller sorted
    positions, so every root is the first member of its cluster.
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
    _, labels = np.unique(_roots(parent, np.arange(n)), return_inverse=True)
    grouped = np.argsort(labels, kind="stable")
    return order[grouped], labels[grouped]


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
    members, labels = _clusters(eigvals)
    sizes = np.bincount(labels)
    # np.add.at adds in member order from 0, as sum() does; dividing each
    # part by the size is what complex division by a real size does
    sums = np.zeros(len(sizes), dtype=complex)
    np.add.at(sums, labels, eigvals[members])
    means = np.empty(len(sizes), dtype=complex)
    means.real, means.imag = sums.real / sizes, sums.imag / sizes
    worst = np.full(len(sizes), -np.inf)
    np.maximum.at(worst, labels, np.array(residuals)[members])
    values, counts, worst = means.tolist(), sizes.tolist(), worst.tolist()
    records = [
        EigenvalueRecord(values[i], counts[i], worst[i]) for i in _sort_order(means).tolist()
    ]
    peripheral = [r.value for r in records if abs(r.value) >= 1.0 - peripheral_tol]
    return SpectralReport(records, peripheral, tol, peripheral_tol)


def _classes(n, perms):
    """Each index's class label in the graph with edges g -- perm[g]: the
    smallest index of its connected class."""
    parent = np.arange(n)
    for perm in perms:
        _union(parent, np.arange(n), perm)
    return _roots(parent, np.arange(n))


def _certified(stencils, vecs, lam):
    """For each column v of the integer array vecs, whether P v = lam v
    exactly for the composite P = stencils[0] o stencils[1] o ... (the last
    acts first) of exact weighted-permutation stencils, summed by `_gather`
    on all columns at once."""
    image, den = vecs, 1
    for terms in reversed(stencils):
        image, den = _gather(terms, image, den)
    return (image == lam * den * _fit(vecs, den * _max_abs(vecs))).all(axis=0)


def component_kernel(stencils, n, lam, where):
    """Exact basis of ker(P - lam I) for lam = +-1 and P = stencils[0] o
    stencils[1] o ..., each stencil [(w, perm)] a positive exact combination
    of permutations of n nodes: a convolution operator's stencil over the
    group's elements, or the lifted terms of OperatorOnMatrices over the n^2
    entries of an array.

    P is a positive combination of the composite stencil's permutations
    (g -> q[perm[g]] over every pair of terms), so eigenspace's theorem
    applies to the graph g -- perm(g).  A class is bipartite exactly when
    g and (g, 1) fall in different classes of the double cover
    (g, 0) -- (perm(g), 1).  The basis holds one int64 array per class (per
    bipartite class for -1), ordered by each class's largest index: its
    indicator, or its colouring with +1 at the class's smallest index.
    This is the canonical free-column basis of rational_nullspace, scaled
    by normalize_leading.  Every array is certified P v = lam v by exact
    `_gather` sums; `where` names the nodes in messages ("on D4").
    """
    composites = math.prod(len(terms) for terms in stencils)
    require_dense_budget((composites, n), 8, f"the composite stencil {where}")
    perms = [np.arange(n)]
    for terms in stencils:
        perms = [q[perm] for perm in perms for _, q in terms]
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
    require_dense_budget((len(labels), n), 8, f"the {lam:+d} eigenspace basis {where}")
    basis = []
    step = max(1, _CERTIFY_ENTRIES // n)
    for start in range(0, len(labels), step):
        vecs = np.where(classes[:, None] == labels[start : start + step], signs[:, None], 0)
        failed = np.flatnonzero(~_certified(stencils, vecs, lam))
        if failed.size:
            raise ComputationError(
                f"class vector {start + failed[0]} {where} failed P f = {lam} f"
            )
        basis.extend(vecs.T.copy())
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
    rank-revealing nullspace.  Basis vectors are normalized so the entry at
    the identity is 1 when nonzero, else the first nonzero entry is 1.
    Returns [] when lam is not an eigenvalue.
    """
    group = op.group
    if op.exact and lam in (1, -1):
        basis = component_kernel([op.stencil()], group.order, int(lam), f"on {group.name}")
        return [GroupFunction._from_numerators(group, vec) for vec in basis]
    a = op.as_array().astype(complex) - complex(lam) * np.eye(group.order)
    cols = float_nullspace(a, tol)
    out = []
    for i in range(cols.shape[1]):
        vec = cols[:, i]
        if np.allclose(vec.imag, 0.0, atol=1e-12):
            vec = vec.real
        out.append(GroupFunction(group, normalize_leading(list(vec), cutoff=1e-12)))
    return out


class OperatorOnMatrices:
    """Weighted conjugation by regular-representation permutations.

    side "right": T -> sum_g mu(g) rho_g T rho_g^*, which on diagonal
    arrays reproduces f -> f * mu.  side "left": T -> sum_g mu(g)
    lambda_g^* T lambda_g, reproducing f -> mu * f on diagonals.  The terms
    are the stencil of the convolution operator on the same side, lifted to
    the n^2 entries; component_kernel reads the exact +-1 arrays off them.
    """

    def __init__(self, group, measure, side):
        if group.is_truncated:
            raise ConstructionError("matrix-level operators require a finite group")
        self.group = group
        self.measure = measure
        self.side = side
        n = group.order
        stencil = _operator(group, measure, side).stencil()
        what = f"the lifted {side} stencil on {group.name}"
        require_dense_budget((len(stencil), n * n), 8, what)
        # entry (i, j) of a row-major array reads (perm[i], perm[j])
        self.terms = [(w, (perm[:, None] * n + perm).ravel()) for w, perm in stencil]

    def apply(self, T):
        """Apply to an order-by-order array: ndarrays give ndarrays and
        nested lists give nested lists, exact when the measure and every
        list entry are exact."""
        n = self.group.order
        flat = T.ravel() if isinstance(T, np.ndarray) else [x for row in T for x in row]
        parts = _exact_parts(flat) if self.measure.exact else None
        if parts is None:
            out = _gather(self.terms, flat)
        else:
            nums, den = _gather(self.terms, *parts)
            out = np.array([Fraction(x, den) for x in nums.tolist()], dtype=object)
        out = out.reshape(n, n)
        return out if isinstance(T, np.ndarray) else out.tolist()

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
