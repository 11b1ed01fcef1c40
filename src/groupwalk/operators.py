"""Convolution Markov operators, their spectra, and the matrix-level lift.

The right operator sends f to f * mu (steps multiply on the right), the
left operator f to mu * f.  Every operator here is one private walk value
(`_Walk`), x -> sum_k w_k x[perm_k], whose weights are checked to sum to 1
once, when `_walk` builds it.  `ConvolutionOperator.stencil()` is a
measure's walk over the group's `right_perm(h)` or `left_perm(h)` (-1 where
a product leaves a ball truncation), each row shared read-only by the
operators built together; `_lifted` (perm[i]*n + perm[j] on the n^2 entries
of an array), `_stacked` (a disjoint union, each walk keeping its own
denominator) and `_two_sided` ([left, right]) build the others, and the one
`_gather` applies them all.  `component_kernel` reads only the
permutations: one labelling of the connected classes of x -- perm[x], by
the numpy union-find that also clusters eigenvalues, gives a walk's exact
+-1 eigenspaces and generation, kept on the operator; several walks are
labelled by one call.

An exact `GroupFunction` is an integer numerator array over one positive
denominator (plus a `defined` mask for partial ball results); `_gather`
sums the walk on the numerators, in int64 when no partial sum can reach
2**63 and on Python ints otherwise.  No exact step builds a Fraction per
entry; the `values` list is only a read view.  `apply` steps a function on
a finite group, `apply_truncated` on a ball: its interior is an int64 array.

Every walk acts on its measure's own group object and refuses any other
(`_require_own_group`); only a finite group takes one (`_require_finite`).
`right_operator` and `left_operator` return one memoised operator per
(measure, side), kept on the measure, so every task on one measure shares
its stencil, its read-only dense matrix, its spectrum report and its
eigenvalues and eigenpair residuals, solved once on every finite group by
one path: one r x r block per character of an abelian subgroup of index
r, built once by one fftn and factored, residuals included, by one
batched eigensolve for all the operators of one `solve_spectra` call,
with no n x n matrix; `eigenspace` off +-1 lifts the null vectors v of
the same blocks to f(a^kappa g_i) = chi_k(a^kappa) v_i (at x^-1 for the
left walk).
Dense allocations are estimated first and refused above DENSE_BYTES_BUDGET.
"""

from __future__ import annotations

import math
import numbers
import sys
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .groups import BLOCK_ENTRIES, ConstructionError, _classes, _require_finite, _roots, _union
from .linalg import ComputationError
from .measures import _require_unit_steps, is_symmetric

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
    "spectra",
    "solve_spectra",
    "WalkClasses",
    "component_kernel",
    "label_walks",
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


def _require_tolerance(name, value, error=ValueError):
    """Refuse a bool or a value that is not a finite positive real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value <= sys.float_info.max:
        raise error(f"{name} must be a finite positive number, got {value!r}")


def _is_exact_value(x):
    return isinstance(x, (Fraction, int)) and not isinstance(x, bool)


def _as_array(values):
    if any(isinstance(v, complex) for v in values):
        return np.array([complex(v) for v in values])
    return np.array([float(v) for v in values])


_INT64_LIMIT = 1 << 63


def _max_abs(nums):
    """max |x| over a numerator array (0 when empty), as a Python int."""
    if not nums.size:
        return 0
    if nums.dtype == object:
        return max(map(abs, nums.ravel().tolist()))
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


class _Walk(NamedTuple):
    """The Markov operator x -> sum_k w_k x[perms[k]] on n nodes: one float
    weight and one index array per term (int32 on a ball, else int64) and,
    for exact weights, integer numerators nums[k] over one denominator (per
    walk in a stack, which has no float weights)."""

    n: int
    weights: tuple
    perms: object
    nums: object = None
    den: object = None


def _walk(n, perms, weights, where):
    """The walk of one weight per permutation: exact when every weight is
    an int or a Fraction, its numerators over their least common
    denominator refused unless they sum to it (the one check that a walk's
    weights sum to 1); float otherwise."""
    parts = _exact_parts(weights)
    if parts is None:
        return _Walk(n, tuple(map(float, weights)), perms)
    nums, den = parts
    if sum(nums.tolist()) != den:
        raise ComputationError(f"a stencil {where} has weights that do not sum to 1")
    return _Walk(n, tuple(x / den for x in nums.tolist()), perms, nums, den)


def _lifted(walk, what):
    """The walk on the n^2 entries of a row-major n x n array, entry (i, j)
    reading (perm[i], perm[j]), budgeted first (`what` names it)."""
    n, perms = walk.n, np.array(walk.perms)
    require_dense_budget((len(perms), n * n), 8, what)
    return walk._replace(n=n * n, perms=(perms[:, :, None] * n + perms[:, None, :]).reshape(len(perms), n * n))


def _stacked(walks):
    """The disjoint union of walks on n nodes each, walk j on the nodes
    j n .. j n + n - 1: one walks x n index array per term, and numerators
    and denominators per walk (no common denominator is formed), shaped to
    broadcast over gathered blocks (walks x nodes x columns).  A walk with
    fewer terms is padded with its first permutation at numerator 0."""
    n, size = walks[0].n, max(len(walk.perms) for walk in walks)
    pad = [size - len(walk.perms) for walk in walks]
    perms = np.array([[*walk.perms, *[walk.perms[0]] * k] for walk, k in zip(walks, pad)]).transpose(1, 0, 2)
    perms = perms + n * np.arange(len(walks))[:, None]
    if any(walk.nums is None for walk in walks):
        return _Walk(len(walks) * n, None, perms)
    dtype = np.int64 if max(walk.den for walk in walks) < _INT64_LIMIT else object
    nums = np.array([[*walk.nums.tolist(), *[0] * k] for walk, k in zip(walks, pad)], dtype=dtype)
    den = np.array([walk.den for walk in walks], dtype=dtype)
    return _Walk(len(walks) * n, None, perms, nums.T[..., None, None], den[:, None, None])


def _two_sided(group, measures):
    """The two-sided walks [left, right] (f -> mu * f * mu) of measures on
    group, each operator built once, their stencils in one call."""
    ops = [[_operator(group, mu, side) for side in ("left", "right")] for mu in measures]
    _build_stencils([op for pair in ops for op in pair])
    return [[op.stencil() for op in pair] for pair in ops]


def _gather(walk, values, den=None):
    """sum_k w_k * values[perms[k]] over a walk, for 1-D values or a row
    block (nodes x columns; a stack takes row blocks and gives one block per
    walk).  Exact when den is given: values holds integer numerators over
    den, the result is (numerators, den * walk.den), and the sum runs in
    int64 when max|values| times the largest denominator (the sum of the
    numerators) stays below 2**63, else on Python ints.  Otherwise values is
    a float or complex array (sequences are converted), summed in walk order
    from 0.
    """
    if den is None:
        values = values if isinstance(values, np.ndarray) else _as_array(values)
        return sum(w * values[perm] for w, perm in zip(walk.weights, walk.perms))
    values = _fit(values, max(_max_abs(values), 1) * int(np.max(walk.den)))
    return sum(c * values[perm] for c, perm in zip(walk.nums, walk.perms)), den * walk.den


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
        if not np.array_equal(self._mask()[idx], other._mask()[idx]):
            return False
        mine, theirs = _fit(self._nums[idx], bound), _fit(other._nums[idx], bound)
        mine *= other._den  # in place: indexing made both arrays fresh copies
        theirs *= self._den
        return bool(np.array_equal(mine, theirs))

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
    is g*h for the right walk and h*g for the left walk.  The measure must
    live on this group object (`_require_own_group`).
    """

    def __init__(self, group, measure, side):
        if side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', got {side!r}")
        _require_own_group(group, measure)
        self.group = group
        self.side = side
        self.weights = measure.weights
        self.exact = measure.exact
        self.symmetric = is_symmetric(measure)
        self._measure = weakref.ref(measure)
        self._float_matrix = None
        self._stencil = None
        self._eigen = None
        self._walk = None
        self._report = None

    @property
    def measure(self):
        """The measure while it lives (held weakly: its memo holds this operator)."""
        return self._measure()

    def stencil(self):
        """The walk value (`_Walk`), one term per support element in sorted
        support order; perm[g] is g*h (right) or h*g (left), and -1 where
        that product leaves a ball truncation (`_build_stencils`)."""
        if self._stencil is None:
            _build_stencils([self])
        return self._stencil

    def exact_matrix(self):
        """Row-stochastic Fraction matrix: rows index g, columns index x.
        No run path builds it; it is the tests' elimination oracle."""
        if not self.exact:
            raise ComputationError(f"{self.side} operator on {self.group.name} has float weights")
        n, walk = self.group.order, self.stencil()
        rows = [[Fraction(0)] * n for _ in range(n)]
        for num, perm in zip(walk.nums.tolist(), walk.perms):
            for g, x in enumerate(perm.tolist()):
                rows[g][x] += Fraction(num, walk.den)
        return rows

    def as_array(self):
        """Dense float matrix (rows g, columns x), built once and read-only:
        the operator is shared by every task on its measure."""
        if self._float_matrix is None:
            n = self.group.order
            require_dense_budget((n, n), 8, f"the {self.side} operator on {self.group.name}")
            mat, walk = np.zeros((n, n)), self.stencil()
            for w, perm in zip(walk.weights, walk.perms):
                mat[np.arange(n), perm] += w
            mat.flags.writeable = False
            self._float_matrix = mat
        return self._float_matrix

    def eigenvalues(self):
        """(eigenvalues, residuals), computed once by `solve_spectra([self])`."""
        if self._eigen is None:
            solve_spectra([self])
        return self._eigen

    def classes(self):
        """The walk's certified classes (component_kernel), labelled once by
        `label_walks([self])`: the exact +-1 eigenspaces and generation."""
        if self._walk is None:
            label_walks([self])
        return self._walk

    def __repr__(self):
        return f"<ConvolutionOperator {self.side} on {self.group.name}>"


def _character_blocks(ops):
    """(ks, B_k) of `solve_spectra`: one column k and one block per
    character, operator by operator, budgeted before any step is built."""
    group, m = ops[0].group, len(ops)
    orders, coset, kappa = group.abelian_cosets()
    reps = np.flatnonzero(~kappa.any(axis=1))
    r, size = len(reps), group.order // len(reps)
    require_dense_budget((m * size, r, r), 16, f"the character blocks on {group.name}")
    supports = [sorted(op.weights) for op in ops]
    which = np.repeat(np.arange(m), [len(s) for s in supports])  # each step's operator
    weights = np.array([float(op.weights[h]) for op, s in zip(ops, supports) for h in s])
    hs = [group.inv(h) if op.side == "left" else h for op, s in zip(ops, supports) for h in s]
    steps = group._products(reps, np.array(hs)[:, None])  # g_i s_h for every step s_h
    table = np.zeros((m, *orders, r, r))
    at = (which[:, None], *np.moveaxis(kappa[steps], -1, 0), np.arange(r), coset[steps])
    table[at] = weights[:, None]
    ks = np.indices(orders).reshape(len(orders), size)
    neg = np.ravel_multi_index(-ks % np.array(orders)[:, None], orders)  # -k, flat
    blocks = np.fft.fftn(table, axes=range(1, len(orders) + 1)).reshape(m, size, r, r)[:, neg]
    real = neg == np.arange(size)
    blocks[:, real] = blocks[:, real].real
    return ks, blocks.reshape(m * size, r, r)


def _require_one_group(ops, who):
    if len({id(op.group) for op in ops}) > 1:
        raise ValueError(f"{who} needs one group object, got {', '.join(op.group.name for op in ops)}")


def solve_spectra(ops):
    """Solve the eigenvalues and eigenpair residuals of several operators
    on one group object together (those not yet solved; operators on two
    group objects are refused), from one r x r block per character
    chi_k(a^kappa) = exp(2 pi i sum_j k_j kappa_j / n_j) of the abelian
    subgroup A of `group.abelian_cosets()`, r = n / |A| (Diaconis 1988,
    ch. 3; Serre 1977, sections 5.3 and 7).  The right walk commutes with
    left translation by A, so on the functions with f(a x) = chi(a) f(x)
    it acts as B_k[i, i'] = sum of mu(h) chi_k(a^kappa) over the h with
    g_i s_h = a^kappa g_i', the step s_h = h; conjugated by x -> x^-1, the
    left walk is the right walk of the reflected measure, s_h = h^-1.  One
    fftn over the character axes of T[op, kappa, i, i'] = mu(h), read at
    -k, gives every block (`_character_blocks`); real characters keep the
    real part, and the blocks of symmetric measures are Hermitian (one
    eigh; one eig for the rest).  residuals[i] is |B v - lambda v| / |v|
    for the i-th block eigenpair on the factored block: the residual of
    the lifted eigenvector f(a^kappa g_i) = chi_k(a^kappa) v_i.  Each block
    is solved as it would be alone.
    """
    _require_one_group(ops, "solve_spectra")
    todo = [op for op in ops if op._eigen is None]
    if not todo:
        return
    group, m = todo[0].group, len(todo)
    ks, blocks = _character_blocks(todo)
    symmetric = np.repeat([op.symmetric for op in todo], ks.shape[1])
    eigvals, vecs = np.empty(blocks.shape[:2], dtype=complex), np.empty_like(blocks)
    try:
        for kind, solve in ((symmetric, np.linalg.eigh), (~symmetric, np.linalg.eig)):
            if kind.any():
                eigvals[kind], vecs[kind] = solve(blocks[kind])
    except np.linalg.LinAlgError as exc:
        raise ComputationError(f"eigensolver failed for the walks on {group.name}: {exc}") from exc
    residuals = np.linalg.norm(blocks @ vecs - vecs * eigvals[:, None, :], axis=1)
    residuals /= np.linalg.norm(vecs, axis=1)
    eigvals.flags.writeable = False
    for op, values, res in zip(todo, eigvals.reshape(m, -1), residuals.reshape(m, -1)):
        op._eigen = (values, tuple(res.tolist()))


def _require_own_group(group, mu):
    """Refuse a walk of mu on any group object but its own, so every memo on mu holds for one group."""
    if mu.group is not group:
        raise ValueError(f"a measure on {mu.group.name} does not walk on {group.name}: not its group object")


def _operator(group, mu, side):
    """mu's memoised operator on one side, on mu's own group."""
    _require_own_group(group, mu)
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
    """Apply one convolution step of a measure on a ball truncation.

    Returns (result, interior) where interior is the int64 array of the
    indices g at which every required product stays in the ball and f is
    defined there; the result holds None outside the interior.
    """
    if not group.is_truncated:
        raise ConstructionError("apply_truncated requires a ball truncation; use apply instead")
    op = _operator(group, mu, side)
    if f.group is not group:
        raise ValueError("function and ball live on different groups")
    _require_unit_steps(group, mu.weights)
    walk = op.stencil()
    # index -1 (a product outside the ball) reads the undefined last slot
    defined = np.append(f._mask(), False)
    inside = np.logical_and.reduce([defined[perm] for perm in walk.perms])
    if mu.exact and f.is_exact:
        nums, den = _gather(walk, np.append(f._nums, 0), f._den)
        out = GroupFunction._from_numerators(group, np.where(inside, nums, 0), den, inside)
    else:
        total = _gather(walk, np.append(f._float(), 0))
        out = GroupFunction._from_array(group, np.where(inside, total, 0), inside)
    return out, np.flatnonzero(inside)


@dataclass(frozen=True)
class EigenvalueRecord:
    value: complex
    multiplicity: int
    residual: float
    peripheral: bool  # modulus >= 1 - PERIPHERAL_TOL

    def to_json(self):
        return {
            "re": self.value.real,
            "im": self.value.imag,
            "multiplicity": self.multiplicity,
            "residual": self.residual,
            "peripheral": self.peripheral,
        }


@dataclass
class SpectralReport:
    eigenvalues: list
    peripheral: list


def _sort_key(z):
    # an angle rounding to 2 pi is 0: the sign of an imaginary rounding error cannot move it
    angle = round(math.atan2(z.imag, z.real) % (2 * math.pi), 9) % round(2 * math.pi, 9)
    return (-round(abs(z), 9), angle)


def _sort_order(values, owner=0):
    """The stable order of complex values by (owner, _sort_key), on arrays.

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
    return np.lexsort((angles, mags, np.broadcast_to(owner, values.shape)))


def _clusters(values, owner=0):
    """Single-linkage clusters at CLUSTER_TOL of complex values, joined
    only within one owner (an operator number).

    Returns (members, labels): the indices of values grouped by cluster,
    each cluster's in (re, im) order and clusters in the order of their
    first member, owner by owner, and the cluster number of each.  Equal
    values of one owner are collapsed first, and a sweep over the distinct
    values in (owner, re, im) order compares each with the successors of
    its owner whose real parts lie within CLUSTER_TOL, one offset at a
    time, and joins close pairs in a union-find forest whose parents point
    to smaller positions, so every root is the first member of its cluster.
    """
    owner = np.broadcast_to(owner, values.shape)
    order = np.lexsort((values.imag, values.real, owner))
    z, who = values[order], owner[order]
    fresh = np.ones(len(z), dtype=bool)
    fresh[1:] = (z[1:] != z[:-1]) | (who[1:] != who[:-1])
    z, who = z[fresh], who[fresh]
    n = len(z)
    parent = np.arange(n)
    for d in range(1, n):
        near = (who[d:] == who[:-d]) & (z.real[d:] - z.real[:-d] <= CLUSTER_TOL)
        if not near.any():
            break
        lo = np.flatnonzero(near & (np.abs(z[d:] - z[:-d]) <= CLUSTER_TOL))
        _union(parent, lo, lo + d)
    _, labels = np.unique(_roots(parent, np.arange(n)), return_inverse=True)
    labels = labels[np.cumsum(fresh) - 1]
    grouped = np.argsort(labels, kind="stable")
    return order[grouped], labels[grouped]


def spectrum(op, tol=1e-9):
    """Full eigenvalue report with residual certificates: `spectra([op], tol)`."""
    return spectra([op], tol)[0]


def spectra(ops, tol=1e-9):
    """One SpectralReport per operator (all on one group object), built once
    per operator by one array pass over the eigenvalues (`solve_spectra`,
    done once) of those that have none, and kept on it.

    Eigenvalues of one operator joined by a chain of steps of at most
    CLUSTER_TOL (1e-7) form one record: their mean, with the cluster size
    as multiplicity, flagged peripheral at modulus >= 1 - PERIPHERAL_TOL;
    the peripheral list keeps the flagged values.  Every call checks every
    operator against its own tol, a finite positive number: the residuals,
    and for each operator on n elements, within n tol, sum lambda = tr P =
    n mu(e) and sum lambda^2 = tr P^2 = n sum_h mu(h) mu(h^-1), which tie
    the blocks to the walk where a residual on 1 x 1 blocks cannot."""
    _require_tolerance("tol", tol)
    solve_spectra(ops)
    if not ops:
        return []
    group, n = ops[0].group, ops[0].group.order
    eigvals, residuals = (np.array([op._eigen[i] for op in ops]) for i in (0, 1))
    power_sums = zip(eigvals.sum(axis=1).tolist(), (eigvals * eigvals).sum(axis=1).tolist())
    for op, worst, sums in zip(ops, residuals.max(axis=1).tolist(), power_sums):
        where = f"for the {op.side} operator on {group.name}"
        if worst > tol:
            raise ComputationError(f"eigenpair residual {worst:.3e} exceeds tol {tol:.3e} {where}")
        mu = {h: float(w) for h, w in op.weights.items()}
        traces = (mu.get(group.identity, 0.0), sum(w * mu.get(group.inv(h), 0.0) for h, w in mu.items()))
        for power, gap in enumerate((abs(total - n * trace) for total, trace in zip(sums, traces)), 1):
            if not gap <= n * tol:
                raise ComputationError(f"eigenvalue power sum {power} misses tr P^{power} by {gap:.3e} {where}")
    fresh = [j for j, op in enumerate(ops) if op._report is None]
    if not fresh:
        return [op._report for op in ops]
    todo, eigvals, residuals = [ops[j] for j in fresh], eigvals[fresh], residuals[fresh]
    owner = np.repeat(np.arange(len(todo)), n)
    members, labels = _clusters(eigvals.ravel(), owner)
    sizes = np.bincount(labels)
    # np.add.at adds in member order from 0, as sum() does; dividing each
    # part by the size is what complex division by a real size does
    sums = np.zeros(len(sizes), dtype=complex)
    np.add.at(sums, labels, eigvals.ravel()[members])
    means = np.empty(len(sizes), dtype=complex)
    means.real, means.imag = sums.real / sizes, sums.imag / sizes
    worst = np.full(len(sizes), -np.inf)
    np.maximum.at(worst, labels, residuals.ravel()[members])
    owner = owner[members[np.cumsum(sizes) - sizes]]  # each cluster's operator
    values, counts, worst, owners = means.tolist(), sizes.tolist(), worst.tolist(), owner.tolist()
    records = [[] for _ in todo]
    for i in _sort_order(means, owner).tolist():
        peripheral = abs(values[i]) >= 1.0 - PERIPHERAL_TOL
        records[owners[i]].append(EigenvalueRecord(values[i], counts[i], worst[i], peripheral))
    for op, recs in zip(todo, records):
        op._report = SpectralReport(recs, [r.value for r in recs if r.peripheral])
    return [op._report for op in ops]


class WalkClasses(NamedTuple):
    """One walk's certified classes: rows[0][g] is the +1 basis array that
    holds g, rows[1][g] the -1 basis array that holds g (-1 off the
    bipartite classes), and sign[g] g's entry there."""

    rows: np.ndarray
    sign: np.ndarray

    def count(self, lam):
        return int(self.rows[int(lam < 0)].max()) + 1

    def basis(self, lam, where):
        """The lam = +-1 eigenspace basis, one int64 row per array, budgeted first."""
        rows, shape = self.rows[int(lam < 0)], (self.count(lam), self.rows.shape[1])
        require_dense_budget(shape, 8, f"the {lam:+d} eigenspace basis {where}")
        out, kept = np.zeros(shape, dtype=np.int64), np.flatnonzero(rows >= 0)
        out[rows[kept], kept] = self.sign[kept] if lam < 0 else 1
        return out


def component_kernel(walks, where):
    """The certified classes (WalkClasses) of every walk P = stencils[0] o
    stencils[1] o ... in a list of walks with one number of stencils, each
    a walk value on one number n of nodes, of which only the permutations
    are read.  They give the exact bases of ker(P - I) and ker(P + I).

    P is a positive combination of the composite stencil's permutations
    (g -> q[perm[g]] over every pair of terms), so eigenspace's theorem
    applies to the graph g -- perm(g).  A class is bipartite exactly when
    g and (g, 1) fall in different classes of the double cover
    (g, 0) -- (perm(g), 1); its +1 label is the smaller of the two.  The
    classes are labelled from the composites that leave the first term of
    all stencils but at most one: with c the composite of the first terms
    and P_j,i the composite that takes term i of stencil j instead,
    s_1,i_1 o ... o s_m,i_m = P_1,i_1 c^-1 P_2,i_2 c^-1 ... P_m,i_m, so both
    sets generate one group and have one set of classes, also on the cover,
    where the flip rides on one factor.  The walks are labelled by one
    `_classes` call on their `_stacked` union, whose padding adds no edge.
    A basis holds one array per class (per bipartite class for -1), ordered
    by each class's largest index: its indicator, or its colouring with +1
    at its smallest index, as in the free-column basis of rational_nullspace
    with each vector's first nonzero entry scaled to 1.

    Every array is certified P v = +-v exactly by a pass over the
    composites q of all walks, a block of BLOCK_ENTRIES (at least one first
    term) at a time: every q keeps every class label and flips every sign
    on the bipartite classes, so (P v)(g) = sum_q w_q v(q g) = +-v(g) for
    any weights that sum to 1.  `where` names the nodes in messages ("on D4").
    """
    if not walks:
        return []
    if len({len(stencils) for stencils in walks}) > 1:
        raise ValueError(f"walks {where} must have one number of stencils")
    n, total = walks[0][0].n, len(walks) * walks[0][0].n
    stencils = [_stacked([s[j] for s in walks]).perms.reshape(-1, total) for j in range(len(walks[0]))]
    step = max(1, BLOCK_ENTRIES // (math.prod(map(len, stencils[1:])) * total))  # first terms per block
    require_dense_budget((min(step, len(stencils[0])), *map(len, stencils[1:]), total), 8, f"the composite stencil {where}")
    cover, inner = np.empty((0, 2 * total), dtype=np.int64), np.arange(total)
    for j, terms in enumerate(stencils):  # the composites that leave one first term
        part = terms[:, inner]
        for outer in stencils[j + 1:]:
            part = outer[0][part]
        cover = np.concatenate([cover, np.hstack([part + total, part])])  # both sheets
        inner = terms[0][inner]
    cover = _classes(2 * total, cover)
    even, odd = cover[:total], cover[total:]
    classes = np.minimum(even, odd)
    sign = np.where(even == classes, 1, -1)
    bipartite = even != odd
    for start in range(0, len(stencils[0]), step):
        perms = stencils[0][start:start + step]
        for terms in stencils[1:]:
            perms = terms[:, perms].reshape(-1, total)
        if not (classes[perms] == classes).all():
            raise ComputationError(f"a class vector {where} failed P f = 1 f")
        if not (sign[perms] == -sign)[:, bipartite].all():
            raise ComputationError(f"a class vector {where} failed P f = -1 f")
    rows, rank = np.full((2, total), -1), np.empty(total, dtype=np.int64)
    for row, kept in zip(rows, (np.ones(total, dtype=bool), bipartite)):
        last = np.full(total, -1)
        np.maximum.at(last, classes[kept], np.flatnonzero(kept))
        labels = np.flatnonzero(last >= 0)
        labels = labels[np.argsort(last[labels])]  # basis order, walk by walk
        rank[labels] = np.arange(len(labels)) - np.searchsorted(labels // n, labels // n)
        row[kept] = rank[classes[kept]]
    rows, sign = rows.reshape(2, len(walks), n), sign.reshape(len(walks), n)
    return [WalkClasses(rows[:, j], sign[j]) for j in range(len(walks))]


def _build_stencils(ops):
    """Build, each budgeted first, the walks that operators lack: one
    whole-permutation product per group, side and support element, read-only
    and shared by every operator that steps by it."""
    todo, perms = [op for op in ops if op._stencil is None], {}
    for op in todo:
        require_dense_budget((len(op.weights), op.group.order), 8, f"the {op.side} stencil on {op.group.name}")
    for op in todo:
        for h in op.weights:
            if (op.group, op.side, h) not in perms:
                perm = (op.group.right_perm if op.side == "right" else op.group.left_perm)(h)
                perm.flags.writeable = False
                perms[op.group, op.side, h] = perm
        support = sorted(op.weights)
        op._stencil = _walk(op.group.order, tuple(perms[op.group, op.side, h] for h in support),
                            [op.weights[h] for h in support], f"on {op.group.name}")


def label_walks(ops):
    """Label the walks of several operators on one group object together
    (operators on two are refused): one component_kernel call for those
    not yet labelled, kept on each."""
    _require_one_group(ops, "label_walks")
    todo = [op for op in ops if op._walk is None]
    if todo:
        group = todo[0].group
        _build_stencils(todo)
        walks = component_kernel([[op.stencil()] for op in todo], f"on {group.name}")
        for op, walk in zip(todo, walks):
            op._walk = walk


def eigenspace(op, lam, tol=1e-9):
    """Basis of the lam-eigenspace of a convolution operator.

    Exact for lam = 1 or -1, for float weights too, by the maximum
    principle for the doubly stochastic P = sum_h w_h perm_h with every
    w_h > 0 (Seneta, Non-negative Matrices and Markov Chains, 1981, ch. 1;
    Horn and Johnson, Matrix Analysis, ch. 8): P f = f exactly when f is
    constant on each connected class of the graph g -- perm_h(g), and
    P f = -f exactly when f is, on each class, a multiple of a +-1
    colouring that flips along every edge, and 0 on the classes that have
    none.  The dimension rests on this theorem, not on the weights;
    component_kernel labels the classes and certifies P v = lam v exactly
    for every vector.  Both bases come from the operator's one labelling
    (`op.classes()`), which is_generating reads too.  Otherwise the null
    vectors v of `solve_spectra`'s blocks B_k - lam I (one batched SVD at
    tol) lift to f(a^kappa g_i) = chi_k(a^kappa) v_i, at x^-1 on the left,
    each divided by its first entry of modulus at least 1e-8 times its
    largest: the entry at the identity (index 0) unless that is round-off,
    so no vector is scaled up by the inverse of a round-off entry.
    Returns [] when lam is not an eigenvalue.
    """
    if isinstance(lam, bool) or not math.isfinite(abs(lam)):
        raise ValueError(f"lam must be a finite number, got {lam!r}")
    _require_tolerance("tol", tol)
    group = op.group
    if lam in (1, -1):
        basis = op.classes().basis(1 if lam == 1 else -1, f"on {group.name}")
        return [GroupFunction._from_numerators(group, vec) for vec in basis]
    ks, blocks = _character_blocks([op])
    _, sing, vh = np.linalg.svd(blocks - complex(lam) * np.eye(blocks.shape[-1]))
    k, j = np.nonzero(sing <= tol)
    orders, coset, kappa = group.abelian_cosets()
    at = group._inverses(np.arange(group.order)) if op.side == "left" else np.arange(group.order)
    require_dense_budget((len(k), group.order, len(orders)), 16, f"the {lam} eigenspace on {group.name}")
    angle = (ks.T[k, None] * kappa[at] % orders / orders).sum(axis=-1)
    lifted = np.exp(2j * np.pi * angle) * vh[k, j].conj()[:, coset[at]]
    mags = np.abs(lifted)
    lead = (mags >= 1e-8 * mags.max(axis=1, keepdims=True)).argmax(axis=1)
    lifted /= lifted[np.arange(len(k)), lead][:, None]
    return [GroupFunction._from_array(group, v.real if np.allclose(v.imag, 0, atol=1e-12) else v) for v in lifted]


class OperatorOnMatrices:
    """Weighted conjugation by regular-representation permutations.

    side "right": T -> sum_g mu(g) rho_g T rho_g^*, which on diagonal
    arrays reproduces f -> f * mu.  side "left": T -> sum_g mu(g)
    lambda_g^* T lambda_g, reproducing f -> mu * f on diagonals.  `walk` is
    the walk of the convolution operator on the same side, lifted to the
    n^2 entries; component_kernel reads the exact +-1 arrays off it.
    """

    def __init__(self, group, measure, side):
        _require_finite(group, "OperatorOnMatrices")
        self.group = group
        self.measure = measure
        self.side = side
        self.walk = _lifted(_operator(group, measure, side).stencil(), f"the lifted {side} stencil on {group.name}")

    def apply(self, T):
        """Apply to an order-by-order array: ndarrays give ndarrays and
        nested lists give nested lists, exact when the measure and every
        list entry are exact."""
        n = self.group.order
        flat = T.ravel() if isinstance(T, np.ndarray) else [x for row in T for x in row]
        parts = _exact_parts(flat) if self.measure.exact else None
        if parts is None:
            out = _gather(self.walk, flat)
        else:
            nums, den = _gather(self.walk, *parts)
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
    return best_g, GroupFunction._from_array(group, vec.real if np.allclose(vec.imag, 0, atol=1e-14) else vec)
