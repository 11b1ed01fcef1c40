"""Harmonic, anti-harmonic, and bi-harmonic structure of convolution walks.

A function is harmonic when f * mu = f, anti-harmonic when f * mu = -f, and
jointly bi-harmonic when mu * f * mu = f.  Anti-harmonic functions are tied
to sign characters that are -1 on the support; the peripheral boundary
packages the +1 and -1 eigenspaces with their projected product.  The
exact eigenspaces are read off the connected classes of the walk
(operators.component_kernel): indicators of the classes for +1, +-1
colourings of the bipartite classes for -1.  The labelling reads no
weights, so a float measure gets the exact bases of its exact twin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .groups import _parity, _require_finite
from .measures import _UNSEARCHED, _require_unit_steps, is_generating, is_symmetric
from .operators import (
    ComputationError,
    GroupFunction,
    _fit,
    _function_values,
    _max_abs,
    _operator,
    _require_own_group,
    _two_sided,
    apply,
    component_kernel,
    eigenspace,
    left_operator,
    right_operator,
)

__all__ = [
    "Character",
    "Decomposition",
    "BoundaryBasis",
    "MonotoneAbsReport",
    "harmonic_space",
    "anti_harmonic_space",
    "jointly_biharmonic_space",
    "two_sided_classes",
    "decompose",
    "find_anti_character",
    "character_from_extremal",
    "factor_anti_harmonic",
    "peripheral_boundary",
    "diamond",
    "monotone_abs_check",
    "jensen_margins",
]


@dataclass
class Character:
    """Sign character: values in {+1, -1}, 1 at the identity, multiplicative.
    `values` is a list; the methods read one read-only int64 array of them."""

    group: object
    values: list

    def __post_init__(self):
        chi = np.asarray(self.values)
        if chi.shape != (self.group.order,):
            raise ValueError("character has the wrong number of values")
        if not ((chi == 1) | (chi == -1)).all():
            raise ValueError("character values must be +1 or -1")
        if chi[self.group.identity] != 1:
            raise ValueError("character must be 1 at the identity")
        self._chi = chi.astype(np.int64)
        self._chi.flags.writeable = False
        if not isinstance(self.values, list):
            self.values = self._chi.tolist()

    def __call__(self, g):
        return self.values[g]

    def kernel(self):
        return np.flatnonzero(self._chi == 1).tolist()

    def as_function(self):
        return GroupFunction._from_numerators(self.group, self._chi)

    def is_constant(self):
        return bool((self._chi == 1).all())

    def validate(self):
        """Check exactly that chi is a homomorphism to {+1, -1}.

        chi(e) = 1, and chi(g t) = chi(g) chi(t) for every g and each t of
        generating_set (finite groups) or each positive family generator
        (balls, wherever g t lies in the ball).  The check is complete:
        every element is reached from e by generator steps, and on a ball
        by steps inside the ball (the prefixes of a reduced word, or a
        monotone lattice path), so chi is the restriction of a
        homomorphism and multiplicative wherever mul is defined.
        """
        group, chi = self.group, self._chi
        gens = group.generators() if group.is_truncated else group.generator_masks()[0]
        perms = map(group.right_perm, gens) if group.is_truncated else group.generator_masks()[3]
        for t, perm in zip(gens, perms):
            inside = np.flatnonzero(perm >= 0)
            bad = inside[chi[perm[inside]] != chi[inside] * chi[t]]
            if len(bad):
                raise ValueError(f"character is not multiplicative at ({bad[0]}, {t})")
        if not group.is_truncated and not self.is_constant():
            if 2 * np.count_nonzero(chi == 1) != group.order:
                raise ValueError("nonconstant character kernel must have index 2")
        return True

    def to_json(self):
        return {"kernel_index": self.kernel(), "values": self._chi.tolist()}


@dataclass
class Decomposition:
    """Split f = harmonic_part + anti_part with T0 = (f + f*mu)/2."""

    f: GroupFunction
    harmonic_part: GroupFunction
    anti_part: GroupFunction
    constant: object = None


@dataclass
class BoundaryBasis:
    """Joint basis of the +1 and -1 eigenspaces with the projected product.

    table[i][j] holds the coefficients of basis[i] <> basis[j] over the full
    basis (entries outside the matching sign block are zero).
    """

    group: object
    measure: object
    functions: list
    tags: list
    table: list
    dimension: int

    def product(self, i, j):
        return _combination(self.group, self.table[i][j], self.functions)

    def to_json(self):
        return {
            "dimension": self.dimension,
            "tags": list(self.tags),
            "functions": [_function_values(fn) for fn in self.functions],
            "table": [[[str(c) for c in cell] for cell in row] for row in self.table],
        }


@dataclass
class MonotoneAbsReport:
    """Pointwise monotonicity flags and sup gaps of the iterated |f|."""

    monotone: list
    sup_gaps: list


def _fixed_space(group, walk):
    """The fixed-space layout of a walk's classes C_0 .. C_(m-1) (in basis
    order): 1, then the indicators of every class but the last."""
    basis = walk.basis(1, f"on {group.name}")[:-1]
    one = GroupFunction.constant(group, Fraction(1))
    return [one] + [GroupFunction._from_numerators(group, vec) for vec in basis]


def _fixed_coefficients(means):
    """sum_i means[i] 1_(C_i) over _fixed_space: the last mean on 1, each
    other mean minus it on its class."""
    return [means[-1]] + [a - means[-1] for a in means[:-1]]


def harmonic_space(group, mu, side="right"):
    """Exact basis of the fixed space {f : P f = f} in the _fixed_space
    layout of the walk's classes."""
    _require_finite(group, "harmonic_space")
    return _fixed_space(group, _operator(group, mu, side).classes())


def anti_harmonic_space(group, mu, side="right"):
    """Exact basis of {f : P f = -f}; empty when -1 is not an eigenvalue."""
    _require_finite(group, "anti_harmonic_space")
    return eigenspace(_operator(group, mu, side), -1)


def jointly_biharmonic_space(group, mu):
    """Exact basis of {f : mu * f * mu = f} in the _fixed_space layout of
    the classes of the two-sided walk g -> h1 g h2 (kept on mu)."""
    _require_finite(group, "jointly_biharmonic_space")
    return _fixed_space(group, two_sided_classes(group, [mu])[0])


def two_sided_classes(group, measures):
    """The classes of the two-sided walks left o right (`_two_sided`) of
    several measures on group, labelled by one component_kernel call for
    those not yet labelled and kept on each measure."""
    for mu in measures:
        _require_own_group(group, mu)
    todo = [mu for mu in measures if mu._two_sided is None]
    for mu, walk in zip(todo, component_kernel(_two_sided(group, todo), f"on {group.name}")):
        mu._two_sided = walk
    return [mu._two_sided for mu in measures]


def _close(f, g, exact, tol):
    if exact:
        return f == g
    return np.abs(f.as_array() - g.as_array()).max() <= tol


def decompose(f, mu, tol=1e-9):
    """Split a P^2-harmonic function into harmonic and anti-harmonic parts.

    T0 = (f + f*mu)/2 is fixed by P, T1 = (f - f*mu)/2 is negated by P.
    When mu is symmetric and generating and f is jointly bi-harmonic, T0
    must be constant and its value is returned as `constant`.  Raises
    ValueError when f * mu * mu != f, and ComputationError when that T0 is
    not constant.
    """
    group = f.group
    r_op = right_operator(group, mu)
    exact = mu.exact and f.is_exact
    if not exact:
        f = GroupFunction._from_array(group, f.as_array())
    rf = apply(r_op, f)
    rrf = apply(r_op, rf)
    if not _close(rrf, f, exact, tol):
        raise ValueError("decompose needs f * mu * mu = f (harmonic for the squared walk)")
    half = Fraction(1, 2) if exact else 0.5
    t0 = (f + rf).scale(half)
    t1 = (f - rf).scale(half)
    constant = None
    if is_symmetric(mu) and is_generating(mu):
        lrf = apply(left_operator(group, mu), rf)
        if _close(lrf, f, exact, tol):
            first = t0[0]
            if not _close(t0, GroupFunction.constant(group, first), exact, tol):
                raise ComputationError(
                    "harmonic part of a jointly bi-harmonic function failed to be constant"
                )
            constant = first
    return Decomposition(f, t0, t1, constant)


def find_anti_character(group, mu):
    """Sign character that is -1 on the support of mu, or None.

    On a finite group a sign character is fixed by its signs x_i on the k
    generators t_i of generating_set, with chi(g) the parity of x & mask[g]
    (FiniteGroup.generator_masks); the 2^k <= order assignments that meet
    every relation mask with even parity are exactly the homomorphisms to
    Z/2.  Those that are also odd on each support mask are walked in index
    order, keeping chi(g) = +1 wherever that is still open, which gives the
    lexicographically smallest character; validate() certifies it.  Ball
    truncations use one unknown per family generator; free-group generators
    carry no relations and lattice relations are vacuous.  mu must live on
    group itself, and the answer is kept on mu.
    """
    _require_own_group(group, mu)
    if mu._character is _UNSEARCHED:
        mu._character = _search_anti_character(group, mu)
    return mu._character


def _search_anti_character(group, mu):
    if group.is_truncated:
        return _find_anti_character_family(group, mu)
    signs, mask = group.sign_vectors(), group.generator_masks()[1]
    for m in set(mask[mu.support()].tolist()):
        signs = signs[_parity(signs & m) == 1]
    for m in mask.tolist():
        if len(signs) <= 1:
            break
        even = _parity(signs & m) == 0
        if even.any():
            signs = signs[even]
    if not len(signs):
        return None
    chi = Character(group, 1 - 2 * _parity(mask & signs[0]))
    chi.validate()
    return chi


def _find_anti_character_family(group, mu):
    _require_unit_steps(group, mu.weights)
    forced = np.zeros(group.family_key()[1], dtype=np.int64)
    for s in mu.support():
        if s == group.identity:
            return None  # identity in the support forces chi(e) = -1
        form = group.canonical_form(s)
        if group.family == "free":
            forced[abs(form[0]) - 1] = 1
        else:
            axis = next(i for i, x in enumerate(form) if x != 0)
            forced[axis] = 1
    chi = Character(group, 1 - 2 * group.parity(forced))
    chi.validate()
    return chi


def character_from_extremal(f, mu, tol=1e-9):
    """Recover the sign character from an extremal anti-harmonic function.

    Requires real f with sup norm <= 1 + tol attaining modulus >= 1 - tol
    and f * mu = -f within tol.  Translating the argmax to the identity and
    rounding must give an exactly multiplicative sign character that is -1
    on the support; anything else raises.
    """
    group = f.group
    op = right_operator(group, mu)
    if any(isinstance(v, complex) for v in f.values):
        raise ValueError("character_from_extremal needs a real-valued function")
    sup = f.sup_norm()
    if sup > 1 + tol:
        raise ValueError(f"sup norm {float(sup)} exceeds 1 + tol")
    if sup < 1 - tol:
        raise ValueError(f"max modulus {float(sup)} falls short of 1 - tol")
    rf = apply(op, f)
    residual = max(abs(a + b) for a, b in zip(rf.values, f.values))
    if residual > tol:
        raise ValueError(f"function is not anti-harmonic within tol (residual {float(residual)})")
    best = max(group.elements(), key=lambda g: (abs(f.values[g]), -g))
    base = f.values[best]
    values, translate = [], group.left_perm(best).tolist()
    for x in group.elements():
        ratio = f.values[translate[x]] / base
        sign = 1 if ratio > 0 else -1
        if abs(ratio - sign) > tol:
            raise ValueError(
                f"translated values are not within tol of +-1 at element {x} (got {float(ratio)})"
            )
        values.append(sign)
    chi = Character(group, values)
    chi.validate()
    for s in mu.support():
        if chi(s) != -1:
            raise ValueError(f"recovered character is not -1 on support element {s}")
    return chi


def factor_anti_harmonic(f, chi, mu, tol=1e-9):
    """Factor an anti-harmonic f as f1 * chi with f1 harmonic; returns f1.

    chi must be -1 on the support of mu.  Since chi * chi = 1, the inverse
    map is the plain product h * chi of a harmonic h with the character.
    """
    for s in mu.support():
        if chi(s) != -1:
            raise ValueError(f"character is not -1 on support element {s}")
    exact = mu.exact and f.is_exact
    r_op = right_operator(f.group, mu)
    if not _close(apply(r_op, f), -f, exact, tol):
        raise ValueError("factor_anti_harmonic needs f * mu = -f")
    f1 = f * chi.as_function()
    if not _close(apply(r_op, f1), f1, exact, tol):
        raise ComputationError("factored part failed to be harmonic")
    return f1


def _projection(f, walk, lam):
    """(coefficients, projection) of a total f onto the lam = +-1 eigenspace
    of a walk (WalkClasses).  Its arrays s_C have disjoint supports, so the
    coefficient on s_C is <f, s_C> / |C|, summed per class on f's numerators
    (Fractions) or on its float values."""
    rows, n = walk.rows[int(lam < 0)], f.group.order
    kept = np.flatnonzero(rows >= 0)
    labels, sign = rows[kept], walk.sign[kept] if lam < 0 else 1
    sizes = np.bincount(labels)
    scale = math.lcm(*sizes.tolist())  # each |C| divides it: exact means spread on integers
    vals = _fit(f._nums, n * scale * max(_max_abs(f._nums), 1)) if f.is_exact else f._float()
    sums, out = np.zeros(len(sizes), dtype=vals.dtype), np.zeros(n, dtype=vals.dtype)
    np.add.at(sums, labels, vals[kept] * sign)
    if not f.is_exact:
        out[kept] = (sums / sizes)[labels] * sign
        return (sums / sizes).tolist(), GroupFunction._from_array(f.group, out)
    out[kept] = (sums * (scale // sizes))[labels] * sign
    means = [Fraction(x, f._den * c) for x, c in zip(sums.tolist(), sizes.tolist())]
    return means, GroupFunction._from_numerators(f.group, out, f._den * scale)


def _combination(group, coeffs, functions):
    """sum c * f over exact coefficients and functions, in one exact
    combination seeded with the zero function (an empty sum is zero)."""
    zero = GroupFunction.constant(group, Fraction(0))
    return zero._combine([(0, zero), *zip(coeffs, functions)])


def diamond(mu, f1, lam1, f2, lam2, tol=1e-9):
    """Projected product: the (lam1*lam2)-eigenspace component of f1*f2.

    Defined for symmetric measures only, where the projection onto an
    eigenspace is orthogonal: _projection over the right walk's classes,
    exact when mu, f1 and f2 are exact.
    """
    group = f1.group
    op = right_operator(group, mu)
    if not is_symmetric(mu):
        raise ValueError("diamond requires a symmetric measure")
    if lam1 not in (1, -1) or lam2 not in (1, -1):
        raise ValueError("diamond eigenvalues must be +1 or -1")
    exact = mu.exact and f1.is_exact and f2.is_exact
    for f, lam in ((f1, lam1), (f2, lam2)):
        rf = apply(op, f)
        target = f.scale(Fraction(lam) if exact else float(lam))
        if not _close(rf, target, exact, tol):
            raise ValueError(f"function is not in the {lam} eigenspace")
    product = f1 * f2 if exact else GroupFunction._from_array(group, f1._float() * f2._float())
    return _projection(product, op.classes(), lam1 * lam2)[1]


def peripheral_boundary(group, mu):
    """Basis of the +1 and -1 eigenspaces together with the diamond table.

    Entry (i, j) holds the coefficients of diamond's projection of f_i * f_j
    onto the block of sign tag_i * tag_j: its class means over the -1
    arrays, through _fixed_coefficients over the +1 layout.
    """
    _require_finite(group, "peripheral_boundary")
    if not is_symmetric(mu):
        raise ValueError("peripheral_boundary requires a symmetric measure")
    if not is_generating(mu):
        raise ValueError("peripheral_boundary requires a generating measure")
    walk = right_operator(group, mu).classes()
    har, anti = _fixed_space(group, walk), anti_harmonic_space(group, mu)
    functions, tags = har + anti, [1] * len(har) + [-1] * len(anti)
    zeros = {1: [Fraction(0)] * len(anti), -1: [Fraction(0)] * len(har)}

    def cell(f, tag):
        means = _projection(f, walk, tag)[0]
        return _fixed_coefficients(means) + zeros[1] if tag > 0 else zeros[-1] + means

    table = [[cell(fi * fj, ti * tj) for fj, tj in zip(functions, tags)]
             for fi, ti in zip(functions, tags)]
    return BoundaryBasis(group, mu, functions, tags, table, len(functions))


def monotone_abs_check(f, mu, n_steps, tol=1e-9):
    """Iterate P on |f| for an anti-harmonic f and track monotonicity.

    Returns flags (one per step: pointwise nondecreasing) and the sup gaps
    1 - min_g P^n|f|(g) for n = 0..n_steps.
    """
    group = f.group
    exact = mu.exact and f.is_exact
    op = right_operator(group, mu)
    if not _close(apply(op, f), -f, exact, tol):
        raise ValueError("monotone_abs_check needs f * mu = -f")
    if f.sup_norm() > 1 + tol:
        raise ValueError("monotone_abs_check needs sup norm <= 1")
    current = GroupFunction(group, [abs(v) for v in f.values])
    slack = 0 if exact else 1e-12
    flags = []
    gaps = [1 - min(current.values)]
    for _ in range(n_steps):
        nxt = apply(op, current)
        flags.append(all(b >= a - slack for a, b in zip(current.values, nxt.values)))
        gaps.append(1 - min(nxt.values))
        current = nxt
    return MonotoneAbsReport(flags, gaps)


def jensen_margins(f, mu):
    """Pointwise P(f^2) - P(f)^2, which is nonnegative for real f."""
    if any(isinstance(v, complex) for v in f.values):
        raise ValueError("jensen_margins needs a real-valued function")
    op = right_operator(f.group, mu)
    pf = apply(op, f)
    pf2 = apply(op, f * f)
    return pf2 - (pf * pf)
