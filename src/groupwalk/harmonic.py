"""Harmonic, anti-harmonic, and bi-harmonic structure of convolution walks.

A function is harmonic when f * mu = f, anti-harmonic when f * mu = -f, and
jointly bi-harmonic when mu * f * mu = f.  Anti-harmonic functions are tied
to sign characters that are -1 on the support; the peripheral boundary
packages the +1 and -1 eigenspaces with their projected product.  The
exact eigenspaces are read off the connected classes of the walk
(operators.component_kernel): indicators of the classes for +1, +-1
colourings of the bipartite classes for -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .groups import ConstructionError, generating_set
from .linalg import GF2System, rational_solve
from .measures import is_generating, is_symmetric
from .operators import (
    ComputationError,
    GroupFunction,
    _function_values,
    _operator,
    apply,
    component_kernel,
    eigenspace,
    left_operator,
    right_operator,
)

MAX_CHARACTER_ORDER = 512

__all__ = [
    "Character",
    "Decomposition",
    "BoundaryBasis",
    "MonotoneAbsReport",
    "harmonic_space",
    "anti_harmonic_space",
    "jointly_biharmonic_space",
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
    """Sign character: values in {+1, -1}, 1 at the identity, multiplicative."""

    group: object
    values: list

    def __post_init__(self):
        if len(self.values) != self.group.order:
            raise ValueError("character has the wrong number of values")
        if any(v not in (1, -1) for v in self.values):
            raise ValueError("character values must be +1 or -1")
        if self.values[self.group.identity] != 1:
            raise ValueError("character must be 1 at the identity")

    def __call__(self, g):
        return self.values[g]

    def kernel(self):
        return [g for g in self.group.elements() if self.values[g] == 1]

    def as_function(self):
        return GroupFunction._from_numerators(self.group, np.array(self.values, dtype=np.int64))

    def is_constant(self):
        return all(v == 1 for v in self.values)

    def validate(self, sample=None):
        """Check multiplicativity; on truncations only where mul is defined.

        `sample` caps the number of checked pairs (seeded deterministic
        choice); None checks every pair.
        """
        group = self.group
        n = group.order
        pairs = ((g, h) for g in range(n) for h in range(n))
        if sample is not None and n * n > sample:
            import random

            rng = random.Random(0)
            pairs = ((rng.randrange(n), rng.randrange(n)) for _ in range(sample))
        for g, h in pairs:
            gh = group.mul(g, h)
            if gh is None:
                continue
            if self.values[gh] != self.values[g] * self.values[h]:
                raise ValueError(f"character is not multiplicative at ({g}, {h})")
        if not group.is_truncated and not self.is_constant():
            if 2 * len(self.kernel()) != group.order:
                raise ValueError("nonconstant character kernel must have index 2")
        return True

    def to_json(self):
        return {"kernel_index": self.kernel(), "values": list(self.values)}


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

    @property
    def all_monotone(self):
        return all(self.monotone)


def _require_exact_finite(group, mu, what):
    if group.is_truncated:
        raise ConstructionError(f"{what} requires a finite group")
    if not mu.exact:
        raise ValueError(f"{what} requires exact rational weights; use eigenspace for floats")


def harmonic_space(group, mu, side="right"):
    """Exact basis of the fixed space {f : P f = f}: the constant 1, then
    the indicators of every connected class but the last (the last is 1
    minus the others), in eigenspace's class order."""
    _require_exact_finite(group, mu, "harmonic_space")
    op = _operator(group, mu, side)
    return [GroupFunction.constant(group, Fraction(1))] + eigenspace(op, 1)[:-1]


def anti_harmonic_space(group, mu, side="right"):
    """Exact basis of {f : P f = -f}; empty when -1 is not an eigenvalue."""
    _require_exact_finite(group, mu, "anti_harmonic_space")
    return eigenspace(_operator(group, mu, side), -1)


def jointly_biharmonic_space(group, mu):
    """Exact basis of {f : mu * f * mu = f}, laid out as in harmonic_space
    over the classes of the two-sided walk g -> h1 g h2."""
    _require_exact_finite(group, mu, "jointly_biharmonic_space")
    stencils = [left_operator(group, mu).stencil(), right_operator(group, mu).stencil()]
    basis = component_kernel(stencils, group.order, 1, f"on {group.name}")[:-1]
    one = GroupFunction.constant(group, Fraction(1))
    return [one] + [GroupFunction._from_numerators(group, vec) for vec in basis]


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
    if group.is_truncated:
        raise ConstructionError("decompose requires a finite group")
    exact = mu.exact and f.is_exact
    if not exact:
        f = GroupFunction._from_array(group, f.as_array())
    r_op = right_operator(group, mu)
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

    Finite groups solve a GF(2) system over one unknown per element
    (x_e = 0 and x_{g*t} = x_g + x_t for every g and each t of
    generating_set, whose solutions are exactly the homomorphisms to Z/2;
    support entries pinned to 1) and return the lexicographically smallest
    solution.  Ball truncations use one unknown per family generator;
    free-group generators carry no relations and lattice relations are
    vacuous.
    """
    if group.is_truncated:
        return _find_anti_character_family(group, mu)
    n = group.order
    if n > MAX_CHARACTER_ORDER:
        raise ConstructionError(
            f"character search supports order <= {MAX_CHARACTER_ORDER}, got {n}"
        )
    system = GF2System()
    system.add(1 << group.identity, 0)
    for t in generating_set(group):
        for g, gt in enumerate(group.right_perm(t).tolist()):
            system.add((1 << g) ^ (1 << t) ^ (1 << gt), 0)
    for s in mu.support():
        if not system.add(1 << s, 1):
            return None
    bits = system.lex_min_solution(n)
    if bits is None:
        return None
    return Character(group, [1 if b == 0 else -1 for b in bits])


def _find_anti_character_family(group, mu):
    forced = np.zeros(group.family_key()[1], dtype=np.int64)
    for s in mu.support():
        form = mu.group.canonical_form(s)
        length = group.length_form(form)
        if length == 0:
            return None  # identity in the support forces chi(e) = -1
        if length != 1:
            raise ValueError("truncated measures must be supported on word length <= 1")
        if group.family == "free":
            forced[abs(form[0]) - 1] = 1
        else:
            axis = next(i for i, x in enumerate(form) if x != 0)
            forced[axis] = 1
    chi = Character(group, (1 - 2 * group.parity(forced)).tolist())
    chi.validate(sample=4096)
    return chi


def character_from_extremal(f, mu, tol=1e-9):
    """Recover the sign character from an extremal anti-harmonic function.

    Requires real f with sup norm <= 1 + tol attaining modulus >= 1 - tol
    and f * mu = -f within tol.  Translating the argmax to the identity and
    rounding must give an exactly multiplicative sign character that is -1
    on the support; anything else raises.
    """
    group = f.group
    if group.is_truncated:
        raise ConstructionError("character_from_extremal requires a finite group")
    if any(isinstance(v, complex) for v in f.values):
        raise ValueError("character_from_extremal needs a real-valued function")
    sup = f.sup_norm()
    if sup > 1 + tol:
        raise ValueError(f"sup norm {float(sup)} exceeds 1 + tol")
    if sup < 1 - tol:
        raise ValueError(f"max modulus {float(sup)} falls short of 1 - tol")
    rf = apply(right_operator(group, mu), f)
    residual = max(abs(a + b) for a, b in zip(rf.values, f.values))
    if residual > tol:
        raise ValueError(f"function is not anti-harmonic within tol (residual {float(residual)})")
    best = max(group.elements(), key=lambda g: (abs(f.values[g]), -g))
    base = f.values[best]
    values = []
    for x in group.elements():
        ratio = f.values[group.mul(best, x)] / base
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


def _gram(cols):
    return [[c1.inner(c2) for c2 in cols] for c1 in cols]


def _projection_coefficients(cols, gram, f):
    """Exact coefficients over the functions cols of the orthogonal
    projection of f onto their span; gram is _gram(cols)."""
    coeffs = rational_solve(gram, [col.inner(f) for col in cols])
    if coeffs is None:
        raise ComputationError("eigenspace Gram system was singular")
    return coeffs


def _combination(group, coeffs, functions):
    """sum c * f over exact coefficients and functions, on their numerators."""
    total = GroupFunction.constant(group, Fraction(0))
    for c, fn in zip(coeffs, functions):
        if c != 0:
            total = total + fn.scale(c)
    return total


def diamond(mu, f1, lam1, f2, lam2, tol=1e-9):
    """Projected product: the (lam1*lam2)-eigenspace component of f1*f2.

    Defined for symmetric measures only, where the projection onto an
    eigenspace is orthogonal.  Exact measures give exact results.
    """
    group = f1.group
    if group.is_truncated:
        raise ConstructionError("diamond requires a finite group")
    if not is_symmetric(mu):
        raise ValueError("diamond requires a symmetric measure")
    if lam1 not in (1, -1) or lam2 not in (1, -1):
        raise ValueError("diamond eigenvalues must be +1 or -1")
    exact = mu.exact and f1.is_exact and f2.is_exact
    op = right_operator(group, mu)
    for f, lam in ((f1, lam1), (f2, lam2)):
        rf = apply(op, f)
        target = f.scale(Fraction(lam) if exact else float(lam))
        if not _close(rf, target, exact, tol):
            raise ValueError(f"function is not in the {lam} eigenspace")
    product = f1 * f2
    basis = eigenspace(op, lam1 * lam2, tol)
    if not basis:
        zero = Fraction(0) if exact else 0.0
        return GroupFunction.constant(group, zero)
    if exact:
        coeffs = _projection_coefficients(basis, _gram(basis), product)
        return _combination(group, coeffs, basis)
    mat = np.column_stack([b.as_array() for b in basis])
    coeffs, *_ = np.linalg.lstsq(mat, product.as_array(), rcond=None)
    return GroupFunction(group, list(mat @ coeffs))


def peripheral_boundary(group, mu):
    """Basis of the +1 and -1 eigenspaces together with the diamond table.

    Entry (i, j) projects f_i * f_j orthogonally onto the block of sign
    tag_i * tag_j, the same projection diamond makes, solved once against
    that block's Gram matrix.
    """
    _require_exact_finite(group, mu, "peripheral_boundary")
    if not is_symmetric(mu):
        raise ValueError("peripheral_boundary requires a symmetric measure")
    if not is_generating(mu):
        raise ValueError("peripheral_boundary requires a generating measure")
    har = harmonic_space(group, mu)
    anti = anti_harmonic_space(group, mu)
    functions = har + anti
    tags = [1] * len(har) + [-1] * len(anti)
    dim = len(functions)
    blocks = {}
    for tag, offset, block in ((1, 0, har), (-1, len(har), anti)):
        blocks[tag] = (offset, block, _gram(block))
    table = []
    for fi, ti in zip(functions, tags):
        row = []
        for fj, tj in zip(functions, tags):
            offset, cols, gram = blocks[ti * tj]
            sol = _projection_coefficients(cols, gram, fi * fj)
            coeffs = [Fraction(0)] * dim
            coeffs[offset:offset + len(sol)] = sol
            row.append(coeffs)
        table.append(row)
    return BoundaryBasis(group, mu, functions, tags, table, dim)


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
