"""Probability measures on group elements and their convolution algebra.

Weights are either all exact rationals or all floats, never mixed.  Exact
measures stay exact through convolution, powers, and total-variation
distances.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .groups import ConstructionError, format_element, parse_element

FLOAT_SUM_TOL = 1e-12
SYMMETRY_TOL = 1e-12

__all__ = [
    "MeasureError",
    "GroupMeasure",
    "make_measure",
    "delta",
    "uniform",
    "convolve",
    "power",
    "tv_distance",
    "is_symmetric",
    "is_generating",
    "min_return",
    "measure_from_json",
    "measure_to_json",
]


_UNSEARCHED = object()


class MeasureError(ValueError):
    """Raised for malformed measures or unsupported measure operations."""


class GroupMeasure:
    """Finitely supported probability measure on a group's element indices.

    `_operators` holds the measure's memoised convolution operators by side
    (filled by `operators.right_operator` / `left_operator`), `_symmetric`
    the memoised answer of `is_symmetric`, `_two_sided` the classes of the
    two-sided walk (`harmonic.two_sided_classes`), and `_character` that of
    `harmonic.find_anti_character` (_UNSEARCHED until the first search,
    since None is an answer).
    """

    def __init__(self, group, weights, exact):
        self.group = group
        self.weights = dict(weights)
        self.exact = exact
        self._operators = {}
        self._symmetric = None
        self._two_sided = None
        self._character = _UNSEARCHED

    def support(self):
        return sorted(self.weights)

    def weight(self, g):
        zero = Fraction(0) if self.exact else 0.0
        return self.weights.get(g, zero)

    def as_float(self):
        """Floating copy of this measure (identity for float measures)."""
        return GroupMeasure(self.group, {g: float(w) for g, w in self.weights.items()}, False)

    def __eq__(self, other):
        return (
            isinstance(other, GroupMeasure)
            and self.group is other.group
            and self.weights == other.weights
        )

    def __repr__(self):
        kind = "exact" if self.exact else "float"
        return f"<GroupMeasure on {self.group.name} support={len(self.weights)} {kind}>"


def _classify_weight(w):
    if isinstance(w, bool):
        raise MeasureError(f"weight {w!r} is not a number")
    if isinstance(w, (int, Fraction)):
        return Fraction(w), True
    if isinstance(w, float):
        if not math.isfinite(w):
            raise MeasureError(f"weight {w!r} is not finite")
        return w, False
    raise MeasureError(f"weight {w!r} must be a Fraction, int, or float")


def make_measure(group, entries):
    """Build a validated measure from (element, weight) pairs.

    All weights must be positive, finite and of one scalar kind; exact
    weights must sum to exactly 1, float weights to 1 within 1e-12.  On ball
    truncations the support may only contain elements of word length <= 1.
    """
    entries = list(entries)
    if not entries:
        raise MeasureError("measure needs at least one entry")
    weights = {}
    kinds = set()
    for g, w in entries:
        if not (isinstance(g, int) and 0 <= g < group.order):
            raise MeasureError(f"support element {g!r} is not a valid index for {group.name}")
        if g in weights:
            raise MeasureError(f"duplicate support element {g}")
        value, exact = _classify_weight(w)
        kinds.add(exact)
        if value <= 0:
            raise MeasureError(f"weight for element {g} must be positive, got {w}")
        weights[g] = value
    if len(kinds) != 1:
        raise MeasureError("mixed rational and float weights are not allowed")
    exact = kinds.pop()
    total = sum(weights.values())
    if exact:
        if total != 1:
            raise MeasureError(f"exact weights must sum to 1, got {total}")
    elif abs(total - 1.0) > FLOAT_SUM_TOL:
        raise MeasureError(f"float weights must sum to 1 within {FLOAT_SUM_TOL}, got {total!r}")
    if group.is_truncated:
        for g in weights:
            if group.length(g) > 1:
                raise MeasureError(
                    f"support element {g} has word length {group.length(g)} > 1 on a ball truncation"
                )
    return GroupMeasure(group, weights, exact)


def delta(group, g):
    """Point mass at one element."""
    return make_measure(group, [(g, Fraction(1))])


def uniform(group, elements):
    """Uniform measure on a set of elements."""
    elements = sorted(set(elements))
    n = len(elements)
    return make_measure(group, [(g, Fraction(1, n)) for g in elements])


def _require_same_kind(mu, nu):
    if mu.group is not nu.group:
        raise MeasureError("measures live on different groups")
    if mu.exact != nu.exact:
        raise MeasureError("mixed rational and float measures are not allowed")


def convolve(mu, nu):
    """Convolution (mu * nu)(g) = sum_h mu(h) nu(h^-1 g).

    Exact weights are summed as integer numerators over one denominator.  On
    ball truncations the product is computed only while every pairwise
    product of support elements stays inside the ball.
    """
    _require_same_kind(mu, nu)
    group, out = mu.group, {}
    d = math.lcm(*(w.denominator for m in (mu, nu) for w in m.weights.values())) if mu.exact else 1
    left, right = ({g: w.numerator * (d // w.denominator) if mu.exact else w for g, w in m.weights.items()}
                   for m in (mu, nu))
    for h, wh in left.items():
        for x, wx in right.items():
            g = group.mul(h, x)
            if g is None:
                raise MeasureError(
                    "convolution leaves the ball: "
                    f"product of support elements {h} and {x} is undefined"
                )
            out[g] = out.get(g, 0) + wh * wx
    if mu.exact:
        out = {g: Fraction(w, d * d) for g, w in out.items()}
    return GroupMeasure(group, out, mu.exact)


def power(mu, n):
    """n-fold convolution power, n >= 1."""
    if not isinstance(n, int) or n < 1:
        raise MeasureError(f"power needs an integer n >= 1, got {n}")
    out = mu
    for _ in range(n - 1):
        out = convolve(out, mu)
    return out


def tv_distance(mu, nu):
    """Total variation distance, half the L1 distance of the weight vectors."""
    _require_same_kind(mu, nu)
    keys = set(mu.weights) | set(nu.weights)
    total = sum(abs(mu.weight(g) - nu.weight(g)) for g in keys)
    return total / 2


def is_symmetric(mu):
    """Whether mu(g) equals mu(g^-1) for every g (exactly, or within
    SYMMETRY_TOL for float weights).  The answer is kept on mu."""
    if mu._symmetric is None:
        pairs = ((w, mu.weight(mu.group.inv(g))) for g, w in mu.weights.items())
        mu._symmetric = all(w == v if mu.exact else abs(w - v) <= SYMMETRY_TOL for w, v in pairs)
    return mu._symmetric


def is_generating(mu):
    """Whether the support generates the whole finite group (as a semigroup,
    which in a finite group is a group): the classes of g -- g*h over the
    support are the left cosets of <supp mu>, so exactly when there is one:
    the right operator's one labelling, which its +-1 eigenspaces read too
    (weights play no part in it, so float measures share it)."""
    from .operators import right_operator

    return right_operator(mu.group, mu).classes().count(1) == 1


def min_return(mu):
    """Least k >= 1 with the identity in the support of the k-th power: at
    most the order of any support element (the support is not empty, its
    weights sum to 1), so at most |G|.

    Works on supports only, each stepped from the last along the rows
    g -> g*h of the right operator's stencil, which its spectrum reads too.
    """
    from .operators import right_operator

    group = mu.group
    rows = [perm.tolist() for perm in right_operator(group, mu).stencil().perms]
    current, k = set(mu.support()), 1
    while group.identity not in current:
        current, k = {row[g] for g in current for row in rows}, k + 1
    return k


def measure_from_json(group, entries):
    """Parse the JSON measure encoding: a list of {"g": text, "w": weight}.

    Weights given as strings are exact rationals ("1/2", "3"); weights given
    as JSON numbers are floats (integers count as exact).
    """
    if not isinstance(entries, list):
        raise MeasureError("measure must be a JSON list of entries")
    pairs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "g" not in entry or "w" not in entry:
            raise MeasureError(f"measure entry {i} must be an object with 'g' and 'w'")
        try:
            g = parse_element(group, str(entry["g"]))
        except ConstructionError as exc:
            raise MeasureError(f"measure entry {i}: {exc}") from exc
        w = entry["w"]
        if isinstance(w, str):
            try:
                w = Fraction(w)
            except (ValueError, ZeroDivisionError) as exc:
                raise MeasureError(f"measure entry {i}: bad rational weight {entry['w']!r}") from exc
        pairs.append((g, w))
    return make_measure(group, pairs)


def measure_to_json(mu):
    out = []
    for g in mu.support():
        w = mu.weights[g]
        out.append({"g": format_element(mu.group, g), "w": str(w) if mu.exact else w})
    return out
