"""Per-element and per-fixture references for the library's batched walks.

The library's `closure` and `min_return` step whole sets along the rows
of `right_perm`, and `_abelian_subgroup` labels the cycles of one
`left_perm` row with `_classes`.  These loops take one element at a time
(`closure` and `min_return` through the scalar `mul`) and are the tests'
oracles.  `theorem_records_by_fixture` is the theorem suite's per-fixture
body from before it ran once per corpus group: one spectrum, one split,
factor and lift certificate per fixture, each walk value gathered alone
through `operators._gather` (no stack), and the lift of mu * mu from
`convolve`.  `decompose_splits` is the per-function split oracle, and
`classes_one_pass` labels a permutation graph with one union of all its
edges.
"""

import numpy as np

from groupwalk.groups import _roots, _union
from groupwalk.harmonic import decompose, find_anti_character, two_sided_classes
from groupwalk.linalg import ComputationError
from groupwalk.measures import convolve, min_return
from groupwalk.operators import (
    OperatorOnMatrices,
    _fit,
    _gather,
    _max_abs,
    apply,
    component_kernel,
    left_operator,
    right_operator,
    spectrum,
)
from groupwalk.verify import OPERATOR_CHECK_MAX_ORDER, CheckRecord


def closure_by_mul(group, seed_elements):
    """Breadth-first saturation under right multiplication by the seeds,
    one product `mul(g, s)` at a time."""
    seeds = sorted(set(seed_elements))
    reached = set(seeds)
    frontier = list(seeds)
    while frontier:
        nxt = []
        for g in frontier:
            for s in seeds:
                p = group.mul(g, s)
                if p not in reached:
                    reached.add(p)
                    nxt.append(p)
        frontier = nxt
    return sorted(reached)


def min_return_by_mul(mu, cap):
    """Least k <= cap with the identity in the k-th support, each support
    stepped from the last by one `mul` per element and support element."""
    group, supp = mu.group, mu.support()
    current = set(supp)
    for k in range(1, cap + 1):
        if group.identity in current:
            return k
        current = {group.mul(g, s) for g in current for s in supp}
    return None


def abelian_subgroup_by_loop(group):
    """(orders, coset, kappa) of `FiniteGroup._abelian_subgroup`: the cycles
    of left_perm(a) for the first element a of largest order, walked one
    element at a time from each unlabelled element in index order."""
    orders = group._element_orders()
    a = int(np.argmax(orders))
    size = int(orders[a])
    step = group.left_perm(a).tolist()
    coset, kappa, label = [-1] * group.order, [0] * group.order, 0
    for g in group.elements():
        if coset[g] < 0:
            x = g
            for m in range(size):
                coset[x], kappa[x], x = label, m, step[x]
            label += 1
    return [size], np.array(coset), np.array(kappa)[:, None]


def classes_one_pass(n, perms):
    """`groups._classes` with every edge joined by one `_union` call, the
    oracle of the labelling that joins them a block at a time."""
    parent = np.arange(n)
    _union(parent, np.tile(np.arange(n), len(perms)), np.asarray(perms, dtype=np.int64).ravel())
    return _roots(parent, np.arange(n))


def certified_alone(stencils, vecs, lam):
    """For each column v of the integer array vecs, whether P v = lam v
    exactly for the composite P = stencils[0] o stencils[1] o ... of one
    walk's exact walk values (the last acts first)."""
    image, den = vecs, 1
    for terms in reversed(stencils):
        image, den = _gather(terms, image, den)
    return (image == lam * den * _fit(vecs, den * _max_abs(vecs))).all(axis=0)


def splits_alone(right, left, cols):
    """For each column f of cols, whether P^2 f = f, L P f = f, (f + P f)/2
    is constant and the rest is negated by both walks, for one measure's
    right walk P and left walk L."""
    image, den = _gather(right, cols, 1)
    scaled = _fit(cols, 2 * den * max(_max_abs(cols), 1)) * den
    twice_t0 = scaled + image
    constant = (twice_t0 == twice_t0[:1]).all(axis=0)
    return constant & certified_alone([left], scaled - image, -1)


def decompose_splits(f, mu):
    """The per-function oracle: decompose, then both walks negate t1."""
    try:
        dec = decompose(f, mu)
    except (ValueError, ComputationError):
        return False
    walks = (right_operator(f.group, mu), left_operator(f.group, mu))
    return dec.constant is not None and all(apply(op, dec.anti_part) == -dec.anti_part for op in walks)


def theorem_records_by_fixture(fixture_id, group, mu):
    """The theorem records of one symmetric generating fixture, checked on
    its own walks alone."""
    records = []

    def record(quantity, value, threshold, passed, note=""):
        records.append(CheckRecord(fixture_id, quantity, value, threshold, passed, note))

    def exact(ok):
        return "exact" if ok else "violated"

    right = right_operator(group, mu)
    peripheral = spectrum(right).peripheral
    worst = max((min(abs(lam - 1), abs(lam + 1)) for lam in peripheral), default=0.0)
    record("peripheral_pm1", float(worst), 1e-8, bool(worst <= 1e-8))

    two_sided = two_sided_classes(group, [mu])[0]
    bi_dim = two_sided.count(1)
    indicators = two_sided.basis(1, "in the reference").T
    split_ok = bool(splits_alone(right.stencil(), left_operator(group, mu).stencil(), indicators).all())
    record("biharmonic_split", exact(split_ok), "exact", split_ok, f"dim={bi_dim}")

    walk = right.classes()
    anti_dim, har_dim = walk.count(-1), walk.count(1)
    chi = find_anti_character(group, mu)
    found = f"anti_dim={anti_dim},character={'yes' if chi else 'no'}"
    record("anti_iff_character", found, "equivalent", (anti_dim > 0) == (chi is not None))
    if chi is not None:
        record("anti_dim_equals_har_dim", anti_dim, har_dim, anti_dim == har_dim)
        factors = walk.basis(-1, "in the reference").T * np.array(chi.values)[:, None]
        factor_ok = bool(certified_alone([right.stencil()], factors, 1).all())
        record("anti_factors_through_character", exact(factor_ok), "exact", factor_ok)
    else:
        dims = f"anti_dim={anti_dim},bi_dim={bi_dim}"
        trivial = anti_dim == 0 and bi_dim == 1
        record("no_character_trivial_anti", dims, "anti_dim=0,bi_dim=1", trivial)

    k = min_return(mu)
    worst = max((abs(lam**k - 1) for lam in peripheral), default=0.0)
    record(f"roots_of_unity_k={k}", float(worst), 1e-6, bool(worst <= 1e-6))

    if group.order <= OPERATOR_CHECK_MAX_ORDER:
        nu = convolve(mu, mu)
        sides = [OperatorOnMatrices(group, nu, s).walk for s in ("right", "left")]
        [classes] = component_kernel([sides], "in the reference")
        columns = classes.basis(1, "in the reference").T
        fixed = all(certified_alone([terms], columns, 1).all() for terms in sides)
        note = f"solutions={columns.shape[1]}"
        record("operator_jointly_fixed_is_fixed", exact(fixed), "exact", fixed, note)
    return records
