"""Per-element references for the set searches over permutation rows.

The library's `closure` and `min_return` step whole sets along the rows
of `right_perm`, and `_abelian_subgroup` labels the cycles of one
`left_perm` row with `_classes`.  These loops take one element at a time
(`closure` and `min_return` through the scalar `mul`) and are the tests'
oracles.
"""

import numpy as np


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
