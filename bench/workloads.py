"""Seeded inputs for the two benchmark workloads.

Every input is derived from the benchmark seed alone; the program only sees
the generated argv lists and config files.  Group lists are fixed per
workload and the seed draws the measures, so runs on different seeds do
comparable amounts of work.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

WORKLOADS = ("exact-corpus", "analyze-float")

ALL_TASKS = ["spectrum", "character", "biharmonic", "boundary", "foguel", "verify"]
FLOAT_TASKS = ["spectrum", "foguel", "verify"]
BALL_TASKS = ["character", "verify"]


def _cyclic(n):
    return {"kind": "cyclic", "n": n}


def _dihedral(n):
    return {"kind": "dihedral", "n": n}


def _product(*factors):
    return {"kind": "product", "factors": list(factors)}


Q8 = {"kind": "quaternion8"}
S4 = {"kind": "symmetric", "n": 4}


def _odd_permutation(group, g):
    p = group.perms[g]
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]) % 2 == 1


def _odd_last_coordinate(modulus):
    # products index mixed-radix with the first factor major, so the last
    # factor's coordinate is g % modulus
    return lambda group, g: g % modulus % 2 == 1


# Orders 24..64: exact elimination is cubic in the order, so this batch is
# where the Fraction kernel dominates.  Each slot fixes the shape of its
# measure so that seeds change the numbers, not the amount of work: None is
# a lazy measure (identity in the support, so no sign character), otherwise
# the support lies where the given sign character is -1, so anti-harmonic
# functions and a two-block boundary exist.
EXACT_SLOTS = [
    # (group, sign character or None, number of drawn generators)
    (S4, _odd_permutation, 2),
    (_dihedral(16), None, 2),
    (_product(Q8, _cyclic(4)), _odd_last_coordinate(4), 3),
    (_cyclic(48), None, 2),
    (_product(S4, _cyclic(2)), _odd_last_coordinate(2), 2),
]

# Orders 256..1024 with float weights.  "unit" measures are non-symmetric
# but invariant under g -> u*g for the unit u = n/2 + 1, so the spectrum has
# genuine complex double eigenvalues (the Fourier oracle knows them).
FLOAT_CONFIGS = [
    ("cyclic-unit", 1024, FLOAT_TASKS),
    ("cyclic-unit", 512, FLOAT_TASKS),
    ("cyclic-generic", 256, FLOAT_TASKS + ["character"]),
    ("product-generic", (16, 16), FLOAT_TASKS + ["character"]),
    ("dihedral-symmetric", 256, FLOAT_TASKS),
]

BALL_CONFIGS = [
    ({"kind": "free", "rank": 2, "radius": 8}, ["a", "A", "b", "B"]),
    ({"kind": "lattice", "dim": 2, "radius": 100}, ["[1,0]", "[-1,0]", "[0,1]", "[0,-1]"]),
    (
        {"kind": "lattice", "dim": 3, "radius": 30},
        ["[1,0,0]", "[-1,0,0]", "[0,1,0]", "[0,-1,0]", "[0,0,1]", "[0,0,-1]"],
    ),
]


def _rng(workload, seed):
    return random.Random(f"groupwalk-bench|{workload}|{seed}")


def _symmetric_exact_measure(group, odd, picks, rng):
    """Symmetric generating measure with small integer weights over their sum.

    `picks` elements (distinct up to inversion) and their inverses, plus the
    identity when `odd` is None, else drawn from the elements where `odd`
    holds.  The orbits {g, g^-1} get the weights 1..picks in random order and
    the identity gets 1, so the denominator depends only on how many drawn
    elements are involutions: the cost of exact elimination grows with the
    denominators, and fixing them keeps seeds comparable.  Uses only the
    public group API (inverse, closure).
    """
    from groupwalk.groups import closure

    pool = [
        g for g in group.elements()
        if g != group.identity and (odd is None or odd(group, g))
    ]
    for _ in range(1000):
        drawn = rng.sample(pool, picks)
        if len({min(g, group.inv(g)) for g in drawn}) != picks:
            continue
        support = set(drawn) | {group.inv(g) for g in drawn}
        if len(closure(group, support)) != group.order:
            continue
        weights = {}
        for g, w in zip(drawn, rng.sample(range(1, picks + 1), picks)):
            weights[g] = weights[group.inv(g)] = w
        if odd is None:
            weights[group.identity] = 1
        total = sum(weights.values())
        return {g: Fraction(w, total) for g, w in weights.items()}
    raise RuntimeError(f"no symmetric generating measure found on {group.name}")


def _float_weights(rng, support):
    # real-valued random weights: integer weights can tie and create repeated
    # eigenvalues by accident; the "unit" configs have them by construction
    return _normalize_float({g: rng.uniform(1.0, 2.0) for g in support})


def _normalize_float(raw):
    total = sum(raw.values())
    weights = {g: w / total for g, w in sorted(raw.items())}
    last = max(weights)
    weights[last] = 1.0 - sum(w for g, w in weights.items() if g != last)
    return weights


def _generic_cyclic_support(rng, n):
    # a unit in the support makes the measure generating; three points make
    # it non-symmetric with probability one
    units = [g for g in range(1, n) if math.gcd(g, n) == 1]
    support = {rng.choice(units)}
    while len(support) < 3:
        g = rng.randrange(1, n)
        if (n - g) % n not in support:
            support.add(g)
    return sorted(support)


def _unit_invariant_support(rng, n):
    """Support {a, u*a, 2b} for units a, b and u = n/2 + 1 (n a power of two).

    The measure is generating and not symmetric.  With equal weight on the
    orbit {a, u*a}, the eigenvalue at every odd frequency k is w * exp(4 pi i
    b k / n), so the spectrum has n/4 complex double eigenvalues.
    """
    u = n // 2 + 1
    while True:
        a = rng.randrange(1, n, 2)
        even = 2 * rng.randrange(1, n // 2, 2)
        support = {a, (u * a) % n, even}
        if all((n - g) % n not in support for g in support):
            return sorted(support)


def _float_config(kind, size, tasks, rng):
    if kind == "cyclic-unit":
        group = _cyclic(size)
        support = _unit_invariant_support(rng, size)
        shared = rng.uniform(1.0, 2.0)
        weights = _normalize_float(
            {g: shared if g % 2 else rng.uniform(1.0, 2.0) for g in support}
        )
    elif kind == "cyclic-generic":
        group = _cyclic(size)
        weights = _float_weights(rng, _generic_cyclic_support(rng, size))
    elif kind == "product-generic":
        a, b = size
        group = _product(_cyclic(a), _cyclic(b))
        # (1, 0) and (0, 1) generate; a third random point breaks symmetry
        support = {1 * b + 0, 0 * b + 1}
        while len(support) < 3:
            x, y = rng.randrange(a), rng.randrange(b)
            g = x * b + y
            neg = ((-x) % a) * b + (-y) % b
            if g != 0 and neg not in support:
                support.add(g)
        weights = _float_weights(rng, sorted(support))
    elif kind == "dihedral-symmetric":
        # rotation pair plus a reflection: symmetric, so the eigh path runs
        group = _dihedral(size)
        r = rng.choice([g for g in range(1, size) if math.gcd(g, size) == 1])
        s = size + rng.randrange(size)
        w_rot = rng.uniform(1.0, 2.0)
        weights = _normalize_float({r: w_rot, size - r: w_rot, s: rng.uniform(1.0, 2.0)})
    else:
        raise ValueError(kind)
    return {
        "group": group,
        "measure": [{"g": str(g), "w": w} for g, w in sorted(weights.items())],
        "tasks": list(tasks),
        "options": {"exact": False},
    }


def _exact_configs(rng):
    from groupwalk.groups import GroupSpec, build_group

    configs = []
    for spec, odd, picks in EXACT_SLOTS:
        group = build_group(GroupSpec.from_json(spec))
        weights = _symmetric_exact_measure(group, odd, picks, rng)
        configs.append(
            {
                "group": spec,
                "measure": [{"g": str(g), "w": str(w)} for g, w in sorted(weights.items())],
                "tasks": list(ALL_TASKS),
                "options": {"exact": True},
            }
        )
    return configs


def _float_configs(rng):
    configs = [_float_config(kind, size, tasks, rng) for kind, size, tasks in FLOAT_CONFIGS]
    for spec, gens in BALL_CONFIGS:
        # uniform steps on the generators and their inverses
        w = str(Fraction(1, len(gens)))
        configs.append(
            {
                "group": spec,
                "measure": [{"g": g, "w": w} for g in gens],
                "tasks": list(BALL_TASKS),
                "options": {"exact": True},
            }
        )
    return configs


def write_inputs(workload, seed, directory):
    """Write the workload's configs to `directory`.

    Returns (argvs, configs): each item's argv without --out, and its config
    (None for the `verify all` item).
    """
    rng = _rng(workload, seed)
    if workload == "exact-corpus":
        configs = [None] + _exact_configs(rng)
    elif workload == "analyze-float":
        configs = _float_configs(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(directory, exist_ok=True)
    argvs = []
    for i, config in enumerate(configs):
        if config is None:
            argvs.append(["verify", "all", "--seed", str(seed)])
            continue
        path = os.path.join(directory, f"config-{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=1, sort_keys=True)
        argvs.append(["analyze", path])
    return argvs, configs
