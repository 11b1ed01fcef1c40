"""Independent certificates for groupwalk reports.

Everything here re-derives facts from the config through the public
`groups` and `measures` API and exact arithmetic; no operator, harmonic or
verify code of the package is used.  Each check returns a list of failure
strings; "oracle:" failures come from the Fourier oracle on abelian
groups, every other failure is an exact certificate.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.sparse.csgraph import connected_components

from groupwalk.groups import GroupSpec, build_group
from groupwalk.measures import measure_from_json

CLUSTER_TOL = 1e-7
MATCH_TOL = 1e-6
FLOAT_SLACK = 1e-12


def _right(group, weights, f):
    """(f * mu)(g) = sum_h mu(h) f(g h)."""
    return [sum(w * f[group.mul(g, h)] for h, w in weights) for g in group.elements()]


def _left(group, weights, f):
    """(mu * f)(g) = sum_h mu(h) f(h g)."""
    return [sum(w * f[group.mul(h, g)] for h, w in weights) for g in group.elements()]


def _fractions(values):
    return [Fraction(v) for v in values]


def _cyclic_factors(spec):
    """Factor orders when the group is cyclic or a product of cyclic groups."""
    if spec["kind"] == "cyclic":
        return [spec["n"]]
    if spec["kind"] == "product" and all(f["kind"] == "cyclic" for f in spec["factors"]):
        return [f["n"] for f in spec["factors"]]
    return None


def fourier_multiplicities(orders, weights):
    """True eigenvalue clusters of f -> f * mu on a product of cyclic groups.

    The characters chi_k(x) = exp(2 pi i sum_j k_j x_j / n_j) diagonalize the
    walk, with eigenvalue sum_h mu(h) chi_k(h).  Elements are indexed
    mixed-radix with the first factor major.  Clusters join every pair of
    eigenvalues within CLUSTER_TOL (all pairs, transitively).
    """
    grids = np.meshgrid(*[np.arange(n) for n in orders], indexing="ij")
    ks = [g.ravel() for g in grids]
    values = np.zeros(len(ks[0]), dtype=complex)
    for h, w in weights:
        coords = []
        for n in reversed(orders):
            coords.append(h % n)
            h //= n
        coords.reverse()
        phase = sum(k * x / n for k, x, n in zip(ks, coords, orders))
        values += w * np.exp(2j * np.pi * phase)
    close = np.abs(values[:, None] - values[None, :]) <= CLUSTER_TOL
    count, labels = connected_components(close, directed=False)
    return [
        (complex(values[labels == c].mean()), int(np.count_nonzero(labels == c)))
        for c in range(count)
    ]


def check_spectrum(result, group, weights, spec):
    failures = []
    records = result["eigenvalues"]
    total = sum(r["multiplicity"] for r in records)
    if total != group.order:
        failures.append(f"spectrum multiplicities sum to {total}, order is {group.order}")
    orders = _cyclic_factors(spec)
    if orders is None:
        return failures
    clusters = fourier_multiplicities(orders, [(h, float(w)) for h, w in weights])
    hits = [[] for _ in clusters]
    centers = np.array([c for c, _ in clusters])
    for r in records:
        z = complex(r["re"], r["im"])
        i = int(np.argmin(np.abs(centers - z)))
        if abs(centers[i] - z) > MATCH_TOL:
            failures.append(f"oracle: eigenvalue {z:.6g} is no Fourier coefficient")
            continue
        hits[i].append(r["multiplicity"])
    bad = sum(1 for (_, m), h in zip(clusters, hits) if h != [m])
    if bad:
        failures.append(f"oracle: {bad} of {len(clusters)} eigenvalue clusters misreported")
    return failures


def check_character(result, group, weights, exact_finite):
    failures = []
    char = result["character"]
    if char is not None:
        chi = char["values"]
        if len(chi) != group.order or any(v not in (1, -1) for v in chi):
            return ["character values are not a +-1 vector over the group"]
        if chi[group.identity] != 1:
            failures.append("character is not 1 at the identity")
        support = [h for h, _ in weights]
        if any(chi[h] != -1 for h in support):
            failures.append("character is not -1 on the support")
        if group.is_truncated:
            # on a ball, check every defined step along the support
            pairs = ((g, h) for g in group.elements() for h in support)
        else:
            pairs = ((g, h) for g in group.elements() for h in group.elements())
        for g, h in pairs:
            gh = group.mul(g, h)
            if gh is not None and chi[gh] != chi[g] * chi[h]:
                failures.append(f"character is not multiplicative at ({g}, {h})")
                break
    if exact_finite and (result["anti_dim"] > 0) != (char is not None):
        failures.append(f"anti_dim={result['anti_dim']} disagrees with character existence")
    return failures


def check_biharmonic(result, group, weights):
    failures = []
    for i, dec in enumerate(result["decompositions"]):
        f = _fractions(dec["function"])
        if _left(group, weights, _right(group, weights, f)) != f:
            failures.append(f"biharmonic basis function {i} violates mu*f*mu = f")
    return failures


def check_boundary(result, group, weights):
    failures = []
    if result["dimension"] != len(result["functions"]):
        failures.append("boundary dimension disagrees with its basis")
    for i, (values, tag) in enumerate(zip(result["functions"], result["tags"])):
        f = _fractions(values)
        if _right(group, weights, f) != [tag * v for v in f]:
            failures.append(f"boundary function {i} violates f*mu = {tag:+d} f")
    return failures


def check_foguel(result):
    d = result["distances"]
    if any(not (-FLOAT_SLACK <= x <= 1 + FLOAT_SLACK) for x in d):
        return ["foguel gap outside [0, 1]"]
    if any(b > a + FLOAT_SLACK for a, b in zip(d, d[1:])):
        return ["foguel gaps increase"]
    return []


def check_analyze(config, report):
    """All certificates for one analyze report; returns failure strings."""
    spec = config["group"]
    group = build_group(GroupSpec.from_json(spec))
    mu = measure_from_json(group, config["measure"])
    weights = sorted(mu.weights.items())
    exact_finite = mu.exact and not group.is_truncated
    results = report["results"]
    failures = []
    if "spectrum" in results:
        failures += check_spectrum(results["spectrum"], group, weights, spec)
    if "character" in results:
        failures += check_character(results["character"], group, weights, exact_finite)
    if "biharmonic" in results:
        failures += check_biharmonic(results["biharmonic"], group, weights)
    if "boundary" in results:
        failures += check_boundary(results["boundary"], group, weights)
    if "foguel" in results:
        failures += check_foguel(results["foguel"])
    if "verify" in results and not results["verify"]["passed"]:
        failures.append("verify task reports failed checks")
    return failures
