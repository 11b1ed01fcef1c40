"""End-to-end acceptance checks.

One test per numbered requirement; each prints a single
`acceptance NN PASS/FAIL` line so the run doubles as a checklist.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from groupwalk.groups import CyclicGroup, FreeBall, LatticeBall
from groupwalk.harmonic import (
    anti_harmonic_space,
    decompose,
    diamond,
    factor_anti_harmonic,
    find_anti_character,
    harmonic_space,
    jensen_margins,
    jointly_biharmonic_space,
    monotone_abs_check,
    peripheral_boundary,
)
from groupwalk.linalg import float_nullspace
from groupwalk.measures import convolve, min_return, uniform
from groupwalk.operators import (
    GroupFunction,
    OperatorOnMatrices,
    apply,
    apply_truncated,
    eigen_operator_to_function,
    right_operator,
    spectrum,
)
from groupwalk.verify import (
    CorpusSpec,
    alternating_group,
    corpus_fixtures,
    exp_bound_check,
    nonsymmetric_fixtures,
    revuz_check,
    stirling_trend,
)

F = Fraction


def report_line(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f"  ({detail})" if detail else ""
    print(f"acceptance {num:02d} {status}  {label}{extra}")
    assert ok, f"acceptance {num:02d} failed: {label} {detail}"


@pytest.fixture(scope="module")
def corpus():
    return corpus_fixtures(CorpusSpec(seed=0))


def parity_function(ball):
    return GroupFunction(
        ball, [F(-1) if ball.length(g) % 2 else F(1) for g in ball.elements()]
    )


def test_01_line_ball_sign_identities():
    start = time.monotonic()
    ball = LatticeBall(1, 50)
    mu = uniform(ball, [ball.index_of_form((1,)), ball.index_of_form((-1,))])
    f = parity_function(ball)

    rf, interior = apply_truncated(ball, mu, f, "right")
    one_step = len(interior) == 99 and all(rf.values[g] == -f.values[g] for g in interior)

    lrf, deep = apply_truncated(ball, mu, rf, "left")
    # the two-sided convolution needs two steps of room: 97 of the 99
    # interior points; the identity is checked at every computable point
    two_step = len(deep) == 97 and all(lrf.values[g] == f.values[g] for g in deep)

    elapsed = time.monotonic() - start
    report_line(
        1,
        "line ball r=50: f*mu = -f at 99 points, mu*f*mu = f at 97",
        one_step and two_step and elapsed < 1.0,
        f"{elapsed:.2f}s",
    )


def test_02_free_ball_sign_identities():
    start = time.monotonic()
    ball = FreeBall(2, 6)
    size_ok = ball.order == 1457
    gens = [ball.index_of_form(w) for w in ((1,), (-1,), (2,), (-2,))]
    mu = uniform(ball, gens)
    f = parity_function(ball)

    rf, r_int = apply_truncated(ball, mu, f, "right")
    lf, l_int = apply_truncated(ball, mu, f, "left")
    right_ok = len(r_int) == 485 and all(rf.values[g] == -f.values[g] for g in r_int)
    left_ok = len(l_int) == 485 and all(lf.values[g] == -f.values[g] for g in l_int)

    elapsed = time.monotonic() - start
    report_line(
        2,
        "free ball r=6: mu*f = f*mu = -f at all 485 interior words",
        size_ok and right_ok and left_ok and elapsed < 5.0,
        f"{elapsed:.2f}s",
    )


def test_03_peripheral_eigenvalues_at_pm_one(corpus):
    start = time.monotonic()
    expected_groups = (
        {f"Z{n}" for n in range(2, 17)}
        | {f"D{n}" for n in range(3, 9)}
        | {"S3", "S4", "Q8", "A4"}
    )
    per_group = {}
    worst = 0.0
    for fid, group, mu in corpus:
        per_group[group.name] = per_group.get(group.name, 0) + 1
        for lam in spectrum(right_operator(group, mu)).peripheral:
            worst = max(worst, min(abs(lam - 1), abs(lam + 1)))
    coverage = set(per_group) == expected_groups and all(
        count >= 20 for count in per_group.values()
    )
    elapsed = time.monotonic() - start
    report_line(
        3,
        "corpus peripheral spectrum: min(|l-1|, |l+1|) <= 1e-8",
        coverage and worst <= 1e-8 and elapsed < 60.0,
        f"{len(corpus)} fixtures, worst {worst:.2e}, {elapsed:.1f}s",
    )


def test_04_roots_of_unity_for_nonsymmetric_measures():
    fixtures = nonsymmetric_fixtures()
    ids = [fid for fid, _, _ in fixtures]
    required = {"Z5/delta1", "Z6/nonsym"}
    worst = 0.0
    for fid, group, mu in fixtures:
        k = min_return(mu, group.order)
        assert k is not None, fid
        for lam in spectrum(right_operator(group, mu)).peripheral:
            worst = max(worst, abs(lam**k - 1))
    report_line(
        4,
        "nonsymmetric fixtures: peripheral lambda^k = 1 for k = min_return",
        len(fixtures) >= 10 and required <= set(ids) and worst <= 1e-6,
        f"{len(fixtures)} fixtures, worst {worst:.2e}",
    )


def test_05_biharmonic_splits_exactly(corpus):
    checked = 0
    ok = True
    for fid, group, mu in corpus:
        r_op = right_operator(group, mu)
        from groupwalk.operators import left_operator

        l_op = left_operator(group, mu)
        for f in jointly_biharmonic_space(group, mu):
            dec = decompose(f, mu)
            t1 = dec.anti_part
            neg = [-v for v in t1.values]
            if (
                dec.constant is None
                or apply(r_op, t1).values != neg
                or apply(l_op, t1).values != neg
            ):
                ok = False
            checked += 1
    report_line(
        5,
        "bi-harmonic basis: constant part exact, odd part anti-harmonic on both sides",
        ok and checked >= len(corpus),
        f"{checked} basis functions",
    )


def test_06_anti_harmonic_iff_sign_character(corpus):
    ok = True
    with_character = 0
    for fid, group, mu in corpus:
        anti = anti_harmonic_space(group, mu)
        har = harmonic_space(group, mu)
        chi = find_anti_character(group, mu)
        if (len(anti) > 0) != (chi is not None):
            ok = False
            continue
        if chi is None:
            continue
        with_character += 1
        if any(chi(s) != -1 for s in mu.support()):
            ok = False
        if len(anti) != len(har):
            ok = False
        r_op = right_operator(group, mu)
        for big_f in anti:
            f1 = factor_anti_harmonic(big_f, chi, mu)
            if apply(r_op, f1).values != list(f1.values):
                ok = False
    report_line(
        6,
        "anti-harmonic space exists iff a sign character is -1 on the support",
        ok and with_character > 0,
        f"{with_character} fixtures carry a character",
    )


def test_07_odd_cycles_and_a4_have_trivial_structure():
    groups = [
        CyclicGroup(3),
        CyclicGroup(5),
        CyclicGroup(7),
        CyclicGroup(9),
        alternating_group(4),
    ]
    fixtures = corpus_fixtures(CorpusSpec(groups=groups, measures_per_group=20, seed=0))
    ok = len(fixtures) == 100
    for fid, group, mu in fixtures:
        if anti_harmonic_space(group, mu):
            ok = False
        basis = jointly_biharmonic_space(group, mu)
        if len(basis) != 1 or basis[0].values != [F(1)] * group.order:
            ok = False
    report_line(
        7,
        "odd cycles and A4: no anti-harmonic functions, bi-harmonic = constants",
        ok,
        f"{len(fixtures)} fixtures",
    )


def test_08_matrix_level_operators(corpus, dense_lift):
    small = [(fid, g, mu) for fid, g, mu in corpus if g.name in ("Z2", "Z3", "Z4", "S3")]
    assert len(small) == 80
    eigen_ok = True
    fixed_ok = True
    eigen_count = 0
    solution_count = 0
    for fid, group, mu in small:
        n = group.order
        s_right = OperatorOnMatrices(group, mu, "right")
        evals, evecs = np.linalg.eigh(dense_lift(s_right))
        for i, lam in enumerate(evals):
            if abs(lam) < 1 - 1e-8:
                continue
            arr = evecs[:, i].reshape(n, n)
            g, f = eigen_operator_to_function(arr, float(lam), mu, tol=1e-8)
            vec = f.as_array()
            residual = float(
                np.max(np.abs(right_operator(group, mu).as_array() @ vec - lam * vec))
            )
            if residual > 1e-8 or float(f.sup_norm()) == 0.0:
                eigen_ok = False
            eigen_count += 1

        nu = convolve(mu, mu)  # symmetric, so the identity carries mass
        assert group.identity in nu.weights
        s_r = OperatorOnMatrices(group, nu, "right")
        s_l = OperatorOnMatrices(group, nu, "left")
        joint = dense_lift(s_r) @ dense_lift(s_l)
        basis = float_nullspace(joint - np.eye(n * n), tol=1e-9)
        for j in range(basis.shape[1]):
            t = basis[:, j].reshape(n, n)
            r_res = float(np.linalg.norm(s_r.apply(t) - t))
            l_res = float(np.linalg.norm(s_l.apply(t) - t))
            if r_res > 1e-8 or l_res > 1e-8:
                fixed_ok = False
            solution_count += 1
    report_line(
        8,
        "matrix level: peripheral eigen-arrays give eigenfunctions; joint fixtures fix each side",
        eigen_ok and fixed_ok and eigen_count > 0 and solution_count > 0,
        f"{eigen_count} eigen-arrays, {solution_count} joint solutions",
    )


def test_09_blend_fixed_points_and_exp_bound():
    rng = np.random.default_rng(0)
    blend_ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 13))
        raw = rng.random((dim, dim)) + 1e-3
        t2 = raw / raw.sum(axis=1, keepdims=True)
        t1 = (t2 + t2 @ t2) / 2.0
        a = float(rng.uniform(0.1, 0.9))
        if not revuz_check(t1, t2, a, tol=1e-7).passed:
            blend_ok = False

    rng = np.random.default_rng(1)
    bound_ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 13))
        raw = rng.standard_normal((dim, dim))
        scale = float(rng.uniform(0.5, 1.0))
        t = raw * (scale / np.linalg.norm(raw, 2))
        for n in (1, 10, 100):
            if not exp_bound_check(t, n).passed:
                bound_ok = False

    trend = dict(stirling_trend())
    ratio_ok = 0.9 <= trend[200] <= 1.1
    report_line(
        9,
        "blend fixed points at 1e-7; exp bound at n in {1,10,100}; Stirling ratio near 1",
        blend_ok and bound_ok and ratio_ok,
        f"ratio(200) = {trend[200]:.4f}",
    )


def test_10_consecutive_power_distances_decay(corpus):
    from groupwalk.verify import foguel_decay

    lazy = 0
    ok = True
    for fid, group, mu in corpus:
        if group.identity not in mu.weights:
            continue
        lazy += 1
        result = foguel_decay(group, mu)
        if result.first_below is None or result.first_below > 500:
            ok = False
    z4 = CyclicGroup(4)
    control = foguel_decay(z4, uniform(z4, [1, 3]))
    control_ok = all(d == 1.0 for d in control.distances)
    report_line(
        10,
        "tv(mu^n, mu^(n+1)) <= 1e-6 within 500 steps when the identity carries mass",
        ok and control_ok and lazy > 0,
        f"{lazy} lazy fixtures, bipartite control constant 1",
    )


def cesaro_projection(p, lam, vec, squarings=40):
    """Oracle: spectral projection via power burn-in plus a sign filter.

    Squares P^2 repeatedly to wipe out every |theta| < 1 mode, renormalizing
    rows after each squaring (the exact power is doubly stochastic, and
    without the renormalization float drift in the top eigenvalue compounds
    exponentially).  The final two-term average separates the +1 and -1
    peripheral parts.
    """
    b = np.array(p, dtype=float)
    b = b @ b
    for _ in range(squarings):
        b = b @ b
        b /= b.sum(axis=1, keepdims=True)
    g = b @ np.asarray(vec, dtype=float)
    return 0.5 * (g + lam * (p @ g))


def _associativity_gap(basis):
    dim = basis.dimension
    worst = F(0)

    def compose(coeffs, idx, from_left):
        out = [F(0)] * dim
        for c, weight in enumerate(coeffs):
            if weight == 0:
                continue
            cell = basis.table[c][idx] if from_left else basis.table[idx][c]
            for t in range(dim):
                out[t] += weight * cell[t]
        return out

    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                left = compose(basis.table[i][j], k, from_left=True)
                right = compose(basis.table[j][k], i, from_left=False)
                worst = max(worst, max(abs(a - b) for a, b in zip(left, right)))
    return float(worst)


def test_11_boundary_diamond_structure(corpus):
    bipartite = 0
    ok = True
    for fid, group, mu in corpus:
        chi = find_anti_character(group, mu)
        if chi is None:
            continue
        bipartite += 1
        basis = peripheral_boundary(group, mu)
        dim = basis.dimension

        commutative = all(
            basis.table[i][j] == basis.table[j][i] for i in range(dim) for j in range(dim)
        )
        unit = all(
            basis.table[0][j] == [F(1) if t == j else F(0) for t in range(dim)]
            for j in range(dim)
        )
        assoc = _associativity_gap(basis) <= 1e-9

        chi_f = chi.as_function()
        square = diamond(mu, chi_f, -1, chi_f, -1)
        chi_square = square.values == [F(1)] * group.order

        p = right_operator(group, mu).as_array()
        oracle = True
        for i in range(dim):
            for j in range(dim):
                product = basis.product(i, j).as_array()
                expected = cesaro_projection(p, basis.tags[i] * basis.tags[j], basis.functions[i].as_array() * basis.functions[j].as_array())
                if np.max(np.abs(product - expected)) > 1e-9:
                    oracle = False

        if not (commutative and unit and assoc and chi_square and oracle):
            ok = False

    cycles_ok = True
    for m in range(1, 9):
        g = CyclicGroup(2 * m)
        mu = uniform(g, sorted({1, 2 * m - 1}))
        if peripheral_boundary(g, mu).dimension != 2:
            cycles_ok = False

    report_line(
        11,
        "diamond product: commutative, associative, unital, chi<>chi = 1, matches Cesaro oracle",
        ok and cycles_ok and bipartite > 0,
        f"{bipartite} bipartite fixtures; even cycles have 2-dim boundary",
    )


def test_12_jensen_and_modulus_monotonicity(corpus):
    rng = random.Random(12)
    worst = F(0)
    for _ in range(1000):
        fid, group, mu = corpus[rng.randrange(len(corpus))]
        f = GroupFunction(
            group,
            [F(rng.randint(-12, 12), rng.randint(1, 8)) for _ in range(group.order)],
        )
        margins = jensen_margins(f, mu)
        low = min(margins.values)
        if low < worst:
            worst = low
    jensen_ok = worst >= -F(1, 10**12)

    monotone_ok = True
    anti_count = 0
    for fid, group, mu in corpus:
        for big_f in anti_harmonic_space(group, mu):
            sup = max(abs(v) for v in big_f.values)
            scaled = big_f.scale(F(1) / sup)
            if not monotone_abs_check(scaled, mu, 50).all_monotone:
                monotone_ok = False
            anti_count += 1

    report_line(
        12,
        "P(f)^2 <= P(f^2) for 1000 random functions; P^n|f| nondecreasing for anti-harmonic f",
        jensen_ok and monotone_ok and anti_count > 0,
        f"worst margin {float(worst):.1e}, {anti_count} anti-harmonic checks",
    )
