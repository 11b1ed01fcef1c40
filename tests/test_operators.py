import cmath
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupwalk import linalg
from groupwalk.groups import (
    ConstructionError,
    CyclicGroup,
    DihedralGroup,
    FreeBall,
    LatticeBall,
    ProductGroup,
    QuaternionGroup,
    SymmetricGroup,
)
from groupwalk.linalg import normalize_leading, rational_rref
from groupwalk.measures import convolve, delta, make_measure, uniform
from groupwalk.operators import (
    ConvolutionOperator,
    GroupFunction,
    OperatorOnMatrices,
    apply,
    apply_truncated,
    conditional_expectation,
    eigen_operator_to_function,
    eigenspace,
    fourier_coefficient,
    left_operator,
    right_operator,
    spectrum,
)

F = Fraction


def circulant_eigenvalues(n, mu):
    """Character sums: lambda_k = sum_j mu(j) exp(2 pi i k j / n)."""
    out = []
    for k in range(n):
        out.append(sum(float(w) * cmath.exp(2j * cmath.pi * k * j / n) for j, w in mu.weights.items()))
    return out


def random_rational_measure(group, rng, support_size):
    support = rng.sample(range(group.order), support_size)
    weights = [rng.randint(1, 6) for _ in support]
    total = sum(weights)
    return make_measure(group, [(g, F(w, total)) for g, w in zip(support, weights)])


# ---------------------------------------------------------------- matrices

def test_right_matrix_entries_are_mu_of_g_inverse_x():
    g = DihedralGroup(4)
    mu = uniform(g, [1, 4])
    mat = right_operator(g, mu).exact_matrix()
    for a in range(g.order):
        for x in range(g.order):
            expected = mu.weight(g.mul(g.inv(a), x))
            assert mat[a][x] == expected


def test_left_matrix_entries_are_mu_of_x_g_inverse():
    g = DihedralGroup(4)
    mu = uniform(g, [1, 4])
    mat = left_operator(g, mu).exact_matrix()
    for a in range(g.order):
        for x in range(g.order):
            assert mat[a][x] == mu.weight(g.mul(x, g.inv(a)))


def test_rows_are_stochastic():
    g = SymmetricGroup(3)
    mu = uniform(g, [1, 2, 3])
    for op in (right_operator(g, mu), left_operator(g, mu)):
        for row in op.exact_matrix():
            assert sum(row) == 1


def test_left_and_right_operators_commute_exactly():
    from groupwalk.linalg import rational_matmul

    rng = random.Random(19)
    for group in (CyclicGroup(6), DihedralGroup(3), QuaternionGroup()):
        mu = random_rational_measure(group, rng, 3)
        nu = random_rational_measure(group, rng, 2)
        left = left_operator(group, mu).exact_matrix()
        right = right_operator(group, nu).exact_matrix()
        assert rational_matmul(left, right) == rational_matmul(right, left)


def test_apply_exact_matches_convolution_definition():
    g = CyclicGroup(5)
    mu = make_measure(g, [(1, F(2, 3)), (3, F(1, 3))])
    f = GroupFunction(g, [F(k * k, 7) for k in range(5)])
    out = apply(right_operator(g, mu), f)
    for a in range(5):
        expected = sum(w * f.values[g.mul(a, h)] for h, w in mu.weights.items())
        assert out.values[a] == expected
    out_left = apply(left_operator(g, mu), f)
    for a in range(5):
        expected = sum(w * f.values[g.mul(h, a)] for h, w in mu.weights.items())
        assert out_left.values[a] == expected


def test_apply_float_path():
    g = CyclicGroup(4)
    mu = make_measure(g, [(1, 0.5), (3, 0.5)])
    f = GroupFunction(g, [1.0, -1.0, 1.0, -1.0])
    out = apply(right_operator(g, mu), f)
    assert out.values == pytest.approx([-1.0, 1.0, -1.0, 1.0])
    # [1, 0, -1, 0] averages to zero: each point sees one +1 and one -1
    zero = apply(right_operator(g, mu), GroupFunction(g, [1.0, 0.0, -1.0, 0.0]))
    assert zero.values == pytest.approx([0.0, 0.0, 0.0, 0.0])


# ---------------------------------------------------------------- spectra

def test_spectrum_z4_bipartite():
    g = CyclicGroup(4)
    mu = uniform(g, [1, 3])
    report = spectrum(right_operator(g, mu))
    flat = [(round(r.value.real, 9), round(r.value.imag, 9), r.multiplicity) for r in report.eigenvalues]
    assert flat == [(1.0, 0.0, 1), (-1.0, 0.0, 1), (0.0, 0.0, 2)]
    assert sorted(z.real for z in report.peripheral) == pytest.approx([-1.0, 1.0])


def test_spectrum_matches_circulant_characters():
    rng = random.Random(4)
    for n in (3, 5, 6, 8):
        g = CyclicGroup(n)
        mu = random_rational_measure(g, rng, min(3, n))
        report = spectrum(right_operator(g, mu))
        # round the sort key so conjugate pairs with 1e-16 real-part jitter
        # line up the same way in both lists
        key = lambda z: (round(z.real, 8), round(z.imag, 8))
        got = sorted(
            (z for rec in report.eigenvalues for z in [rec.value] * rec.multiplicity),
            key=key,
        )
        expected = sorted(circulant_eigenvalues(n, mu), key=key)
        for a, b in zip(got, expected):
            assert abs(a - b) < 1e-8


def fourier_eigenvalues(group, mu):
    """mu^(chi) = sum_h mu(h) chi(h) over the characters of Z_a x Z_b x ..."""
    orders = [f.order for f in group.factors] if isinstance(group, ProductGroup) else [group.order]
    out = []
    for ks in itertools.product(*(range(n) for n in orders)):
        total = 0j
        for h, w in mu.weights.items():
            coords = group._decode(h) if isinstance(group, ProductGroup) else [h]
            phase = sum(k * c / n for k, c, n in zip(ks, coords, orders))
            total += float(w) * cmath.exp(2j * cmath.pi * phase)
        out.append(total)
    return out


def test_spectrum_d3_conjugate_doubles_form_one_record_each():
    g = DihedralGroup(3)
    mu = make_measure(g, [(2, F(1, 3)), (1, F(2, 3))])
    report = spectrum(right_operator(g, mu))
    assert [r.multiplicity for r in report.eigenvalues] == [2, 2, 2]


def test_spectrum_multiplicities_sum_to_order():
    rng = random.Random(31)
    groups = [DihedralGroup(n) for n in range(3, 9)] + [SymmetricGroup(3), SymmetricGroup(4), QuaternionGroup()]
    for group in groups:
        for _ in range(4):
            mu = random_rational_measure(group, rng, rng.randint(1, 4))
            report = spectrum(right_operator(group, mu))
            assert sum(r.multiplicity for r in report.eigenvalues) == group.order


def test_spectrum_matches_fourier_oracle_with_multiplicities():
    rng = random.Random(8)
    z8z8 = ProductGroup([CyclicGroup(8), CyclicGroup(8)])
    z6z4 = ProductGroup([CyclicGroup(6), CyclicGroup(4)])
    cases = [
        (z8z8, uniform(z8z8, [z8z8._encode([1, 0]), z8z8._encode([0, 1])])),
        (z6z4, random_rational_measure(z6z4, rng, 3)),
    ]
    for n in (16, 32):
        g = CyclicGroup(n)
        cases.append((g, make_measure(g, [(1, F(1, 4)), (n // 2 + 1, F(1, 4)), (2, F(1, 2))])))
        cases.append((g, random_rational_measure(g, rng, 3)))
    for group, mu in cases:
        report = spectrum(right_operator(group, mu))
        oracle = fourier_eigenvalues(group, mu)
        for rec in report.eigenvalues:
            assert sum(abs(z - rec.value) < 1e-6 for z in oracle) == rec.multiplicity
        assert sum(r.multiplicity for r in report.eigenvalues) == group.order


def test_spectrum_z3_delta_is_cube_roots():
    g = CyclicGroup(3)
    report = spectrum(right_operator(g, delta(g, 1)))
    assert len(report.peripheral) == 3
    for z in report.peripheral:
        assert abs(z**3 - 1) < 1e-9


def test_spectral_radius_at_most_one():
    rng = random.Random(23)
    for group in (CyclicGroup(7), DihedralGroup(5), SymmetricGroup(3), QuaternionGroup()):
        for _ in range(5):
            mu = random_rational_measure(group, rng, rng.randint(1, 4))
            report = spectrum(right_operator(group, mu))
            assert max(abs(r.value) for r in report.eigenvalues) <= 1 + 1e-9


def test_eigenspace_exact_pm1():
    g = CyclicGroup(4)
    mu = uniform(g, [1, 3])
    op = right_operator(g, mu)
    plus = eigenspace(op, 1)
    assert len(plus) == 1
    assert plus[0].values == [F(1)] * 4
    minus = eigenspace(op, -1)
    assert len(minus) == 1
    assert minus[0].values == [F(1), F(-1), F(1), F(-1)]
    assert minus[0].is_exact


def fraction_eigenspace(op, lam):
    """Dense Fraction elimination of P - lam I, the pre-modular computation."""
    n = op.group.order
    mat = [[x - (lam if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(op.exact_matrix())]
    rref, pivots = rational_rref(mat)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [F(0)] * n
        vec[free] = F(1)
        for row, col in enumerate(pivots):
            vec[col] = -rref[row][free]
        basis.append(normalize_leading(vec))
    return basis


def test_eigenspace_matches_fraction_elimination_on_corpus():
    from groupwalk.verify import default_corpus_groups, random_symmetric_generating_measure

    rng = random.Random(12)
    for group in default_corpus_groups():
        measures = [random_symmetric_generating_measure(group, rng), random_rational_measure(group, rng, 2)]
        for mu in measures:
            for op in (right_operator(group, mu), left_operator(group, mu)):
                for lam in (1, -1):
                    got = [f.values for f in eigenspace(op, lam)]
                    assert got == fraction_eigenspace(op, lam)


def test_eigenspace_order_one_group():
    g = CyclicGroup(1)
    op = right_operator(g, delta(g, 0))
    assert [f.values for f in eigenspace(op, 1)] == [[F(1)]]
    assert eigenspace(op, -1) == []


def test_eigenspace_survives_denominator_and_unlucky_primes(monkeypatch):
    # 3 divides the weight denominators and is skipped; modulo 2 the weight
    # 2/3 vanishes and the walk becomes a permutation with a larger fixed
    # space, which the exact certificate rejects
    g = DihedralGroup(3)
    mu = make_measure(g, [(1, F(2, 3)), (3, F(1, 3))])
    expected = {lam: [f.values for f in eigenspace(right_operator(g, mu), lam)] for lam in (1, -1)}
    monkeypatch.setattr(linalg, "_PRIMES", (3, 2) + linalg._PRIMES)
    for lam in (1, -1):
        op = right_operator(g, mu)
        assert [f.values for f in eigenspace(op, lam)] == expected[lam] == fraction_eigenspace(op, lam)


def test_eigenspace_float_and_absent():
    g = CyclicGroup(4)
    mu = uniform(g, [1, 3])
    op = right_operator(g, mu)
    zero_space = eigenspace(op, 0)
    assert len(zero_space) == 2
    assert eigenspace(op, 0.5) == []


def test_spectrum_requires_finite():
    ball = LatticeBall(1, 3)
    mu = uniform(ball, [ball.index_of_form((1,)), ball.index_of_form((-1,))])
    with pytest.raises(ConstructionError):
        right_operator(ball, mu)


# ---------------------------------------------------------------- truncated steps

def test_apply_truncated_line_parity():
    ball = LatticeBall(1, 50)
    mu = uniform(ball, [ball.index_of_form((1,)), ball.index_of_form((-1,))])
    parity = GroupFunction(
        ball, [F(-1) if ball.length(g) % 2 else F(1) for g in ball.elements()]
    )
    stepped, interior = apply_truncated(ball, mu, parity, "right")
    assert len(interior) == 99
    for g in interior:
        assert stepped.values[g] == -parity.values[g]
    for g in ball.elements():
        if g not in set(interior):
            assert stepped.values[g] is None
    # the two-sided step needs one more layer: 97 points
    both, both_interior = apply_truncated(ball, mu, stepped, "left")
    assert len(both_interior) == 97
    for g in both_interior:
        assert both.values[g] == parity.values[g]


def test_apply_truncated_free_ball():
    ball = FreeBall(2, 3)
    gens = [ball.index_of_form(w) for w in ((1,), (-1,), (2,), (-2,))]
    mu = uniform(ball, gens)
    parity = GroupFunction(
        ball, [F(-1) if ball.length(g) % 2 else F(1) for g in ball.elements()]
    )
    stepped, interior = apply_truncated(ball, mu, parity, "left")
    assert len(interior) == 17  # radius-2 sub-ball of F2
    for g in interior:
        assert stepped.values[g] == -parity.values[g]


def test_apply_truncated_measure_from_smaller_ball():
    small = LatticeBall(1, 1)
    big = LatticeBall(1, 4)
    mu = uniform(small, [small.index_of_form((1,)), small.index_of_form((-1,))])
    f = GroupFunction(big, [F(big.canonical_form(g)[0]) for g in big.elements()])
    stepped, interior = apply_truncated(big, mu, f, "right")
    assert len(interior) == 7  # radius-3 sub-ball
    for g in interior:
        assert stepped.values[g] == f.values[g]  # averaging x-1 and x+1 returns x


def test_apply_truncated_radius_zero_has_empty_interior():
    point = FreeBall(2, 0)
    src = FreeBall(2, 1)
    mu = uniform(src, [src.index_of_form(w) for w in ((1,), (-1,), (2,), (-2,))])
    f = GroupFunction(point, [F(1)])
    stepped, interior = apply_truncated(point, mu, f, "right")
    assert interior == []
    assert stepped.values == [None]


def test_apply_truncated_rejects_cross_family():
    line = LatticeBall(1, 2)
    free = FreeBall(1, 2)
    mu = uniform(free, [free.index_of_form((1,)), free.index_of_form((-1,))])
    f = GroupFunction(line, [F(0)] * line.order)
    with pytest.raises(ValueError):
        apply_truncated(line, mu, f, "right")


def test_apply_truncated_rejects_deep_support():
    # make_measure already refuses deep supports, so forge the measure to
    # check the operator's own guard
    from groupwalk.measures import GroupMeasure

    ball = LatticeBall(1, 4)
    mu = GroupMeasure(ball, {ball.index_of_form((2,)): F(1)}, True)
    f = GroupFunction(ball, [F(0)] * ball.order)
    with pytest.raises(ValueError):
        apply_truncated(ball, mu, f, "right")


def truncated_step_oracle(group, mu, f, side):
    """One truncated step by canonical forms, element by element: the loop
    apply_truncated ran before it gathered over the ball's stencil."""
    steps = [(mu.group.canonical_form(h), w) for h, w in sorted(mu.weights.items())]
    exact = mu.exact and all(v is None or isinstance(v, (int, F)) for v in f.values)
    values, interior = [], []
    for g in group.elements():
        g_form = group.canonical_form(g)
        acc = F(0) if exact else 0.0
        for h_form, w in steps:
            prod = group.mul_forms(g_form, h_form) if side == "right" else group.mul_forms(h_form, g_form)
            idx = group.index_of_form(prod)
            if idx is None or f.values[idx] is None:
                values.append(None)
                break
            acc = acc + w * f.values[idx]
        else:
            values.append(acc)
            interior.append(g)
    return values, interior


def _ball(family, size, radius):
    return LatticeBall(size, radius) if family == "lattice" else FreeBall(size, radius)


@st.composite
def truncated_steps(draw):
    """(ball, measure, function, side): lattice dims 1-3 or free ranks 1-2,
    radii 0-4, the measure on the same ball or on another ball of the
    family, exact (numerators up to 2^80) or float values with None holes."""
    family = draw(st.sampled_from(["lattice", "free"]))
    size = draw(st.integers(1, 3 if family == "lattice" else 2))
    ball = _ball(family, size, draw(st.integers(0, 4)))
    home = ball if draw(st.booleans()) else _ball(family, size, draw(st.integers(0, 4)))
    steps = [h for h in home.elements() if home.length(h) <= 1]
    support = draw(st.lists(st.sampled_from(steps), min_size=1, max_size=len(steps), unique=True))
    weights = draw(st.lists(st.integers(1, 7), min_size=len(support), max_size=len(support)))
    if draw(st.booleans()):
        mu = make_measure(home, [(h, F(w, sum(weights))) for h, w in zip(support, weights)])
    else:
        mu = make_measure(home, [(h, w / sum(weights)) for h, w in zip(support, weights)])
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    holes = draw(st.sampled_from([0.0, 0.1, 0.5]))
    if draw(st.booleans()):
        draw_value = lambda: F(rng.randrange(-(2**80), 2**80), rng.randint(1, 2**20))  # noqa: E731
    else:
        draw_value = lambda: rng.uniform(-1e3, 1e3)  # noqa: E731
    values = [None if rng.random() < holes else draw_value() for _ in ball.elements()]
    return ball, mu, GroupFunction(ball, values), draw(st.sampled_from(["right", "left"]))


@given(truncated_steps())
def test_apply_truncated_matches_canonical_form_loop(step):
    ball, mu, f, side = step
    stepped, interior = apply_truncated(ball, mu, f, side)
    assert (stepped.values, interior) == truncated_step_oracle(ball, mu, f, side)


# ---------------------------------------------------------------- stencil

STENCIL_GROUPS = [
    CyclicGroup(5),
    DihedralGroup(3),
    DihedralGroup(4),
    QuaternionGroup(),
    SymmetricGroup(3),
    ProductGroup([CyclicGroup(2), CyclicGroup(3)]),
]


@st.composite
def walks(draw):
    """(group, measure, side); half the measures are mu * mu, whose weights
    dict is filled in product order rather than sorted order."""
    group = draw(st.sampled_from(STENCIL_GROUPS))
    support = draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(1, 6), min_size=len(support), max_size=len(support)))
    mu = make_measure(group, [(g, F(w, sum(weights))) for g, w in zip(support, weights)])
    if draw(st.booleans()):
        mu = convolve(mu, mu)
    return group, mu, draw(st.sampled_from(["right", "left"]))


@given(walks(), st.integers(0, 2**32 - 1), st.lists(st.integers(-9, 9), min_size=12, max_size=12))
def test_stencil_apply_matches_dense_matrices(walk, seed, numerators):
    group, mu, side = walk
    n = group.order
    op = ConvolutionOperator(group, mu, side)
    # right: perm[e] = e * h = h; left: perm[e] = h * e = h
    assert [int(perm[group.identity]) for _, perm in op.stencil()] == mu.support()

    rng = np.random.default_rng(seed)
    real = rng.standard_normal(n)
    for vec in (real, real + 1j * rng.standard_normal(n)):
        got = np.array(apply(op, GroupFunction(group, list(vec))).values)
        assert np.allclose(got, op.as_array() @ vec, rtol=0.0, atol=1e-12)

    values = [F(k, 1 + i % 5) for i, k in enumerate(numerators[:n])]
    expected = [sum(a * v for a, v in zip(row, values)) for row in op.exact_matrix()]
    assert apply(op, GroupFunction(group, values)).values == expected

    lift = OperatorOnMatrices(group, mu, side)
    arr = rng.standard_normal((n, n))
    assert np.allclose(lift.matrix() @ arr.ravel(), lift.apply(arr).ravel(), rtol=0.0, atol=1e-12)


@given(walks(), st.integers(0, 2**32 - 1))
def test_matrix_lift_nested_lists_match_ndarrays(walk, seed):
    group, mu, side = walk
    n = group.order
    lift = OperatorOnMatrices(group, mu, side)
    rng = np.random.default_rng(seed)
    real = rng.standard_normal((n, n))
    for arr in (real, real + 1j * rng.standard_normal((n, n))):
        out = lift.apply(arr)
        assert isinstance(out, np.ndarray) and out.dtype == arr.dtype
        assert lift.apply(arr.tolist()) == out.tolist()

    exact = [[F(int(k), 7) for k in row] for row in rng.integers(-50, 50, (n, n))]
    expected = [
        [sum(w * exact[perm[i]][perm[j]] for w, perm in ConvolutionOperator(group, mu, side).stencil())
         for j in range(n)]
        for i in range(n)
    ]
    out = lift.apply(exact)
    assert out == expected
    assert all(isinstance(x, F) for row in out for x in row)


# ---------------------------------------------------------------- matrix level

def test_superoperator_unital_and_trace_preserving():
    g = CyclicGroup(6)
    mu = uniform(g, [1, 5])
    for side in ("right", "left"):
        s = OperatorOnMatrices(g, mu, side)
        eye = np.eye(6)
        assert np.allclose(s.apply(eye), eye)
        rng = np.random.default_rng(0)
        t = rng.standard_normal((6, 6))
        assert np.trace(s.apply(t)) == pytest.approx(np.trace(t))


def test_superoperator_positive_on_psd():
    g = DihedralGroup(3)
    mu = uniform(g, [1, 3])
    s = OperatorOnMatrices(g, mu, "right")
    rng = np.random.default_rng(8)
    for _ in range(5):
        b = rng.standard_normal((6, 6))
        psd = b @ b.T
        out = s.apply(psd)
        eigs = np.linalg.eigvalsh((out + out.T) / 2)
        assert eigs.min() >= -1e-10


def test_superoperator_diagonal_action_matches_convolution():
    g = DihedralGroup(3)
    mu = uniform(g, [1, 3, 4])
    f = GroupFunction(g, [F(k, 3) for k in range(6)])
    right_diag = OperatorOnMatrices(g, mu, "right").apply(np.diag(f.as_array()))
    expected = apply(right_operator(g, mu), f).as_array()
    assert np.allclose(np.diagonal(right_diag), expected)
    left_diag = OperatorOnMatrices(g, mu, "left").apply(np.diag(f.as_array()))
    expected_left = apply(left_operator(g, mu), f).as_array()
    assert np.allclose(np.diagonal(left_diag), expected_left)


def test_superoperator_exact_rows():
    g = CyclicGroup(3)
    mu = uniform(g, [1])
    s = OperatorOnMatrices(g, mu, "right")
    t = [[F(i * 3 + j) for j in range(3)] for i in range(3)]
    out = s.apply(t)
    for i in range(3):
        for j in range(3):
            assert out[i][j] == t[g.mul(i, 1)][g.mul(j, 1)]


def test_superoperator_order_cap():
    with pytest.raises(ConstructionError):
        OperatorOnMatrices(SymmetricGroup(4), uniform(SymmetricGroup(4), [1]), "right")


def test_conditional_expectation_intertwines():
    # E(S T) = P(E T) for the right side, exactly the statement used to pull
    # eigen-arrays down to eigenfunctions
    g = DihedralGroup(3)
    mu = uniform(g, [1, 3])
    s = OperatorOnMatrices(g, mu, "right")
    op = right_operator(g, mu)
    rng = np.random.default_rng(14)
    for _ in range(5):
        t = rng.standard_normal((6, 6))
        lhs = conditional_expectation(g, s.apply(t)).as_array()
        rhs = apply(op, conditional_expectation(g, t)).as_array()
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_fourier_coefficient_of_translation_is_indicator():
    g = CyclicGroup(5)
    for h in range(5):
        lam_h = np.zeros((5, 5))
        for y in range(5):
            lam_h[g.mul(h, y), y] = 1.0  # left translation matrix
        for x in range(5):
            coeff = fourier_coefficient(g, lam_h, x)
            expected = 1.0 if x == h else 0.0
            assert coeff.values == pytest.approx([expected] * 5)


def test_eigen_operator_to_function_z2():
    g = CyclicGroup(2)
    mu = delta(g, 1)
    t = np.diag([1.0, -1.0])
    picked_g, f = eigen_operator_to_function(t, -1.0, mu)
    assert picked_g == 0
    assert f.values == pytest.approx([1.0, -1.0])
    out = apply(right_operator(g, mu), f)
    assert out.values == pytest.approx([-1.0, 1.0])


def test_eigen_operator_to_function_rejects_non_eigenvector():
    g = CyclicGroup(2)
    mu = delta(g, 1)
    with pytest.raises(ValueError):
        eigen_operator_to_function(np.ones((2, 2)), -1.0, mu)
    with pytest.raises(ValueError):
        eigen_operator_to_function(np.zeros((2, 2)), -1.0, mu)
