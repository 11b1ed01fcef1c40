import cmath
import gc
import itertools
import math
import random
import tracemalloc
import weakref
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupwalk import operators
from groupwalk.groups import (
    AlternatingGroup,
    ConstructionError,
    CyclicGroup,
    DihedralGroup,
    FreeBall,
    LatticeBall,
    ProductGroup,
    QuaternionGroup,
    SymmetricGroup,
    TableGroup,
)
from groupwalk.linalg import float_nullspace, rational_rref
from groupwalk.measures import convolve, delta, make_measure, uniform
from groupwalk.operators import (
    ComputationError,
    ConvolutionOperator,
    GroupFunction,
    OperatorOnMatrices,
    apply,
    apply_truncated,
    component_kernel,
    conditional_expectation,
    eigen_operator_to_function,
    eigenspace,
    fourier_coefficient,
    label_walks,
    left_operator,
    right_operator,
    solve_spectra,
    spectrum,
)

from ball_reference import reference
from linalg_reference import normalize_leading
from walk_reference import certified_alone, classes_one_pass

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
            coords = np.unravel_index(h, orders)
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
        (z8z8, uniform(z8z8, [int(np.ravel_multi_index(c, (8, 8))) for c in ((1, 0), (0, 1))])),
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
    """Dense Fraction elimination of P - lam I: the canonical free-column
    basis, normalized."""
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


def test_eigenspace_survives_denominator_and_unlucky_primes():
    # unequal weights with denominator 3 on a non-abelian group
    g = DihedralGroup(3)
    mu = make_measure(g, [(1, F(2, 3)), (3, F(1, 3))])
    for side in ("right", "left"):
        for lam in (1, -1):
            op = ConvolutionOperator(g, mu, side)
            assert [f.values for f in eigenspace(op, lam)] == fraction_eigenspace(op, lam)


def test_eigenspace_float_and_absent():
    g = CyclicGroup(4)
    mu = uniform(g, [1, 3])
    op = right_operator(g, mu)
    zero_space = eigenspace(op, 0)
    assert len(zero_space) == 2
    assert eigenspace(op, 0.5) == []


def test_block_eigenspace_is_budgeted_before_any_allocation(monkeypatch):
    """Away from +-1 the character blocks (D3: 3 blocks of 2 x 2) and then
    the lifted basis are estimated before they are built."""
    g = DihedralGroup(3)
    op = right_operator(g, uniform(g, [1, 2]))
    monkeypatch.setattr(operators, "DENSE_BYTES_BUDGET", 3 * 2 * 2 * 16 - 1)
    with monkeypatch.context() as patch:
        patch.setattr(ConvolutionOperator, "as_array", lambda self: pytest.fail("allocated"))
        patch.setattr(type(g), "_products", lambda *args: pytest.fail("allocated"))
        with pytest.raises(ConstructionError, match="character blocks on D3 needs a dense 3 x 2 x 2.*DENSE_BYTES_BUDGET"):
            eigenspace(op, -0.5)
    monkeypatch.setattr(operators, "DENSE_BYTES_BUDGET", 3 * 2 * 2 * 16)
    with pytest.raises(ConstructionError, match="-0.5 eigenspace on D3 needs a dense 4 x 6 x 1.*DENSE_BYTES_BUDGET"):
        eigenspace(op, -0.5)
    monkeypatch.setattr(operators, "DENSE_BYTES_BUDGET", 4 * 6 * 16)
    assert len(eigenspace(op, -0.5)) == 4  # two triangles, each with -1/2 twice


def _certified_by_apply(op, lam, basis):
    """|P f - lam f| <= 1e-9 |f| in the sup norm for every f in basis."""
    return all(
        np.abs(apply(op, f).as_array() - lam * f.as_array()).max() <= 1e-9 * f.sup_norm()
        for f in basis
    )


def test_eigenspace_on_d4096_within_the_budget():
    """Order 8192: the dense SVD would need 8 GiB; the blocks are 4096 of 2 x 2."""
    g = DihedralGroup(4096)
    op = right_operator(g, uniform(g, [1, 4095, 4096]))
    eigvals = op.eigenvalues()[0]
    lam = complex(eigvals[1234])
    basis = eigenspace(op, lam)
    assert len(basis) == np.count_nonzero(np.abs(eigvals - lam) <= 1e-9) >= 1
    assert _certified_by_apply(op, lam, basis)


def test_peripheral_eigenspace_of_z60000_delta_one():
    """The walk of delta_1 on Z60000 has the simple eigenvalue omega =
    exp(2 pi i 7/60000) with eigenvector x -> omega^x, on either side."""
    g = CyclicGroup(60000)
    omega = cmath.exp(2j * cmath.pi * 7 / 60000)
    for op in (right_operator(g, delta(g, 1)), left_operator(g, delta(g, 1))):
        (f,) = eigenspace(op, omega)
        assert _certified_by_apply(op, omega, [f])
        assert np.abs(f.as_array() - np.exp(2j * np.pi * 7 * np.arange(60000) / 60000)).max() <= 1e-9


def test_eigenspace_does_not_scale_by_a_round_off_identity_entry():
    """On this S4 left walk the eigenvalues -3/11 +- 6.1e-10 i each have a
    null vector whose identity entry is round-off sized: dividing by it
    gave max|f| of 1.5e9 and an absolute residual of 2.8e-7.  Dividing by
    the first entry of modulus >= 1e-8 times the largest keeps the vectors
    at unit scale."""
    g = SymmetricGroup(4)
    mu = make_measure(g, [(8, F(2, 11)), (9, F(4, 11)), (16, F(3, 11)), (18, F(2, 11))])
    op = left_operator(g, mu)
    for lam in op.eigenvalues()[0][[4, 5]].tolist():
        basis = eigenspace(op, lam)
        assert len(basis) == 3
        assert all(f.sup_norm() < 100 for f in basis)
        assert _certified_by_apply(op, lam, basis)


@pytest.mark.parametrize("lam", [math.nan, math.inf, complex(0, -math.inf), True, False])
def test_eigenspace_refuses_bad_lam(lam):
    g = CyclicGroup(4)
    with pytest.raises(ValueError, match="lam must be a finite number"):
        eigenspace(right_operator(g, uniform(g, [1, 3])), lam)


BAD_TOLERANCES = [0, -1e-9, math.nan, math.inf, True]


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_eigenspace_refuses_bad_tol(tol):
    g = CyclicGroup(4)
    with pytest.raises(ValueError, match="tol must be a finite positive number"):
        eigenspace(right_operator(g, uniform(g, [1, 3])), 0, tol=tol)


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_spectrum_refuses_bad_tol(tol):
    """A NaN tol would pass every residual: it is refused, as in eigenspace."""
    g = CyclicGroup(6)
    with pytest.raises(ValueError, match="tol must be a finite positive number"):
        spectrum(right_operator(g, uniform(g, [1, 5])), tol=tol)


def test_spectrum_flags_exactly_the_records_at_pm1():
    """Z6 with mu uniform on {1, 5} has the eigenvalues cos(2 pi k / 6):
    the records at +-1 are flagged peripheral, those at +-1/2 are not, the
    peripheral list holds the flagged values, and to_json writes the flag."""
    g = CyclicGroup(6)
    report = spectrum(right_operator(g, uniform(g, [1, 5])))
    flagged = [rec for rec in report.eigenvalues if rec.peripheral]
    assert sorted(rec.value.real for rec in flagged) == pytest.approx([-1, 1], abs=1e-12)
    assert sorted(abs(rec.value) for rec in report.eigenvalues if not rec.peripheral) == pytest.approx([0.5, 0.5])
    assert report.peripheral == [rec.value for rec in flagged]
    assert [rec.to_json()["peripheral"] for rec in report.eigenvalues] == [True, True, False, False]


def test_spectrum_requires_finite():
    ball = LatticeBall(1, 3)
    mu = uniform(ball, [ball.index_of_form((1,)), ball.index_of_form((-1,))])
    with pytest.raises(ConstructionError):
        right_operator(ball, mu)


# ---------------------------------------------------------------- memoised operators

def test_operators_are_memoised_per_measure_and_side():
    g = DihedralGroup(4)
    mu = make_measure(g, [(1, F(1, 2)), (4, F(1, 2))])
    right = right_operator(g, mu)
    assert right_operator(g, mu) is right
    assert left_operator(g, mu) is left_operator(g, mu)
    others = [
        left_operator(g, mu),
        right_operator(g, uniform(g, [1, 4])),  # an equal but distinct measure
        right_operator(g, mu.as_float()),
    ]
    assert all(op is not right for op in others)
    assert len({id(op) for op in others}) == 3
    twin = DihedralGroup(4)  # another object of the group: refused, memo or not
    with pytest.raises(ValueError, match="measure on D4 does not walk on D4: not its group object"):
        right_operator(twin, mu)
    assert right_operator(g, mu) is right


@pytest.mark.parametrize("home, other", [(4, 5), (5, 4)])
def test_operators_refuse_a_measure_from_a_group_of_another_order(home, other):
    """Z5 with a measure on Z4 used to return numbers (or fail in the
    eigen-residual check) and Z4 with a measure on Z5 an IndexError."""
    group, mu = CyclicGroup(other), uniform(CyclicGroup(home), [0, 1, home - 1])
    for build in (right_operator, left_operator, ConvolutionOperator):
        args = (group, mu, "right") if build is ConvolutionOperator else (group, mu)
        with pytest.raises(ValueError, match=f"measure on Z{home} does not walk on Z{other}: "):
            build(*args)
    twin = CyclicGroup(home)  # another object of the same group is refused too
    with pytest.raises(ValueError, match=f"measure on Z{home} does not walk on Z{home}: "):
        right_operator(twin, mu)
    assert spectrum(right_operator(mu.group, mu)).peripheral == [1.0]


def test_spectrum_power_sums_refuse_blocks_of_another_walk(monkeypatch):
    """A residual is taken on the factored blocks, so it passes blocks that
    do not belong to the walk (on 1 x 1 blocks it is 0 whatever they hold);
    sum lambda = tr P and sum lambda^2 = tr P^2 do not: blocks that miss one
    step of a symmetric measure, or hold the steps in the wrong coset
    column, are refused."""
    real = operators._character_blocks
    z8, d5 = CyclicGroup(8), DihedralGroup(5)
    lazy = make_measure(z8, [(1, Fraction(1, 4)), (4, Fraction(1, 2)), (7, Fraction(1, 4))])
    turn = make_measure(d5, [(1, Fraction(1, 2)), (5, Fraction(1, 2))])

    def without_step_4(ops):
        [op] = ops
        return real([SimpleNamespace(group=op.group, side=op.side, weights={1: Fraction(1, 4), 7: Fraction(1, 4)})])

    monkeypatch.setattr(operators, "_character_blocks", without_step_4)
    with pytest.raises(ComputationError, match=r"power sum 2 misses tr P\^2 by 2\.000e\+00 .* on Z8"):
        spectrum(ConvolutionOperator(z8, lazy, "right"))
    def steps_in_the_other_column(ops):  # D5's blocks are 2 x 2
        ks, blocks = real(ops)
        return ks, blocks[..., ::-1].copy()

    monkeypatch.setattr(operators, "_character_blocks", steps_in_the_other_column)
    with pytest.raises(ComputationError, match=r"power sum 1 misses tr P\^1 .* on D5"):
        spectrum(ConvolutionOperator(d5, turn, "left"))
    monkeypatch.undo()
    for group, mu in ((z8, lazy), (d5, turn)):
        assert spectrum(ConvolutionOperator(group, mu, "left")).peripheral


def test_cached_spectrum_rechecks_tol_and_matches_fresh_operator(monkeypatch):
    g = DihedralGroup(6)  # six 2 x 2 character blocks
    mu = make_measure(g, [(1, 0.5), (2, 0.3), (7, 0.2)])
    op = right_operator(g, mu)
    first = spectrum(op)
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
    with pytest.raises(ComputationError, match="exceeds tol"):
        spectrum(op, tol=1e-300)
    second = spectrum(op)
    assert calls == []  # both calls reuse the operator's eigensolve
    fresh = spectrum(ConvolutionOperator(g, mu, "right"))
    for report in (second, fresh):
        assert (report.eigenvalues, report.peripheral) == (first.eigenvalues, first.peripheral)
    assert calls == [(6, 2, 2)]


def test_spectrum_is_kept_on_the_operator_per_tolerance_pair(monkeypatch):
    """One report per operator, from one records pass, shared by every tol
    that passes (1e-9, 1e-6, 1 and 1.0); a tol that fails raises on every
    call, before the report is built or after it is kept."""
    g = DihedralGroup(6)
    mu = make_measure(g, [(1, 0.5), (2, 0.3), (7, 0.2)])
    op = right_operator(g, mu)
    passes = []
    real = operators._clusters
    monkeypatch.setattr(operators, "_clusters", lambda *args: passes.append(args) or real(*args))
    for _ in range(2):  # a failed check keeps nothing
        with pytest.raises(ComputationError, match="exceeds tol"):
            spectrum(op, tol=1e-300)
    assert op._report is None and passes == []
    first = spectrum(op)
    assert all(spectrum(op, tol=tol) is first for tol in (1e-9, 1e-6, 1, 1.0))
    assert spectrum(right_operator(g, mu)) is first and operators.spectra([op, op], 1e-6) == [first, first]
    for _ in range(2):
        with pytest.raises(ComputationError, match="exceeds tol"):
            spectrum(op, tol=1e-300)
    assert len(passes) == 1 and spectrum(op) is first


def test_dense_matrix_is_shared_and_read_only():
    g = CyclicGroup(5)
    mu = uniform(g, [1, 4])  # the operator holds its measure weakly
    op = right_operator(g, mu)
    mat = op.as_array()
    with pytest.raises(ValueError):
        mat[0, 0] = 1.0
    assert right_operator(g, op.measure).as_array() is mat
    assert mat[0, 1] == 0.5


def test_dense_allocations_refused_over_budget(monkeypatch):
    g = DihedralGroup(3)  # the spectrum solves three 2 x 2 complex blocks
    mu = uniform(g, [1, 2])
    monkeypatch.setattr(operators, "DENSE_BYTES_BUDGET", 8 * 36 - 1)
    with pytest.raises(ConstructionError, match="DENSE_BYTES_BUDGET"):
        right_operator(g, mu).as_array()
    # delta at the identity: six classes, so the basis needs 6 x 6 entries
    with pytest.raises(ConstructionError, match="eigenspace basis.*DENSE_BYTES_BUDGET"):
        eigenspace(left_operator(g, delta(g, 0)), 1)
    # the float matrix fits exactly; the block stack is refused one byte short
    monkeypatch.setattr(operators, "DENSE_BYTES_BUDGET", 8 * 36)
    assert right_operator(g, mu).as_array().shape == (6, 6)
    monkeypatch.setattr(operators, "DENSE_BYTES_BUDGET", 16 * 3 * 2 * 2 - 1)
    with pytest.raises(ConstructionError, match="character blocks.*3 x 2 x 2.*DENSE_BYTES_BUDGET"):
        spectrum(right_operator(g, mu))
    monkeypatch.setattr(operators, "DENSE_BYTES_BUDGET", 16 * 3 * 2 * 2)
    assert sum(r.multiplicity for r in spectrum(right_operator(g, mu)).eigenvalues) == 6


def test_stencils_of_one_group_share_one_product_per_side_and_element(monkeypatch):
    """Operators on one group object built together share one permutation
    per side and support element, row for row the group's own right_perm
    and left_perm."""
    g = DihedralGroup(5)
    supports = ([1, 4], [1, 5, 6], [0, 7])
    ops = [ConvolutionOperator(g, uniform(g, s), side) for s in supports for side in ("right", "left")]
    expected = [
        [(float(op.weights[h]), (g.right_perm if op.side == "right" else g.left_perm)(h).tolist()) for h in sorted(op.weights)]
        for op in ops
    ]
    calls, products = [], g._products
    monkeypatch.setattr(g, "_products", lambda a, b: calls.append(1) or products(a, b))
    operators._build_stencils(ops)
    assert len(calls) == 2 * 6  # elements 0, 1, 4, 5, 6, 7 on each side
    walks = [op.stencil() for op in ops]
    assert [[(w, perm.tolist()) for w, perm in zip(walk.weights, walk.perms)] for walk in walks] == expected
    assert [[F(x, walk.den) for x in walk.nums.tolist()] for walk in walks] == [
        [op.weights[h] for h in sorted(op.weights)] for op in ops
    ]
    assert walks[0].perms[0] is walks[2].perms[0]  # both right walks step by 1


def test_stencil_is_budgeted_before_it_is_built(monkeypatch):
    # a full-support walk on Z16384 would need 16384 permutations of 16384
    group = CyclicGroup(16384)

    def unbudgeted(h):
        raise AssertionError("permutation built before the budget check")

    monkeypatch.setattr(group, "right_perm", unbudgeted)
    op = right_operator(group, uniform(group, group.elements()))
    with pytest.raises(ConstructionError, match="right stencil on Z16384.*DENSE_BYTES_BUDGET"):
        op.stencil()


@pytest.mark.parametrize("group", [
    CyclicGroup(6),
    DihedralGroup(5),
    TableGroup([[(a + b) % 4 for b in range(4)] for a in range(4)]),
    ProductGroup([DihedralGroup(3), ProductGroup([CyclicGroup(2), CyclicGroup(3)])]),
    LatticeBall(2, 3),
    FreeBall(2, 3),
], ids=lambda g: g.name)
def test_stencil_calls_no_per_element_mul(group, monkeypatch):
    mu = uniform(group, [1, 2, 3])

    def per_element(self, a, b):
        raise AssertionError("stencil called mul")

    for cls in (CyclicGroup, DihedralGroup, TableGroup, ProductGroup, LatticeBall, FreeBall):
        monkeypatch.setattr(cls, "mul", per_element)
    for side in ("right", "left"):
        stencil = ConvolutionOperator(group, mu, side).stencil()
        assert [len(perm) for perm in stencil.perms] == [group.order] * 3


def test_memoised_operator_dies_with_its_measure_without_gc():
    g = CyclicGroup(8)
    mu = uniform(g, [1, 7])
    op = right_operator(g, mu)
    spectrum(op)
    op.as_array()
    assert op.measure is mu
    alive = weakref.ref(op)
    gc.disable()
    try:
        del op, mu
        assert alive() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------- character spectra

def _lapack_spectrum(dense_eigen, group, mu, side="right"):
    """Oracle: the spectrum of a fresh operator whose eigenpairs come from
    LAPACK on the dense matrix."""
    op = ConvolutionOperator(group, mu, side)
    op._eigen = dense_eigen(op)
    return spectrum(op)


def _record_solves(monkeypatch):
    """(blocks, eigenvalues, eigenvectors) of every later eig or eigh call."""
    solved = []
    for name in ("eig", "eigh"):

        def run(a, solver=getattr(np.linalg, name)):
            out = solver(a)
            solved.append((a, *out))
            return out

        monkeypatch.setattr(np.linalg, name, run)
    return solved


def _is_abelian(group):
    return all(group.mul(a, b) == group.mul(b, a) for a in group.elements() for b in group.elements())


@pytest.mark.parametrize(
    "group",
    [
        CyclicGroup(64),
        ProductGroup([ProductGroup([CyclicGroup(4), CyclicGroup(1)]), CyclicGroup(6)]),
        DihedralGroup(5),
        SymmetricGroup(4),
        QuaternionGroup(),
        AlternatingGroup(4),
        ProductGroup([DihedralGroup(3), ProductGroup([CyclicGroup(2), QuaternionGroup()])]),
    ],
    ids=lambda g: g.name,
)
def test_character_spectrum_builds_no_dense_matrix(group, monkeypatch):
    solved = _record_solves(monkeypatch)
    mu = make_measure(group, [(1, 0.5), (2, 0.3), (group.order - 1, 0.2)])
    for op in (right_operator(group, mu), left_operator(group, mu)):
        report = spectrum(op)
        assert op._float_matrix is None
        assert sum(rec.multiplicity for rec in report.eigenvalues) == group.order
        assert len(report.peripheral) == 1 and abs(report.peripheral[0] - 1) < 1e-12
        if _is_abelian(group):  # one 1 x 1 block per character: the plain Fourier transform
            assert report.peripheral == [1]
    size = math.prod(group.abelian_cosets()[0])
    r = group.order // size
    assert [a.shape for a, *_ in solved] == [(size, r, r)] * 2
    assert r == 1 or not _is_abelian(group)


@pytest.mark.parametrize(
    "group",
    [CyclicGroup(36), CyclicGroup(100), ProductGroup([CyclicGroup(10), CyclicGroup(6)])],
    ids=lambda g: g.name,
)
def test_real_characters_give_exactly_real_eigenvalues(group):
    """On a non-symmetric abelian walk the block of a real character
    (k = -k) is real, so its eigenvalue has imaginary part exactly 0; with
    this measure the fft alone leaves a last-bit imaginary part there on
    each of these groups."""
    mu = make_measure(group, [(1, 0.5), (2, 0.3), (group.order - 5, 0.2)])
    eigvals, _ = right_operator(group, mu).eigenvalues()
    orders = group.abelian_cosets()[0]
    ks = np.indices(orders).reshape(len(orders), -1)
    real = (2 * ks % np.array(orders)[:, None] == 0).all(axis=0)
    assert real.sum() > 1 and (eigvals[real].imag == 0.0).all()
    assert (eigvals[~real].imag != 0.0).any()


@pytest.mark.parametrize(
    "group",
    [
        CyclicGroup(6),
        DihedralGroup(4),
        SymmetricGroup(3),
        QuaternionGroup(),
        AlternatingGroup(4),
        ProductGroup([SymmetricGroup(3), CyclicGroup(2)]),
    ],
    ids=lambda g: g.name,
)
def test_block_residuals_are_lifted_eigenvector_residuals(group, monkeypatch):
    """A block eigenpair (lambda, v) of chi_k lifts to the eigenvector
    f(a^kappa g_i) = chi_k(a^kappa) v_i of the right walk (f(x^-1) for the
    left walk); each recorded residual is |P f - lambda f| / |f| of that
    lift, gathered through the stencil."""
    solved = _record_solves(monkeypatch)
    orders, coset, kappa = group.abelian_cosets()
    ks = np.indices(orders).reshape(len(orders), -1)
    r = group.order // ks.shape[1]
    inverse = [group.inv(x) for x in group.elements()]
    a, b = 1, group.order - 1
    measures = [
        make_measure(group, [(a, 0.5), (2, 0.3), (b, 0.2)]),
        uniform(group, sorted({a, group.inv(a), b, group.inv(b)})),
    ]
    for mu in measures:
        for side in ("right", "left"):
            op = ConvolutionOperator(group, mu, side)
            _, residuals = op.eigenvalues()
            _, values, vecs = solved[-1]
            for block, k in enumerate(ks.T):
                phase = np.exp(2j * np.pi * (kappa * k / np.array(orders)).sum(axis=1))
                for m in range(r):
                    f = phase * vecs[block][coset, m]
                    f = f[inverse] if side == "left" else f
                    image = operators._gather(op.stencil(), f)
                    lifted = np.linalg.norm(image - values[block, m] * f) / np.linalg.norm(f)
                    assert abs(residuals[block * r + m] - lifted) <= 1e-15


def test_spectrum_lists_one_first_whatever_its_rounding(dense_eigen):
    g = ProductGroup([CyclicGroup(3), CyclicGroup(6), CyclicGroup(6)])
    mu = make_measure(g, [(8, 1.0)])  # a step of order 6: 1 has multiplicity 18
    for report in (spectrum(right_operator(g, mu)), _lapack_spectrum(dense_eigen, g, mu)):
        assert abs(report.eigenvalues[0].value - 1) < 1e-12
        assert report.eigenvalues[0].multiplicity == 18


NONABELIAN_GROUPS = [
    DihedralGroup(3),
    DihedralGroup(8),
    DihedralGroup(15),
    SymmetricGroup(3),
    SymmetricGroup(4),
    QuaternionGroup(),
    AlternatingGroup(4),
    ProductGroup([SymmetricGroup(3), CyclicGroup(4)]),
    ProductGroup([DihedralGroup(3), ProductGroup([CyclicGroup(2), QuaternionGroup()])]),
]


@st.composite
def finite_walks(draw):
    """(group, measure) on a cyclic group, a product of 2-3 cyclic factors
    (possibly nested, possibly with a Z1 factor) or a non-abelian group
    (dihedral, symmetric, Q8, the A4 table, products with them); exact or
    float weights, symmetric or not, with or without the identity,
    generating or not, or the unit-invariant {a, u*a, 2b} measure on Z_n
    (n = 2^m) whose spectrum has complex double eigenvalues."""
    shape = draw(st.sampled_from(["cyclic", "product", "nested", "unit", "nonabelian"]))
    exact = draw(st.booleans())
    weight = st.integers(1, 9) if exact else st.floats(1.0, 2.0)
    if shape == "unit":
        n = draw(st.sampled_from([8, 16, 32, 64]))
        group = CyclicGroup(n)
        a = 2 * draw(st.integers(0, n // 2 - 1)) + 1
        shared = draw(weight)
        raw = {a: shared, (n // 2 + 1) * a % n: shared, 2 * draw(st.integers(1, n // 2 - 1)): draw(weight)}
    else:
        if shape == "cyclic":
            group = CyclicGroup(draw(st.integers(1, 64)))
        elif shape == "nonabelian":
            group = draw(st.sampled_from(NONABELIAN_GROUPS))
        else:
            size = 3 if shape == "nested" else draw(st.integers(2, 3))
            factors = [CyclicGroup(n) for n in draw(st.lists(st.integers(1, 6), min_size=size, max_size=size))]
            if shape == "nested":
                factors = draw(st.sampled_from([
                    [ProductGroup(factors[:2]), factors[2]],
                    [factors[0], ProductGroup(factors[1:])],
                ]))
            group = ProductGroup(factors)
        support = draw(st.sets(st.integers(0, group.order - 1), min_size=1, max_size=5))
        support.discard(0)
        if draw(st.booleans()) or not support:
            support.add(0)
        symmetric = draw(st.booleans())
        raw = {}
        for h in sorted(support):
            raw[h] = raw.get(h) or draw(weight)
            if symmetric:
                raw[group.inv(h)] = raw[h]
    total = sum(raw.values())
    mu = make_measure(group, [(h, F(w, total) if exact else w / total) for h, w in raw.items()])
    return group, mu


@given(finite_walks(), st.sampled_from(["right", "left"]))
def test_character_spectrum_matches_lapack(dense_eigen, walk, side):
    group, mu = walk
    fast = spectrum(ConvolutionOperator(group, mu, side))
    slow = _lapack_spectrum(dense_eigen, group, mu, side)
    assert [r.multiplicity for r in fast.eigenvalues] == [r.multiplicity for r in slow.eigenvalues]
    for r, s in zip(fast.eigenvalues, slow.eigenvalues):
        assert abs(r.value - s.value) <= 1e-12
    assert len(fast.peripheral) == len(slow.peripheral)
    for z, w in zip(fast.peripheral, slow.peripheral):
        assert abs(z - w) <= 1e-12


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
    """A measure on a smaller ball of the family is refused; on the big
    ball itself the step averages x - 1 and x + 1 back to x."""
    small = LatticeBall(1, 1)
    big = LatticeBall(1, 4)
    mu = uniform(small, [small.index_of_form((1,)), small.index_of_form((-1,))])
    f = GroupFunction(big, [F(big.canonical_form(g)[0]) for g in big.elements()])
    with pytest.raises(ValueError, match=r"measure on Z\^1ball1 does not walk on Z\^1ball4: "):
        apply_truncated(big, mu, f, "right")
    own = uniform(big, [big.index_of_form((1,)), big.index_of_form((-1,))])
    stepped, interior = apply_truncated(big, own, f, "right")
    assert len(interior) == 7  # radius-3 sub-ball
    for g in interior:
        assert stepped.values[g] == f.values[g]


def test_apply_truncated_radius_zero_has_empty_interior():
    """A measure on a bigger ball is refused on the radius-0 ball, whose
    only measure is the point mass at the identity: its step keeps the point."""
    point = FreeBall(2, 0)
    src = FreeBall(2, 1)
    mu = uniform(src, [src.index_of_form(w) for w in ((1,), (-1,), (2,), (-2,))])
    f = GroupFunction(point, [F(1)])
    with pytest.raises(ValueError, match="measure on F2ball1 does not walk on F2ball0: "):
        apply_truncated(point, mu, f, "right")
    stepped, interior = apply_truncated(point, uniform(point, [0]), f, "right")
    assert interior.tolist() == [0]
    assert stepped.values == [F(1)]


def test_ball_sign_records_build_each_side_once(monkeypatch):
    from groupwalk.verify import ball_sign_records

    ball = FreeBall(2, 3)
    mu = uniform(ball, [ball.index_of_form(w) for w in [(1,), (-1,), (2,), (-2,)]])
    f = GroupFunction(ball, [F((-1) ** ball.length(g)) for g in ball.elements()])
    built = []
    init = ConvolutionOperator.__init__

    def counting_init(self, group, measure, side):
        built.append(side)
        init(self, group, measure, side)

    monkeypatch.setattr(ConvolutionOperator, "__init__", counting_init)
    records = ball_sign_records("F2ball3", ball, mu, f)
    assert all(r.passed for r in records)
    assert sorted(built) == ["left", "right"]


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
    home, ref = reference(mu.group), reference(group)
    steps = [(home.forms[h], w) for h, w in sorted(mu.weights.items())]
    exact = mu.exact and all(v is None or isinstance(v, (int, F)) for v in f.values)
    values, interior = [], []
    for g in group.elements():
        g_form = ref.forms[g]
        acc = F(0) if exact else 0.0
        for h_form, w in steps:
            prod = ref.mul_forms(g_form, h_form) if side == "right" else ref.mul_forms(h_form, g_form)
            idx = ref.index_of_form(prod)
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
    radii 0-4, the measure on the ball itself, exact (numerators up to
    2^80) or float values with None holes."""
    family = draw(st.sampled_from(["lattice", "free"]))
    size = draw(st.integers(1, 3 if family == "lattice" else 2))
    ball = _ball(family, size, draw(st.integers(0, 4)))
    steps = [h for h in ball.elements() if ball.length(h) <= 1]
    support = draw(st.lists(st.sampled_from(steps), min_size=1, max_size=len(steps), unique=True))
    weights = draw(st.lists(st.integers(1, 7), min_size=len(support), max_size=len(support)))
    if draw(st.booleans()):
        mu = make_measure(ball, [(h, F(w, sum(weights))) for h, w in zip(support, weights)])
    else:
        mu = make_measure(ball, [(h, w / sum(weights)) for h, w in zip(support, weights)])
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
    assert (stepped.values, interior.tolist()) == truncated_step_oracle(ball, mu, f, side)


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
def test_stencil_apply_matches_dense_matrices(dense_lift, walk, seed, numerators):
    group, mu, side = walk
    n = group.order
    op = ConvolutionOperator(group, mu, side)
    # right: perm[e] = e * h = h; left: perm[e] = h * e = h
    assert [int(perm[group.identity]) for perm in op.stencil().perms] == mu.support()

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
    dense = dense_lift(lift)
    assert np.allclose(dense @ arr.ravel(), lift.apply(arr).ravel(), rtol=0.0, atol=1e-12)


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
        [sum(mu.weights[h] * exact[perm[i]][perm[j]]
             for h, perm in zip(mu.support(), ConvolutionOperator(group, mu, side).stencil().perms))
         for j in range(n)]
        for i in range(n)
    ]
    out = lift.apply(exact)
    assert out == expected
    assert all(isinstance(x, F) for row in out for x in row)


# odd cycles (Z3, Z5, Z7 and the lazy measures) have non-bipartite classes
KERNEL_GROUPS = [
    CyclicGroup(1), CyclicGroup(3), CyclicGroup(5), CyclicGroup(7), CyclicGroup(8),
    *STENCIL_GROUPS, DihedralGroup(5), ProductGroup([CyclicGroup(2), CyclicGroup(2)]),
]


@st.composite
def exact_walks(draw, groups=KERNEL_GROUPS):
    """(group, measure): positive integer weights on 1-4 drawn elements, so
    the measures are often non-symmetric and non-generating; half of them
    carry the identity (lazy walks)."""
    group = draw(st.sampled_from(groups))
    drawn = draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=4))
    support = {g for g in drawn if g != group.identity}
    if draw(st.booleans()) or not support:
        support.add(group.identity)
    support = sorted(support)
    weights = draw(st.lists(st.integers(1, 6), min_size=len(support), max_size=len(support)))
    return group, make_measure(group, [(g, F(w, sum(weights))) for g, w in zip(support, weights)])


def _kernel(stencils, lam):
    """component_kernel's lam basis of one walk, labelled alone."""
    return component_kernel([stencils], "under test")[0].basis(lam, "under test")


@given(exact_walks())
def test_exact_eigenspaces_match_fraction_elimination(walk):
    group, mu = walk
    for side in ("right", "left"):
        op = ConvolutionOperator(group, mu, side)
        for lam in (1, -1):
            assert [f.values for f in eigenspace(op, lam)] == fraction_eigenspace(op, lam)


@given(exact_walks())
def test_float_pm1_eigenspaces_span_the_dense_nullspace(walk):
    """A float measure's +-1 bases are its exact twin's class arrays (the
    labelling never reads the weights), and they span the numerical
    nullspace of the dense P - lam I."""
    group, mu = walk
    nu = mu.as_float()
    for side in ("right", "left"):
        op = ConvolutionOperator(group, nu, side)
        for lam in (1, -1):
            basis = eigenspace(op, lam)
            twin = eigenspace(ConvolutionOperator(group, mu, side), lam)
            assert [f.values for f in basis] == [f.values for f in twin]
            null = float_nullspace(op.as_array() - lam * np.eye(group.order), tol=1e-9)
            assert len(basis) == null.shape[1]
            if basis:
                vecs = np.stack([f.as_array() for f in basis], axis=1)
                assert np.abs(vecs - null @ (null.conj().T @ vecs)).max() <= 1e-9


EIGEN_GROUPS = [*KERNEL_GROUPS, AlternatingGroup(4), SymmetricGroup(4)]


@given(exact_walks(EIGEN_GROUPS), st.data())
def test_block_eigenspace_matches_the_dense_nullspace(walk, data):
    """For lam drawn from the spectrum, with exact and float weights on both
    sides, the block basis has the dimension of the dense nullspace of
    P - lam I at tol 1e-9, its unit vectors lie in it and it is certified
    by apply; lam moved 0.1 off the spectrum (at least 0.05 from every
    eigenvalue) gives [].  A non-symmetric walk may have a defective
    eigenvalue, computed only to about sqrt(eps), where two null-space
    computations agree to that order: those span within 1e-6."""
    group, mu = walk
    for nu, side in itertools.product((mu, mu.as_float()), ("right", "left")):
        op = ConvolutionOperator(group, nu, side)
        eigvals = op.eigenvalues()[0]
        lam = complex(data.draw(st.sampled_from(eigvals.tolist())))
        basis = eigenspace(op, lam)
        null = float_nullspace(op.as_array() - lam * np.eye(group.order), tol=1e-9)
        assert len(basis) == null.shape[1] >= 1
        vecs = np.stack([f.as_array() for f in basis], axis=1)
        vecs /= np.linalg.norm(vecs, axis=0)
        assert np.abs(vecs - null @ (null.conj().T @ vecs)).max() <= (1e-9 if op.symmetric else 1e-6)
        assert _certified_by_apply(op, lam, basis)
        off = lam + 0.1 * cmath.exp(1j * data.draw(st.floats(0, 2 * math.pi)))
        if np.abs(eigvals - off).min() >= 0.05:
            assert eigenspace(op, off) == []


LIFT_GROUPS = [*KERNEL_GROUPS, CyclicGroup(12), DihedralGroup(6)]


@given(exact_walks(LIFT_GROUPS))
def test_lift_kernel_matches_dense_nullspace(dense_lift, walk):
    """The class arrays of the lifted stencils span the nullspace of the
    dense superoperator minus lam: +1 for right o left, +-1 for each side."""
    group, mu = walk
    size = group.order**2
    right, left = (OperatorOnMatrices(group, mu, side) for side in ("right", "left"))
    cases = [([right, left], 1)] + [([lift], lam) for lift in (right, left) for lam in (1, -1)]
    for lifts, lam in cases:
        basis = _kernel([lift.walk for lift in lifts], lam)
        dense = np.linalg.multi_dot([dense_lift(lift) for lift in lifts] + [np.eye(size)])
        null = float_nullspace(dense - lam * np.eye(size), tol=1e-9)
        assert len(basis) == null.shape[1]
        if len(basis):
            vecs = np.stack(basis, axis=1)
            assert set(np.unique(vecs).tolist()) <= {-1, 0, 1}
            # every array lies in the dense nullspace; disjoint supports make them independent
            assert np.abs(vecs - null @ (null.conj().T @ vecs)).max() <= 1e-9
            assert (np.count_nonzero(vecs, axis=1) <= 1).all()


@given(exact_walks(LIFT_GROUPS))
def test_class_certificate_agrees_with_gather_oracle(walk):
    """Every array component_kernel certifies structurally also passes the
    exact per-array check P v = lam v summed by `_gather` (`certified_alone`),
    on each walk, each side's lift and the lift of right o left."""
    group, mu = walk
    walks = [[ConvolutionOperator(group, mu, side).stencil()] for side in ("right", "left")]
    lifts = [OperatorOnMatrices(group, mu, side).walk for side in ("right", "left")]
    walks += [[lift] for lift in lifts] + [lifts]
    for stencils in walks:
        for lam in (1, -1):
            basis = _kernel(stencils, lam)
            if len(basis):
                assert certified_alone(stencils, np.stack(basis, axis=1), lam).all()


def test_class_certificate_rejects_split_and_false_bipartite_labels(monkeypatch):
    """On the odd cycle of Z5: weights summing to 1/2 are refused where the
    walk is built; labelling every node its own class moves a label (+1);
    labelling the double cover as two uniform sheets marks the one class
    bipartite with one colour, and no step flips it (-1)."""
    g = CyclicGroup(5)
    mu = uniform(g, [1, 4])
    stencil = ConvolutionOperator(g, mu, "right").stencil()
    with pytest.raises(ComputationError, match="do not sum to 1"):
        operators._walk(5, stencil.perms[:1], [mu.weights[1]], "on Z5")
    monkeypatch.setattr(operators, "_classes", lambda n, perms: np.arange(n))
    with pytest.raises(ComputationError, match="failed P f = 1 f"):
        component_kernel([[stencil]], "on Z5")
    monkeypatch.setattr(operators, "_classes", lambda n, perms: np.arange(n) // (n // 2) * (n // 2))
    with pytest.raises(ComputationError, match="failed P f = -1 f"):
        component_kernel([[stencil]], "on Z5")


BATCH_GROUPS = [*KERNEL_GROUPS, AlternatingGroup(4)]  # every finite kind


@st.composite
def walk_batches(draw):
    """1-4 walks of one kind on one group, from exact measures with support
    sizes that differ, generating or not: one-stencil right or left walks,
    two-stencil walks left o right, or the lifts of right o left over the
    order^2 entries of an array."""
    group = draw(st.sampled_from(BATCH_GROUPS))
    measures = [draw(exact_walks([group]))[1] for _ in range(draw(st.integers(1, 4)))]
    kind = draw(st.sampled_from(["right", "left", "two-sided", "lift"]))
    if kind == "lift":
        return [[OperatorOnMatrices(group, mu, side).walk for side in ("right", "left")] for mu in measures]
    sides = ["left", "right"] if kind == "two-sided" else [kind]
    return [[ConvolutionOperator(group, mu, side).stencil() for side in sides] for mu in measures]


@given(walk_batches())
def test_walks_labelled_together_match_each_labelled_alone(walks):
    """One labelling of a disjoint union of walks gives every walk the +1
    and -1 bases (and so the class counts) it gets alone."""
    together = component_kernel(walks, "together")
    assert len(together) == len(walks)
    for walk, classes in zip(walks, together):
        alone = component_kernel([walk], "alone")[0]
        for lam in (1, -1):
            assert classes.count(lam) == alone.count(lam)
            assert np.array_equal(classes.basis(lam, "together"), alone.basis(lam, "alone"))


@given(walk_batches(), st.integers(1, 40))
def test_labelling_in_blocks_matches_one_pass(walks, block):
    """With BLOCK_ENTRIES patched down to a few entries, `_classes` joins a
    walk's edges one or a few permutations at a time and component_kernel
    checks its composites a few first terms at a time; the labels equal the
    one-pass labelling's and the certified classes those of one block."""
    whole = component_kernel(walks, "in one block")
    with mock.patch("groupwalk.groups.BLOCK_ENTRIES", block), mock.patch.object(operators, "BLOCK_ENTRIES", block):
        for walk in walks:
            perms = np.concatenate([stencil.perms for stencil in walk])
            assert np.array_equal(operators._classes(walk[0].n, perms), classes_one_pass(walk[0].n, perms))
        blocked = component_kernel(walks, "in blocks")
    for classes, alone in zip(blocked, whole):
        assert np.array_equal(classes.rows, alone.rows) and np.array_equal(classes.sign, alone.sign)


def test_certificate_checks_every_block(monkeypatch):
    """On Z4 with mu on {0, 1}, a labelling with one class per node passes
    for the first term (the identity) and fails for +1; with one first term
    per block, the second block refuses it."""
    g = CyclicGroup(4)
    stencil = ConvolutionOperator(g, uniform(g, [0, 1]), "right").stencil()
    monkeypatch.setattr(operators, "BLOCK_ENTRIES", 4)
    monkeypatch.setattr(operators, "_classes", lambda n, perms: np.arange(n) % (n // 2))
    with pytest.raises(ComputationError, match="failed P f = 1 f"):
        component_kernel([[stencil]], "on Z4")


def test_classes_peak_memory_follows_the_block():
    """`_classes` of 32 perms of 2^15 nodes (8 MiB of edges) joined two
    perms at a time holds a few blocks of edges (the one-pass labelling
    peaks at 52 MB), not several copies of the edge list."""
    rng = np.random.default_rng(5)
    n, perms = 1 << 15, np.array([rng.permutation(1 << 15) for _ in range(32)])
    with mock.patch("groupwalk.groups.BLOCK_ENTRIES", 1 << 16):
        tracemalloc.start()
        try:
            labels = operators._classes(n, perms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert np.array_equal(labels, classes_one_pass(n, perms))
    assert peak < 12 * 8 * (1 << 16), peak


def test_batched_labelling_pads_and_offsets_each_walk():
    """On Z6: the bipartite walk on {1, 5} (one class, one -1 array) after
    a walk with three terms, so its stencil is padded; the lazy walk on
    {0, 3} keeps its three classes and no -1 array.  A weight sum short of
    1 (one term of the walk on {1, 5}) is refused where the walk is built."""
    g = CyclicGroup(6)
    walks = [[ConvolutionOperator(g, uniform(g, support), "right").stencil()]
             for support in ([0, 2, 4], [1, 5], [0, 3])]
    counts = [(c.count(1), c.count(-1)) for c in component_kernel(walks, "on Z6")]
    assert counts == [(2, 0), (1, 1), (3, 0)]
    assert component_kernel([], "on Z6") == []
    with pytest.raises(ComputationError, match="do not sum to 1"):
        operators._walk(6, walks[1][0].perms[:1], [F(1, 2)], "on Z6")
    with pytest.raises(ValueError, match="one number of stencils"):
        component_kernel([walks[0], walks[1] * 2], "on Z6")


@st.composite
def spectra_batches(draw):
    """(group, measures, sides): a finite_walks measure and 1-3 more float
    measures on its group, symmetric or not, each on a drawn side."""
    group, first = draw(finite_walks())
    measures = [first]
    for _ in range(draw(st.integers(1, 3))):
        symmetric, raw = draw(st.booleans()), {}
        for h in sorted(draw(st.sets(st.integers(0, group.order - 1), min_size=1, max_size=5))):
            raw[h] = raw.get(h) or draw(st.floats(1.0, 2.0))
            if symmetric:
                raw[group.inv(h)] = raw[h]
        total = sum(raw.values())
        measures.append(make_measure(group, [(h, w / total) for h, w in raw.items()]))
    sides = draw(st.lists(st.sampled_from(["right", "left"]), min_size=len(measures),
                          max_size=len(measures)))
    return group, measures, sides


@given(spectra_batches())
def test_spectra_solved_together_match_each_solved_alone(batch):
    """One table, fftn and eigh/eig for several operators gives every
    operator bit for bit the eigenvalues and residuals it gets alone."""
    group, measures, sides = batch
    ops = [ConvolutionOperator(group, mu, side) for mu, side in zip(measures, sides)]
    solve_spectra(ops)
    for op, mu, side in zip(ops, measures, sides):
        eigvals, residuals = ConvolutionOperator(group, mu, side).eigenvalues()
        assert op.eigenvalues()[0].tobytes() == eigvals.tobytes()
        assert op.eigenvalues()[1] == residuals


def test_solve_spectra_refuses_operators_on_two_groups():
    """Every block is built on the first operator's group, so operators on
    two group objects (Z6 and S3, or two Z6) are refused before anything
    is solved; S3 alone gets its dense spectrum, +-1, +-1/2 twice."""
    z6, s3 = CyclicGroup(6), SymmetricGroup(3)
    ops = [right_operator(z6, uniform(z6, [1, 5])), right_operator(s3, uniform(s3, [1, 2]))]
    with pytest.raises(ValueError, match="one group object, got Z6, S3"):
        solve_spectra(ops)
    z6_twin = CyclicGroup(6)
    twin = ConvolutionOperator(z6_twin, uniform(z6_twin, [1, 5]), "right")
    with pytest.raises(ValueError, match="one group object, got Z6, Z6"):
        solve_spectra([ops[0], twin])
    assert all(op._eigen is None for op in (*ops, twin))
    dense = np.sort(np.linalg.eigvals(ops[1].as_array()).real)
    assert np.allclose(dense, [-1, -0.5, -0.5, 0.5, 0.5, 1])
    assert np.allclose(np.sort(ops[1].eigenvalues()[0].real), dense)


def test_label_walks_refuses_operators_on_two_groups():
    """Every walk is labelled over the first operator's group order, so
    operators on two group objects are refused before any stencil is built
    or walk labelled."""
    z4, z6 = CyclicGroup(4), CyclicGroup(6)
    ops = [right_operator(z4, uniform(z4, [1, 3])), right_operator(z6, uniform(z6, [2, 4]))]
    with pytest.raises(ValueError, match="label_walks needs one group object, got Z4, Z6"):
        label_walks(ops)
    assert all(op._stencil is None and op._walk is None for op in ops)


@pytest.mark.parametrize(
    "batch, out", [(operators.spectra, []), (solve_spectra, None), (label_walks, None)],
    ids=["spectra", "solve_spectra", "label_walks"],
)
def test_batch_entry_points_accept_no_operators(batch, out):
    """An empty batch is no work: spectra gives no reports, and the other
    two have nothing to solve or label."""
    assert batch([]) == out


@pytest.mark.parametrize("order", [4096, 12000])
def test_uniform_walk_spectrum_in_small_memory(order):
    """P f is the mean of f: 1 once and 0 n - 1 times, from n 1 x 1 blocks
    of one fftn of the weights, so n steps need no n x n table of character
    phases (640 MiB on Z4096, over the budget on Z12000)."""
    g = CyclicGroup(order)
    op = right_operator(g, uniform(g, list(g.elements())))
    tracemalloc.start()
    try:
        report = spectrum(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [one, zero] = report.eigenvalues
    assert abs(one.value - 1) <= 1e-12 and one.multiplicity == 1
    assert abs(zero.value) <= 1e-12 and zero.multiplicity == order - 1
    assert peak < 16 * 2**20


def test_lift_kernel_on_d128_has_one_array_per_class():
    """On D128 (order 256, 65536 entries), nu = mu * mu with mu uniform on
    {r, r^-1, s}: one fixed array of right o left per connected class of
    the lifted stencils, labelled here by scipy's connected components."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    group = DihedralGroup(128)
    mu = uniform(group, [1, 127, 128])
    nu = convolve(mu, mu)
    sides = [OperatorOnMatrices(group, nu, side).walk for side in ("right", "left")]
    size = group.order**2
    basis = _kernel(sides, 1)
    nodes = np.arange(size)
    targets = np.concatenate([perm for walk in sides for perm in walk.perms])
    graph = coo_matrix(
        (np.ones(len(targets)), (np.tile(nodes, len(targets) // size), targets)),
        shape=(size, size),
    )
    count, labels = connected_components(graph, directed=False)
    assert len(basis) == count
    vecs = np.stack(basis)
    assert (vecs.sum(axis=0) == 1).all() and set(np.unique(vecs).tolist()) == {0, 1}
    # each array is the indicator of one scipy class
    firsts = vecs.argmax(axis=1)
    assert np.array_equal(vecs, (labels[None, :] == labels[firsts][:, None]).astype(vecs.dtype))


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


def test_superoperator_refused_over_budget(monkeypatch):
    group = SymmetricGroup(4)  # order 24: one lifted term of 24 * 24 entries
    mu = uniform(group, [1])
    monkeypatch.setattr(operators, "DENSE_BYTES_BUDGET", 8 * 24 * 24 - 1)
    with pytest.raises(ConstructionError, match="lifted right stencil on S4.*DENSE_BYTES_BUDGET"):
        OperatorOnMatrices(group, mu, "right")
    monkeypatch.setattr(operators, "DENSE_BYTES_BUDGET", 8 * 24 * 24)
    assert len(OperatorOnMatrices(group, mu, "right").walk.perms) == 1
    # right o left has 2 * 2 composite permutations of the 36 entries of a D3 array
    d3 = DihedralGroup(3)
    monkeypatch.setattr(operators, "DENSE_BYTES_BUDGET", 8 * 4 * 36 - 1)
    sides = [OperatorOnMatrices(d3, uniform(d3, [1, 3]), side).walk for side in ("right", "left")]
    with pytest.raises(ConstructionError, match="composite stencil of the lift.*DENSE_BYTES_BUDGET"):
        component_kernel([sides], "of the lift on D3")
    monkeypatch.setattr(operators, "DENSE_BYTES_BUDGET", 8 * 4 * 36)
    assert component_kernel([sides], "of the lift on D3")[0].count(1) == 3


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


# ---------------------------------------------------------------- records


def per_cluster_records(op):
    """The records spectrum built one cluster at a time: the members'
    complex sum from 0 over the size, the largest member residual, and a
    sort by _sort_key."""
    eigvals, residuals = op.eigenvalues()
    members, labels = operators._clusters(eigvals)
    records = []
    for k in range(labels.max() + 1):
        values = [complex(eigvals[i]) for i in members[labels == k]]
        worst = max(residuals[i] for i in members[labels == k])
        records.append((sum(values) / len(values), len(values), worst))
    records.sort(key=lambda r: operators._sort_key(r[0]))
    return [(repr(z.real), repr(z.imag), m, repr(res)) for z, m, res in records]


@given(st.one_of(walks(), finite_walks().map(lambda gm: (*gm, "right"))))
def test_spectrum_records_match_per_cluster_loop(walk):
    group, mu, side = walk
    op = ConvolutionOperator(group, mu, side)
    report = spectrum(op, tol=1e-6)
    got = [(repr(r.value.real), repr(r.value.imag), r.multiplicity, repr(r.residual))
           for r in report.eigenvalues]
    assert got == per_cluster_records(op)


def sweep_clusters(values):
    """_clusters without collapsing equal values first: the offset sweep
    over every real-sorted value, the oracle for the collapsed sweep."""
    order = np.lexsort((values.imag, values.real))
    z = values[order]
    n = len(z)
    parent = np.arange(n)
    for d in range(1, n):
        if not (z.real[d:] - z.real[:-d] <= operators.CLUSTER_TOL).any():
            break
        lo = np.flatnonzero(np.abs(z[d:] - z[:-d]) <= operators.CLUSTER_TOL)
        operators._union(parent, lo, lo + d)
    _, labels = np.unique(operators._roots(parent, np.arange(n)), return_inverse=True)
    grouped = np.argsort(labels, kind="stable")
    return order[grouped], labels[grouped]


# offsets below, at and above CLUSTER_TOL = 1e-7, so chains of near-equal
# values join or split
NEAR = st.sampled_from([0.0, 3e-8, 6e-8, 9e-8, 1e-7, 1.1e-7, 2e-7])


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), NEAR, NEAR, st.integers(1, 6)),
                min_size=1, max_size=12), st.data())
def test_clusters_match_the_sweep_over_every_value(points, data):
    values = []
    for re, im, dre, dim, copies in points:
        values += [complex(re / 4 + dre, im / 4 + dim)] * copies
    values = np.array(data.draw(st.permutations(values)), dtype=complex)
    members, labels = operators._clusters(values)
    expected = sweep_clusters(values)
    assert members.tolist() == expected[0].tolist() and labels.tolist() == expected[1].tolist()


@given(st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=30), st.integers(0, 2**32 - 1))
def test_sort_order_matches_sort_key_next_to_rounding_halves(ticks, seed):
    """Moduli and angles a hair from k + 1/2 in the ninth decimal, where a
    one-ulp difference in numpy's abs or arctan2 would move the key."""
    rng = random.Random(seed)
    values = []
    for k in ticks:
        half = (abs(k) + 0.5) / 1e9
        values.append(complex(half if k % 2 else -half, 0.0))
        values.append(cmath.rect(rng.choice([1.0, half, 0.5]), half * 6))
        values.append(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    values += values[: len(values) // 2]  # equal keys keep their order
    expected = sorted(range(len(values)), key=lambda i: operators._sort_key(values[i]))
    assert operators._sort_order(np.array(values)).tolist() == expected
