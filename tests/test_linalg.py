import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupwalk.linalg import (
    _PADE,
    expm,
    float_nullspace,
    operator_norm,
    rational_matmul,
    rational_nullspace,
    rational_rref,
    rational_solve,
)

from gf2_reference import GF2System
from linalg_reference import normalize_leading

F = Fraction


def test_rref_identity_passthrough():
    m = [[F(1), F(0)], [F(0), F(1)]]
    rref, pivots = rational_rref(m)
    assert rref == m
    assert pivots == [0, 1]


def test_rref_known_2x3():
    # [[1,2,3],[4,5,6]] row-reduces to [[1,0,-1],[0,1,2]] (by hand)
    m = [[F(1), F(2), F(3)], [F(4), F(5), F(6)]]
    rref, pivots = rational_rref(m)
    assert pivots == [0, 1]
    assert rref == [[F(1), F(0), F(-1)], [F(0), F(1), F(2)]]


def test_nullspace_of_rank_one():
    # kernel of [[1,2,3]] is spanned by (-2,1,0) and (-3,0,1)
    vecs = rational_nullspace([[F(1), F(2), F(3)]])
    assert len(vecs) == 2
    for v in vecs:
        assert sum(a * b for a, b in zip([F(1), F(2), F(3)], v)) == 0
    assert vecs[0][1] == 1 and vecs[0][2] == 0
    assert vecs[1][2] == 1 and vecs[1][1] == 0


def test_nullspace_full_rank_is_empty():
    assert rational_nullspace([[F(2), F(1)], [F(1), F(1)]]) == []


def test_nullspace_random_matrices_annihilate():
    import random

    rng = random.Random(5)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[F(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]
        vecs = rational_nullspace(m)
        for v in vecs:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0
        # rank-nullity: nullity == cols - pivot count
        _, pivots = rational_rref(m)
        assert len(vecs) == cols - len(pivots)


rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def low_rank_matrices(draw):
    """Products A B of rational rows x k and k x cols factors, so the rank is
    at most k; repeated columns add structured dependencies."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(0, min(rows, cols)))
    a = [[draw(rationals) for _ in range(k)] for _ in range(rows)]
    b = [[draw(rationals) for _ in range(cols)] for _ in range(k)]
    m = [[sum((a[i][t] * b[t][j] for t in range(k)), F(0)) for j in range(cols)] for i in range(rows)]
    if draw(st.booleans()):
        src = draw(st.integers(0, cols - 1))
        m = [row + [row[src]] for row in m]
    return m


@given(low_rank_matrices())
def test_nullspace_satisfies_rank_nullity_and_rows(m):
    ncols = len(m[0])
    _, pivots = rational_rref(m)
    vecs = rational_nullspace(m)
    assert len(vecs) == ncols - len(pivots)
    free = [c for c in range(ncols) if c not in pivots]
    for vec, col in zip(vecs, free):
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in m)
        # canonical: 1 at its own free column, 0 at the others
        assert [vec[c] for c in free] == [F(c == col) for c in free]


def test_modular_nullspace_full_rank_is_empty():
    rng = random.Random(2)
    m = [[F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(6)] for _ in range(6)]
    assert len(rational_rref(m)[1]) == 6
    assert rational_nullspace(m) == []
    assert rational_nullspace([[F(5)]]) == []
    assert rational_nullspace([[F(0)]]) == [[F(1)]]


def test_solve_unique():
    m = [[F(2), F(1)], [F(1), F(3)]]
    rhs = [F(5), F(10)]
    x = rational_solve(m, rhs)
    assert x == [F(1), F(3)]


def test_solve_inconsistent_returns_none():
    m = [[F(1), F(1)], [F(1), F(1)]]
    assert rational_solve(m, [F(1), F(2)]) is None


def test_solve_underdetermined_sets_free_to_zero():
    x = rational_solve([[F(1), F(2)]], [F(4)])
    assert x == [F(4), F(0)]


def test_matmul_small():
    a = [[F(1), F(2)], [F(3), F(4)]]
    b = [[F(0), F(1)], [F(1), F(0)]]
    assert rational_matmul(a, b) == [[F(2), F(1)], [F(4), F(3)]]


def test_normalize_leading():
    assert normalize_leading([F(0), F(3), F(6)]) == [F(0), F(1), F(2)]
    assert normalize_leading([0.0, 2.0, 4.0], cutoff=1e-9) == [0.0, 1.0, 2.0]


def test_gf2_single_equation():
    sys = GF2System()
    sys.add(0b011, 1)  # x0 + x1 = 1
    assert not sys.contradiction
    sol = sys.lex_min_solution(2)
    assert sol == [0, 1]  # x0 stays 0, x1 picks up the parity


def test_gf2_contradiction():
    sys = GF2System()
    sys.add(0b01, 0)
    sys.add(0b01, 1)
    assert sys.contradiction


def test_gf2_consistency_probe_does_not_mutate():
    sys = GF2System()
    sys.add(0b11, 0)
    before = dict(sys.rows)
    assert sys.consistent_with(0b01, 1)
    assert sys.rows == before


def test_gf2_lex_min_matches_bruteforce():
    import random
    from itertools import product

    rng = random.Random(11)
    for _ in range(30):
        nvars = rng.randint(1, 6)
        eqs = []
        sys = GF2System()
        for _ in range(rng.randint(0, 6)):
            mask = rng.randint(0, (1 << nvars) - 1)
            rhs = rng.randint(0, 1)
            eqs.append((mask, rhs))
            sys.add(mask, rhs)
        # brute force reference over all assignments, lexicographic order
        best = None
        for bits in product((0, 1), repeat=nvars):
            ok = all(
                sum(bits[i] for i in range(nvars) if mask >> i & 1) % 2 == rhs
                for mask, rhs in eqs
            )
            if ok:
                best = list(bits)
                break
        if best is None:
            assert sys.contradiction
        else:
            assert not sys.contradiction
            assert sys.lex_min_solution(nvars) == best


def test_operator_norm_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.standard_normal((5, 5))
        assert operator_norm(m) == pytest.approx(np.linalg.norm(m, 2))


def test_float_nullspace_plane():
    m = np.array([[1.0, 1.0, 0.0]])
    basis = float_nullspace(m)
    assert basis.shape == (3, 2)
    assert np.allclose(m @ basis, 0.0, atol=1e-12)
    # columns orthonormal (they come from an SVD)
    assert np.allclose(basis.T @ basis, np.eye(2), atol=1e-12)


# ---------------------------------------------------------------- expm

def mp_expm(a):
    """exp(a) by mpmath at 40 digits, rounded to floats: the oracle."""
    import mpmath

    with mpmath.workdps(40):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)


def assert_close_to_exp(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(want).max(initial=0.0))


@st.composite
def scaled_contractions(draw):
    """-n (I - T) for a contraction T of dimension 1..12 and n in 1, 10,
    100, 500: the exponent of the exp-bound check.  Its 1-norm runs from
    near 0 to about 10^4, so every Padé degree and the squaring branch run."""
    dim = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.standard_normal((dim, dim))
    t = raw * (draw(st.floats(0.0, 1.0)) / np.linalg.norm(raw, 2))
    if draw(st.booleans()):  # T near I puts n (I - T) under the low-degree thresholds
        t = np.eye(dim) - t * draw(st.sampled_from([1e-3, 1e-2, 1e-1]))
    return -draw(st.sampled_from([1, 10, 100, 500])) * (np.eye(dim) - t)


@settings(max_examples=60)
@given(scaled_contractions())
def test_expm_matches_mpmath_and_scipy(a):
    from scipy.linalg import expm as scipy_expm

    got = expm(a)
    assert_close_to_exp(got, mp_expm(a))
    assert_close_to_exp(got, scipy_expm(a))


@pytest.mark.parametrize(
    "norm",
    [0.99 * _PADE[m][0] for m in sorted(_PADE)] + [8 * _PADE[13][0], 1000 * _PADE[13][0]],
    ids=[f"degree-{m}" for m in sorted(_PADE)] + ["3-squarings", "10-squarings"],
)
def test_expm_runs_each_degree_and_squaring(norm):
    """A 5 x 5 matrix of 1-norm just under theta_m takes degree m; past
    theta_13 it is halved for degree 13 and the result squared.  Shifted
    by its spectral norm, the matrix has no eigenvalue in the right half
    plane, so exp stays in range at every scale."""
    s = np.random.default_rng(5).standard_normal((5, 5))
    a = s - np.linalg.norm(s, 2) * np.eye(5)
    a *= norm / np.abs(a).sum(axis=0).max()
    assert_close_to_exp(expm(a), mp_expm(a))


@pytest.mark.parametrize(
    "a, want",
    [
        (np.zeros((3, 3)), np.eye(3)),
        (np.eye(4), np.e * np.eye(4)),
        (np.diag([1.0, -2.0, 30.0]), np.diag(np.exp([1.0, -2.0, 30.0]))),
        # the nilpotent Jordan block N: exp(N) = I + N + N^2/2 + N^3/6
        (np.eye(4, k=1), np.array([[1, 1, 1 / 2, 1 / 6], [0, 1, 1, 1 / 2], [0, 0, 1, 1], [0, 0, 0, 1]])),
        (np.zeros((0, 0)), np.zeros((0, 0))),
    ],
    ids=["zero", "identity", "diagonal", "jordan", "empty"],
)
def test_expm_known_values(a, want):
    assert_close_to_exp(expm(a), want)


def test_expm_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="finite"):
        expm(np.array([[0.0, np.nan], [0.0, 0.0]]))
