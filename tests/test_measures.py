import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupwalk.groups import (
    AlternatingGroup,
    CyclicGroup,
    DihedralGroup,
    FreeBall,
    LatticeBall,
    ProductGroup,
    QuaternionGroup,
    SymmetricGroup,
    closure,
)
from groupwalk import operators
from groupwalk.harmonic import (
    anti_harmonic_space,
    decompose,
    harmonic_space,
    jointly_biharmonic_space,
)
from groupwalk.measures import (
    MeasureError,
    convolve,
    delta,
    is_generating,
    is_symmetric,
    make_measure,
    measure_from_json,
    measure_to_json,
    min_return,
    power,
    tv_distance,
    uniform,
)

F = Fraction


def brute_convolve(group, mu, nu):
    """Reference double sum: (mu*nu)(g) = sum over h of mu(h) nu(h^-1 g)."""
    out = {}
    for g in group.elements():
        total = F(0)
        for h, wh in mu.weights.items():
            total += wh * nu.weights.get(group.mul(group.inv(h), g), F(0))
        if total:
            out[g] = total
    return out


# ---------------------------------------------------------------- construction

def test_make_measure_exact():
    g = CyclicGroup(4)
    mu = make_measure(g, [(1, F(1, 2)), (3, F(1, 2))])
    assert mu.exact
    assert mu.support() == [1, 3]
    assert mu.weight(1) == F(1, 2)
    assert mu.weight(0) == 0


def test_make_measure_float():
    g = CyclicGroup(3)
    mu = make_measure(g, [(0, 0.25), (1, 0.75)])
    assert not mu.exact
    assert mu.weight(1) == 0.75


def test_make_measure_rejects_bad_sum():
    g = CyclicGroup(4)
    with pytest.raises(MeasureError):
        make_measure(g, [(1, F(3, 4)), (3, F(1, 2))])
    with pytest.raises(MeasureError):
        make_measure(g, [(1, 0.5), (3, 0.5000001)])


def test_make_measure_rejects_mixed_kinds():
    g = CyclicGroup(4)
    with pytest.raises(MeasureError):
        make_measure(g, [(1, F(1, 2)), (3, 0.5)])


def test_make_measure_rejects_nonpositive_and_duplicates():
    g = CyclicGroup(4)
    with pytest.raises(MeasureError):
        make_measure(g, [(1, F(0)), (3, F(1))])
    with pytest.raises(MeasureError):
        make_measure(g, [(1, F(1, 2)), (1, F(1, 2))])
    with pytest.raises(MeasureError):
        make_measure(g, [(9, F(1))])


def test_a_bool_is_no_element_and_no_power():
    """True is an int to Python, but not element 1 and not the power 1: the
    measure would write it back as "True", which no parser reads."""
    g = CyclicGroup(4)
    for build in (lambda: make_measure(g, [(True, F(1))]), lambda: uniform(g, [True, 3]), lambda: delta(g, True)):
        with pytest.raises(MeasureError, match="^support element True is not a valid index for Z4$"):
            build()
    with pytest.raises(MeasureError, match="power needs an integer n >= 1, got True"):
        power(uniform(g, [1, 3]), True)


def test_make_measure_rejects_non_finite_float_weights():
    g = CyclicGroup(2)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(MeasureError, match="not finite"):
            make_measure(g, [(0, bad), (1, 0.5)])
    with pytest.raises(MeasureError, match="not finite"):
        measure_from_json(g, [{"g": "0", "w": float("nan")}])


def test_delta_and_uniform():
    g = CyclicGroup(5)
    assert delta(g, 2).weights == {2: F(1)}
    u = uniform(g, [1, 4])
    assert u.weights == {1: F(1, 2), 4: F(1, 2)}


# ---------------------------------------------------------------- convolution

def test_convolution_matches_double_sum():
    g = DihedralGroup(4)
    rng = random.Random(7)
    for _ in range(10):
        support_a = rng.sample(range(8), 3)
        support_b = rng.sample(range(8), 2)
        mu = uniform(g, support_a)
        nu = uniform(g, support_b)
        assert convolve(mu, nu).weights == brute_convolve(g, mu, nu)
        # weights over unlike denominators, summed on integer numerators
        nums = [rng.randint(1, 50) for _ in support_a]
        mu = make_measure(g, [(h, F(k, sum(nums))) for h, k in zip(support_a, nums)])
        nu = make_measure(g, [(support_b[0], F(1, 7)), (support_b[1], F(6, 7))])
        assert convolve(mu, nu).weights == brute_convolve(g, mu, nu)


def test_convolution_z4_squares_to_even_support():
    g = CyclicGroup(4)
    mu = uniform(g, [1, 3])
    sq = convolve(mu, mu)
    assert sq.weights == {0: F(1, 2), 2: F(1, 2)}


def test_convolution_is_associative():
    g = SymmetricGroup(3)
    mu = uniform(g, [1, 2])
    nu = uniform(g, [3, 4])
    rho = delta(g, 5)
    assert convolve(convolve(mu, nu), rho).weights == convolve(mu, convolve(nu, rho)).weights


def test_convolution_delta_identity_is_neutral():
    g = DihedralGroup(3)
    mu = uniform(g, [1, 3, 4])
    e = delta(g, 0)
    assert convolve(mu, e).weights == mu.weights
    assert convolve(e, mu).weights == mu.weights


def test_power_is_iterated_convolution():
    g = CyclicGroup(6)
    mu = uniform(g, [1, 2])
    assert power(mu, 1).weights == mu.weights
    assert power(mu, 3).weights == convolve(convolve(mu, mu), mu).weights
    with pytest.raises(MeasureError):
        power(mu, 0)


def test_convolution_on_ball_exits():
    ball = LatticeBall(1, 2)
    step = uniform(ball, [ball.index_of_form((1,)), ball.index_of_form((-1,))])
    two = convolve(step, step)  # reaches +-2, still inside
    assert two.weight(ball.index_of_form((2,))) == F(1, 4)
    with pytest.raises(MeasureError):
        convolve(two, step)  # would need +-3


def test_truncated_measure_support_length_cap():
    ball = FreeBall(2, 3)
    deep = ball.index_of_form((1, 2))  # length 2
    with pytest.raises(MeasureError):
        make_measure(ball, [(deep, F(1))])


# ---------------------------------------------------------------- tv distance

def test_tv_distance_examples():
    g = CyclicGroup(4)
    a = delta(g, 0)
    b = delta(g, 1)
    assert tv_distance(a, b) == F(1)
    assert tv_distance(a, a) == 0
    c = uniform(g, [0, 1])
    assert tv_distance(a, c) == F(1, 2)


def test_tv_distance_triangle_inequality():
    g = CyclicGroup(5)
    rng = random.Random(3)
    for _ in range(20):
        triples = []
        for _ in range(3):
            weights = [rng.randint(1, 5) for _ in range(5)]
            total = sum(weights)
            triples.append(make_measure(g, [(i, F(w, total)) for i, w in enumerate(weights)]))
        a, b, c = triples
        assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c)
        assert tv_distance(a, b) == tv_distance(b, a)


# ---------------------------------------------------------------- predicates

def test_is_symmetric():
    g = CyclicGroup(5)
    assert is_symmetric(uniform(g, [1, 4]))
    assert not is_symmetric(uniform(g, [1, 2]))
    d = DihedralGroup(4)
    assert is_symmetric(uniform(d, [4]))  # reflections are involutions
    asym = make_measure(g, [(1, F(1, 3)), (4, F(2, 3))])
    assert not is_symmetric(asym)


def test_is_generating_runs_the_closure_once_per_measure(monkeypatch):
    """One class labelling per walk: the two-sided walk's for the
    bi-harmonic basis, the right walk's for is_generating, decompose and
    both exact eigenspaces, and one more for another measure."""
    calls = []
    classes = operators._classes

    def counted(n, perms):
        calls.append(n)
        return classes(n, perms)

    monkeypatch.setattr(operators, "_classes", counted)
    g = DihedralGroup(6)
    mu = uniform(g, [1, 5, 6])  # r, r^-1, s
    basis = jointly_biharmonic_space(g, mu)
    for f in basis:
        decompose(f, mu)
    assert len(basis) >= 2 and is_generating(mu)
    assert len(harmonic_space(g, mu)) == len(anti_harmonic_space(g, mu)) == 1
    assert calls == [2 * g.order, 2 * g.order]
    assert not is_generating(uniform(g, [2, 4])) and len(calls) == 3


@given(st.data())
def test_is_symmetric_memo_matches_a_fresh_evaluation(data):
    """The answer kept on mu is the one a direct comparison of mu(g) and
    mu(g^-1) gives, exact or float, and a second call returns it."""
    group = data.draw(st.sampled_from(
        [CyclicGroup(6), DihedralGroup(4), SymmetricGroup(3), QuaternionGroup(), AlternatingGroup(4)]
    ))
    exact, symmetric, raw = data.draw(st.booleans()), data.draw(st.booleans()), {}
    for h in sorted(data.draw(st.sets(st.integers(0, group.order - 1), min_size=1, max_size=5))):
        raw[h] = raw.get(h) or data.draw(st.integers(1, 5))
        if symmetric:
            raw[group.inv(h)] = raw[h]
    total = sum(raw.values())
    mu = make_measure(group, [(h, F(w, total) if exact else w / total) for h, w in raw.items()])
    fresh = all(mu.weight(group.inv(g)) == w for g, w in mu.weights.items())
    assert mu._symmetric is None
    assert is_symmetric(mu) == fresh and mu._symmetric == fresh  # computed, then kept
    mu._symmetric = not fresh
    assert is_symmetric(mu) == (not fresh)  # read back from mu, not recomputed


def test_is_generating():
    g = CyclicGroup(6)
    assert is_generating(uniform(g, [1]))
    assert not is_generating(uniform(g, [2]))
    assert not is_generating(uniform(g, [2, 4]))
    assert is_generating(uniform(g, [2, 3]))


GENERATION_GROUPS = [
    CyclicGroup(1),
    CyclicGroup(12),
    DihedralGroup(6),
    *[SymmetricGroup(n) for n in range(1, 6)],
    QuaternionGroup(),
    AlternatingGroup(4),
    ProductGroup([CyclicGroup(2), ProductGroup([CyclicGroup(2), CyclicGroup(3)])]),
    ProductGroup([DihedralGroup(3), ProductGroup([CyclicGroup(2), QuaternionGroup()])]),
]


@given(st.data())
def test_is_generating_matches_the_closure(data):
    """Generation read from class labels against the closure BFS, on every
    finite kind; supports drawn inside a cyclic subgroup mostly do not
    generate."""
    group = data.draw(st.sampled_from(GENERATION_GROUPS), label="group")
    pool = range(group.order)
    if data.draw(st.booleans()):
        pool = closure(group, [data.draw(st.integers(0, group.order - 1))])
    support = data.draw(st.sets(st.sampled_from(pool), min_size=1, max_size=4), label="support")
    assert is_generating(uniform(group, support)) == (len(closure(group, support)) == group.order)


def test_min_return_oracle():
    z5 = CyclicGroup(5)
    assert min_return(delta(z5, 1)) == 5
    z4 = CyclicGroup(4)
    assert min_return(uniform(z4, [1, 3])) == 2
    assert min_return(uniform(z4, [0, 1])) == 1
    z6 = CyclicGroup(6)
    assert min_return(uniform(z6, [1, 2])) == 3  # 1+1+... first hit: 2+2+2
    z60000 = CyclicGroup(60000)
    assert min_return(delta(z60000, 1)) == 60000


# ---------------------------------------------------------------- json

def test_measure_json_round_trip():
    g = CyclicGroup(4)
    entries = [{"g": "1", "w": "1/3"}, {"g": "3", "w": "2/3"}]
    mu = measure_from_json(g, entries)
    assert mu.exact
    assert mu.weights == {1: F(1, 3), 3: F(2, 3)}
    assert measure_from_json(g, measure_to_json(mu)).weights == mu.weights


def test_measure_json_float_weights():
    g = CyclicGroup(2)
    mu = measure_from_json(g, [{"g": "0", "w": 0.5}, {"g": "1", "w": 0.5}])
    assert not mu.exact


def test_measure_json_ball_elements():
    ball = LatticeBall(1, 3)
    mu = measure_from_json(
        ball, [{"g": "[1]", "w": "1/2"}, {"g": "[-1]", "w": "1/2"}]
    )
    assert mu.support() == sorted(
        [ball.index_of_form((1,)), ball.index_of_form((-1,))]
    )


def test_measure_json_rejects_malformed():
    g = CyclicGroup(4)
    with pytest.raises((MeasureError, ValueError)):
        measure_from_json(g, [{"g": "1"}])
    with pytest.raises((MeasureError, ValueError)):
        measure_from_json(g, [{"g": "7", "w": "1"}])
    with pytest.raises((MeasureError, ValueError)):
        measure_from_json(g, [{"g": "1", "w": "one half"}])
