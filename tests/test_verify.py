import itertools
import json
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupwalk import harmonic, operators, verify
from groupwalk.groups import (
    AlternatingGroup,
    ConstructionError,
    CyclicGroup,
    DihedralGroup,
    FiniteGroup,
    LatticeBall,
    ProductGroup,
    QuaternionGroup,
    SymmetricGroup,
    closure,
)
from groupwalk.harmonic import (
    anti_harmonic_space,
    jointly_biharmonic_space,
    two_sided_classes,
)
from groupwalk.measures import (
    convolve,
    delta,
    is_generating,
    is_symmetric,
    make_measure,
    tv_distance,
    uniform,
)
from groupwalk.operators import GroupFunction, apply, left_operator, right_operator
from groupwalk.verify import (
    CheckRecord,
    CorpusSpec,
    VerificationReport,
    corpus_fixtures,
    examples_suite,
    exp_bound_check,
    fixture_theorem_checks,
    foguel_decay,
    nonsymmetric_fixtures,
    random_symmetric_generating_measure,
    revuz_check,
    root_of_unity_check,
    run_theorem_suite,
    stirling_suite,
    stirling_trend,
    verify_suite,
)

from walk_reference import decompose_splits, theorem_records_by_fixture

F = Fraction

TINY_CORPUS = CorpusSpec(groups=[CyclicGroup(4), CyclicGroup(5)], measures_per_group=3)


def _corpus_suite(name, corpus=TINY_CORPUS):
    """One corpus suite's report, from the pass that `verify all` runs."""
    return verify._corpus_suites((name,), corpus)[name]


# ---------------------------------------------------------------- foguel

def test_foguel_lazy_walk_decays():
    g = CyclicGroup(6)
    mu = make_measure(g, [(0, F(1, 2)), (1, F(1, 4)), (5, F(1, 4))])
    result = foguel_decay(g, mu)
    assert result.identity_in_support
    assert result.first_below is not None
    assert result.distances[-1] <= 1e-6
    assert all(0 <= d <= 1 for d in result.distances)


def test_foguel_bipartite_stays_at_one():
    g = CyclicGroup(4)
    result = foguel_decay(g, uniform(g, [1, 3]))
    assert not result.identity_in_support
    assert result.first_below is None
    assert all(d == 1.0 for d in result.distances)


def test_foguel_matches_exact_convolution_oracle():
    g = CyclicGroup(3)
    mu = make_measure(g, [(0, F(1, 2)), (1, F(1, 4)), (2, F(1, 4))])
    result = foguel_decay(g, mu, n_max=6)
    power = mu
    for n in range(1, 7):
        nxt = convolve(power, mu)
        exact = tv_distance(power, nxt)
        assert result.distances[n - 1] == pytest.approx(float(exact), abs=1e-12)
        power = nxt


def _step_loop(group, mu, eps, n_max, step):
    """One power at a time: distances and first_below from a step nu -> mu * nu."""
    current = np.zeros(group.order)
    for h, w in mu.weights.items():
        current[h] = float(w)
    distances, first_below = [], None
    for k in range(1, n_max + 1):
        nxt = step(current)
        d = 0.5 * float(np.abs(current - nxt).sum())
        distances.append(d)
        if first_below is None and d <= eps:
            first_below = k
        current = nxt
    return distances, first_below


def foguel_step_oracle(group, mu, eps, n_max):
    """The step loop through `_gather` over the inverse left walk:
    (mu * nu)(x) = sum_h mu(h) nu(h^-1 x)."""
    walk = left_operator(group, mu).stencil()
    inverse = []
    for perm in walk.perms:
        inv = np.empty_like(perm)
        inv[perm] = np.arange(group.order)
        inverse.append(inv)
    inverse = walk._replace(perms=inverse)
    return _step_loop(group, mu, eps, n_max, lambda nu: operators._gather(inverse, nu))


def foguel_dense_oracle(group, mu, eps, n_max):
    """The step loop through the dense column-stochastic matrix of mu * nu."""
    n = group.order
    mat, walk = np.zeros((n, n)), left_operator(group, mu).stencil()
    for w, perm in zip(walk.weights, walk.perms):
        mat[perm, np.arange(n)] += w
    return _step_loop(group, mu, eps, n_max, lambda nu: mat @ nu)


FOGUEL_GROUPS = [
    CyclicGroup(4),
    CyclicGroup(9),
    DihedralGroup(5),
    QuaternionGroup(),
    SymmetricGroup(4),
    CyclicGroup(300),  # rows longer than numpy's pairwise-summation block
]


def _random_measure(group, rng, exact):
    """A seeded measure, generally neither symmetric nor generating."""
    support = rng.sample(range(group.order), rng.randint(1, min(5, group.order)))
    weights = [rng.randint(1, 7) for _ in support]
    mu = make_measure(group, [(g, F(w, sum(weights))) for g, w in zip(support, weights)])
    return mu if exact else mu.as_float()


FOGUEL_CASE = (
    st.sampled_from(FOGUEL_GROUPS),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from([1e-2, 1e-6, 1e-12]),
    st.integers(1, 150),
)


@given(*FOGUEL_CASE)
def test_foguel_decay_matches_step_loop(group, seed, exact, eps, n_max):
    mu = _random_measure(group, random.Random(seed), exact)
    result = foguel_decay(group, mu, eps=eps, n_max=n_max)
    assert (result.distances, result.first_below) == foguel_step_oracle(group, mu, eps, n_max)


@given(*FOGUEL_CASE)
def test_foguel_decay_matches_dense_matvec_loop(group, seed, exact, eps, n_max):
    mu = _random_measure(group, random.Random(seed), exact)
    result = foguel_decay(group, mu, eps=eps, n_max=n_max)
    distances, first_below = foguel_dense_oracle(group, mu, eps, n_max)
    assert np.max(np.abs(np.array(result.distances) - distances)) <= 1e-12
    if min(abs(d - eps) for d in distances) > 1e-13:  # no gap sits on the threshold
        assert result.first_below == first_below


@given(
    st.sampled_from(FOGUEL_GROUPS),
    st.integers(0, 2**32 - 1),
    st.lists(st.booleans(), min_size=1, max_size=6),
    st.integers(1, 80),
)
def test_foguel_decays_matches_one_walk_per_measure(group, seed, exact_flags, n_max):
    """The corpus walk of several measures side by side gives each measure
    the gaps of its own foguel_decay: mixed support sizes (weight-0
    padding), exact and float weights."""
    rng = random.Random(seed)
    measures = [_random_measure(group, rng, exact) for exact in exact_flags]
    block = verify._foguel_block(group, measures)
    gaps = np.vstack([chunk.copy() for chunk in verify._foguel_walk([block], n_max, group.name)])
    in_range, first = verify._foguel_verdicts(verify._foguel_walk([block], n_max, group.name), len(measures),
                                              verify.FOGUEL_EPS)
    assert all(in_range)
    for j, mu in enumerate(measures):
        alone = foguel_decay(group, mu, n_max=n_max)
        assert gaps[:, j].tolist() == alone.distances
        assert (first[j] or None) == alone.first_below


def test_foguel_decay_builds_no_dense_operator():
    g = DihedralGroup(6)
    mu = make_measure(g, [(0, F(1, 2)), (1, F(1, 4)), (6, F(1, 4))])
    foguel_decay(g, mu)
    for _ in verify._foguel_walk([verify._foguel_block(g, [mu, uniform(g, [1, 11])])], 10, g.name):
        pass
    assert left_operator(g, mu)._float_matrix is None
    assert right_operator(g, mu)._float_matrix is None


def test_foguel_suite_walks_each_group_once(monkeypatch):
    """One walk of every corpus group's block, then the bipartite control."""
    walks = []
    real = verify._foguel_walk

    def counting(blocks, *args, **kwargs):
        walks.append([(group.name, len(entries)) for group, entries in blocks])
        yield from real(blocks, *args, **kwargs)

    monkeypatch.setattr(verify, "_foguel_walk", counting)
    report = _corpus_suite("foguel")
    assert walks == [[("Z4", 3), ("Z5", 3)], [("Z4", 1)]]
    assert [r.fixture for r in report.records] == [
        "Z4/sym00", "Z4/sym01", "Z4/sym02", "Z5/sym00", "Z5/sym01", "Z5/sym02", "Z4/bipartite",
    ]


def test_theorem_suite_labels_and_solves_each_group_once(monkeypatch):
    """One class labelling per walk kind per corpus group (right walks,
    two-sided walks, lifts: 2 * order * 3 cover nodes for the two walks,
    2 * order^2 * 3 for the lifts), one spectra batch per group, and the
    records of fixture_theorem_checks on each fixture alone, in corpus order."""
    labelled, solved = [], []
    classes, solve = operators._classes, verify.spectra
    monkeypatch.setattr(operators, "_classes", lambda n, perms: labelled.append(n) or classes(n, perms))
    monkeypatch.setattr(
        verify, "spectra", lambda ops: solved.append((ops[0].group.name, len(ops))) or solve(ops)
    )
    report = run_theorem_suite(TINY_CORPUS)
    assert labelled == [24, 24, 96, 30, 30, 150]
    assert solved == [("Z4", 3), ("Z5", 3)]
    alone = [
        rec.to_json()
        for fid, group, mu in corpus_fixtures(TINY_CORPUS)
        for rec in fixture_theorem_checks(fid, group, mu)
    ]
    assert [rec.to_json() for rec in report.records[: len(alone)]] == alone


def test_corpus_computes_each_groups_sign_vectors_once(monkeypatch):
    """The sign vectors depend only on the group: each measure's character
    search shares one computation per group, on Z2^5 too, whose greedy
    generators outnumber MAX_PAIRS."""
    returned = {}
    sign_vectors = FiniteGroup.sign_vectors

    def kept(self):
        out = sign_vectors(self)
        returned.setdefault(self.name, []).append(out)
        return out

    monkeypatch.setattr(FiniteGroup, "sign_vectors", kept)
    groups = [CyclicGroup(6), DihedralGroup(4), ProductGroup([CyclicGroup(2)] * 5)]
    report = run_theorem_suite(CorpusSpec(groups=groups, measures_per_group=4))
    assert report.passed
    assert sorted(returned) == sorted(group.name for group in groups)
    for outs in returned.values():  # one search per measure at least, all on one array
        assert len(outs) >= 4 and all(out is outs[0] for out in outs)
        assert not outs[0].flags.writeable


# every finite kind, orders on both sides of OPERATOR_CHECK_MAX_ORDER
THEOREM_GROUPS = [
    CyclicGroup(2), CyclicGroup(5), CyclicGroup(8), CyclicGroup(9), DihedralGroup(3), DihedralGroup(4),
    DihedralGroup(5), SymmetricGroup(3), QuaternionGroup(), AlternatingGroup(4),
    ProductGroup([CyclicGroup(2), CyclicGroup(2)]), ProductGroup([CyclicGroup(2), SymmetricGroup(3)]),
]


def record_bits(records):
    return [(r.fixture, r.quantity, repr(r.value), repr(r.threshold), r.passed, r.note) for r in records]


@settings(max_examples=30)
@given(
    st.lists(st.sampled_from(THEOREM_GROUPS), min_size=1, max_size=3, unique_by=id),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_theorem_batch_matches_the_fixture_by_fixture_reference(groups, per_group, seed):
    """One pass per corpus group gives the records of each fixture checked
    on its own walks alone (freshly sampled), float bits included."""
    spec = CorpusSpec(groups=groups, measures_per_group=per_group, seed=seed)
    batch = run_theorem_suite(spec).records
    alone = [rec for fid, group, mu in corpus_fixtures(spec) for rec in theorem_records_by_fixture(fid, group, mu)]
    assert record_bits(batch[: len(alone)]) == record_bits(alone)


def test_theorem_suite_runs_each_certificate_once_per_group(monkeypatch):
    """Per corpus group: one spectral pass, one split certificate (whose
    left-walk check is one more `_certified` call), one factor certificate
    and, at order <= 8, one certificate per lift side, each over all the
    group's walks (nodes per walk, walks).  One weight check per walk built:
    each measure's right and left walk and, at order <= 8, the two lifted
    walks of mu * mu; none runs inside the labelling, the gather or a
    certificate.  One labelling of each walk: right, two-sided (left o
    right) and, at order <= 8, the lift (walks, stencils per walk).  The
    non-symmetric fixtures, which build walks of their own, are left out."""
    calls, inside = [], {"component_kernel", "_gather", "_certified", "_splits"}

    def count(module, name, shape):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append((name, *shape(*args))) or real(*args))

    def callers():
        frame, names = sys._getframe(2), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        return names

    count(verify, "spectra", lambda ops: (ops[0].group.name, len(ops)))
    count(verify, "_splits", lambda right, left, cols: cols.shape[1::-1])
    count(verify, "_certified", lambda stack, cols, lam: cols.shape[1::-1])
    for module in (operators, harmonic, verify):
        count(module, "component_kernel", lambda walks, where: (len(walks), len(walks[0])))
    count(operators, "_walk", lambda n, perms, weights, where: (n, where, bool(callers() & inside)))
    monkeypatch.setattr(verify, "nonsymmetric_fixtures", lambda: [])
    run_theorem_suite(CorpusSpec(groups=[CyclicGroup(4), DihedralGroup(5)], measures_per_group=3))
    z4, d5 = (("_walk", n, where, False) for n, where in ((4, "on Z4"), (10, "on D5")))
    assert calls == [
        *[z4] * 3, ("component_kernel", 3, 1), *[z4] * 3, ("component_kernel", 3, 2),  # right, then left
        *[z4] * 6, ("component_kernel", 3, 2),  # the walks of mu * mu, lifted
        ("spectra", "Z4", 3), ("_splits", 4, 3), ("_certified", 4, 3), ("_certified", 4, 3),
        ("_certified", 16, 3), ("_certified", 16, 3),
        *[d5] * 3, ("component_kernel", 3, 1), *[d5] * 3, ("component_kernel", 3, 2),
        ("spectra", "D5", 3), ("_splits", 10, 3), ("_certified", 10, 3), ("_certified", 10, 3),
    ]


def test_foguel_power_table_refused_over_budget(monkeypatch):
    g = CyclicGroup(4)
    # the 2 x 4 stencil fits; the walk's tables plus 500 gaps do not, 10 gaps do
    monkeypatch.setattr(operators, "DENSE_BYTES_BUDGET", 1000)
    with pytest.raises(ConstructionError, match="foguel walk on Z4.*DENSE_BYTES_BUDGET"):
        foguel_decay(g, uniform(g, [0, 1]))
    assert foguel_decay(g, uniform(g, [0, 1]), n_max=10).first_below is None


def test_foguel_suite_holds_no_table_of_gaps(monkeypatch):
    """The corpus walk keeps FOGUEL_CHUNK rows of gaps, not FOGUEL_STEPS:
    on the 27 nodes and 6 measures of TINY_CORPUS (supports of at most 5
    elements) its tables and chunk buffers need at most (3 * 5 + 2 + 10) *
    27 + 10 * 6 = 789 floats and the Z4 control 582, where a 500 x 6 table
    of gaps alone needs 3000."""
    monkeypatch.setattr(operators, "DENSE_BYTES_BUDGET", 8 * 1000)
    report = _corpus_suite("foguel")
    assert report.passed and len(report.records) == 7


def test_foguel_suite_fails_gaps_out_of_the_unit_range(monkeypatch):
    real = verify._foguel_walk

    def bent(blocks, n_max, *args, **kwargs):
        for chunk, gaps in enumerate(real(blocks, n_max, *args, **kwargs)):
            if (chunk + 1) * verify.FOGUEL_CHUNK >= n_max:  # the last chunk's last step
                gaps[-1] = 1.5
            yield gaps

    monkeypatch.setattr(verify, "_foguel_walk", bent)
    records = _corpus_suite("foguel").records
    assert not any(r.passed for r in records)
    observed = {r.value for r in records if r.quantity == "tv_gap_in_unit_range"}
    assert observed == {"out of range"}


@pytest.mark.parametrize(
    "kwargs, name",
    [({"n_max": 0}, "n_max"), ({"n_max": -1}, "n_max"), ({"n_max": 2.5}, "n_max"),
     ({"n_max": True}, "n_max"),
     ({"eps": 0}, "eps"), ({"eps": -1e-6}, "eps"), ({"eps": math.nan}, "eps"),
     ({"eps": math.inf}, "eps"), ({"eps": True}, "eps")],
    ids=["n_max=0", "n_max=-1", "n_max=2.5", "n_max=True",
         "eps=0", "eps=-1e-6", "eps=nan", "eps=inf", "eps=True"],
)
def test_foguel_decays_refuses_bad_arguments_before_any_allocation(monkeypatch, kwargs, name):
    g = CyclicGroup(4)
    monkeypatch.setattr(verify, "_foguel_block", lambda *args: pytest.fail("a walk was built"))
    with pytest.raises(ValueError, match=name):
        foguel_decay(g, uniform(g, [0, 1]), **kwargs)


@pytest.mark.parametrize("home, other", [(4, 5), (5, 4)])
def test_foguel_refuses_a_measure_from_a_group_of_another_order(home, other):
    mu = uniform(CyclicGroup(home), [0, 1, home - 1])
    with pytest.raises(ValueError, match=f"measure on Z{home} does not walk on Z{other}: "):
        foguel_decay(CyclicGroup(other), mu)
    with pytest.raises(ValueError, match=f"measure on Z{home} does not walk on Z{home}: "):
        foguel_decay(CyclicGroup(home), mu)  # another object of the same group
    assert foguel_decay(mu.group, mu).first_below is not None


def test_foguel_rejects_truncated_group():
    ball = LatticeBall(1, 2)
    mu = uniform(ball, [ball.index_of_form((1,)), ball.index_of_form((-1,))])
    with pytest.raises(ConstructionError):
        foguel_decay(ball, mu)


# ---------------------------------------------------------------- roots of unity

def test_root_of_unity_full_shift():
    g = CyclicGroup(5)
    report = root_of_unity_check(g, delta(g, 1))
    assert report.passed
    assert report.records[0].quantity == "min_return"
    assert report.records[0].value == 5
    assert len(report.records) == 6  # all five eigenvalues are peripheral


def test_root_of_unity_bipartite_period_two():
    g = CyclicGroup(4)
    report = root_of_unity_check(g, uniform(g, [1, 3]))
    assert report.passed
    assert report.records[0].value == 2
    assert len(report.records) == 3  # min_return plus lambda in {+1, -1}


def test_root_of_unity_min_return_record_fails_above_the_order(monkeypatch):
    g = CyclicGroup(4)
    monkeypatch.setattr(verify, "min_return", lambda mu: g.order + 1)
    report = root_of_unity_check(g, uniform(g, [1, 3]))
    assert (report.records[0].quantity, report.records[0].value) == ("min_return", 5)
    assert not report.records[0].passed
    assert not report.passed


# ---------------------------------------------------------------- revuz / exp bound

def test_revuz_stochastic_pair():
    rng = np.random.default_rng(17)
    raw = rng.random((8, 8)) + 1e-3
    t2 = raw / raw.sum(axis=1, keepdims=True)
    t1 = (t2 + t2 @ t2) / 2.0
    report = revuz_check(t1, t2, 1 / 3)
    assert report.passed
    residuals = [r for r in report.records if "residual" in r.quantity]
    assert residuals
    # cross-check the fixed-space dimension against a dense eigensolve
    blend = t1 / 3 + 2 * t2 / 3
    eigs = np.linalg.eigvals(blend)
    dim = sum(1 for z in eigs if abs(z - 1) < 1e-9)
    assert len(residuals) == 2 * dim


def test_revuz_vacuous_when_no_fixed_points():
    report = revuz_check(0.5 * np.eye(3), 0.25 * np.eye(3), 0.5)
    assert report.passed
    assert len(report.records) == 1
    assert report.records[0].note == "no fixed points"


def test_revuz_certifies_stochastic_contractions_by_row_sums(monkeypatch):
    """Row sums of 1 certify both stochastic matrices as contractions, so
    only the commutator takes a spectral norm (an SVD)."""
    calls, norm = [], verify.operator_norm
    monkeypatch.setattr(verify, "operator_norm", lambda m: calls.append(m.shape) or norm(m))
    t2 = np.array([[0.5, 0.5], [0.25, 0.75]])
    assert revuz_check((t2 + t2 @ t2) / 2, t2, 0.5).passed
    assert calls == [(2, 2)]


def test_revuz_rejects_bad_inputs():
    eye = np.eye(2)
    with pytest.raises(ValueError):
        revuz_check(2.0 * eye, eye, 0.5)  # not a contraction
    with pytest.raises(ValueError):
        revuz_check(eye, eye, 0.0)  # blend weight must be strict
    up = np.array([[0.0, 1.0], [0.0, 0.0]])
    down = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        revuz_check(up, down, 0.5)  # contractions that do not commute


def test_exp_bound_projection_example():
    t = np.diag([1.0, -1.0])
    result = exp_bound_check(t, 4)
    assert result.lhs == pytest.approx(2.0 * math.exp(-8.0), rel=1e-9)
    expected_rhs = 2.0 * 4**4 / (math.exp(4) * math.factorial(4))
    assert result.rhs == pytest.approx(expected_rhs, rel=1e-12)
    assert result.passed
    assert result.stirling_ratio == pytest.approx(
        expected_rhs * math.sqrt(8 * math.pi) / 2.0, rel=1e-12
    )


def test_exp_bound_identity_is_slack():
    result = exp_bound_check(np.eye(3), 1)
    assert result.lhs == pytest.approx(0.0, abs=1e-15)
    assert result.rhs == pytest.approx(2.0 / math.e, rel=1e-12)
    assert result.passed


def test_exp_bound_rejects_bad_n():
    t = np.eye(2)
    for bad in (0, 501, 2.5, True):
        with pytest.raises(ValueError, match="n must be an integer"):
            exp_bound_check(t, bad)


def test_exp_bound_holds_for_random_contractions():
    rng = np.random.default_rng(3)
    for _ in range(10):
        raw = rng.standard_normal((6, 6))
        t = raw * (0.9 / np.linalg.norm(raw, 2))
        for n in (1, 10, 100):
            assert exp_bound_check(t, n).passed


def test_stirling_trend_increases_toward_one():
    trend = stirling_trend()
    ratios = [r for _, r in trend]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(r < 1 for r in ratios)
    assert ratios[-1] > 0.999


# ---------------------------------------------------------------- corpus

def test_alternating_group_matches_permutation_oracle():
    a4 = AlternatingGroup(4)
    assert a4.order == 12

    def inversions(p):
        return sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))

    evens = sorted(p for p in itertools.permutations(range(4)) if inversions(p) % 2 == 0)
    assert evens[0] == (0, 1, 2, 3)
    index = {p: i for i, p in enumerate(evens)}
    for i, p in enumerate(evens):
        for j, q in enumerate(evens):
            composed = tuple(p[q[x]] for x in range(4))
            assert a4.mul(i, j) == index[composed]


def test_alternating_group_has_no_sign_character():
    a4 = AlternatingGroup(4)
    n = a4.order
    for bits in itertools.product((1, -1), repeat=n - 1):
        values = (1,) + bits
        if all(values[a4.mul(g, h)] == values[g] * values[h] for g in range(n) for h in range(n)):
            assert all(v == 1 for v in values)  # only the trivial character


def test_corpus_fixture_contract():
    fixtures = corpus_fixtures(CorpusSpec(seed=0))
    assert len(fixtures) == 25 * 20
    seen = set()
    for fid, group, mu in fixtures:
        assert fid not in seen
        seen.add(fid)
        assert fid.startswith(group.name + "/sym")
        assert is_symmetric(mu)
        assert is_generating(mu)
        assert len(mu.support()) <= 8
        assert sum(mu.weights.values()) == 1
        denom = math.lcm(*(w.denominator for w in mu.weights.values()))
        assert denom <= 64
        identity_weight = mu.weights.get(group.identity)
        if identity_weight is not None:
            assert identity_weight <= F(3, 5)


def test_corpus_is_seed_deterministic():
    a = corpus_fixtures(CorpusSpec(seed=3, measures_per_group=4))
    b = corpus_fixtures(CorpusSpec(seed=3, measures_per_group=4))
    assert [(fid, mu.weights) for fid, _, mu in a] == [(fid, mu.weights) for fid, _, mu in b]
    c = corpus_fixtures(CorpusSpec(seed=4, measures_per_group=4))
    assert [mu.weights for _, _, mu in a] != [mu.weights for _, _, mu in c]


def test_corpus_fixtures_list_matches_sampler_loop():
    groups = [CyclicGroup(6), DihedralGroup(4), QuaternionGroup()]
    fixtures = corpus_fixtures(CorpusSpec(groups=groups, measures_per_group=4, seed=11))
    assert isinstance(fixtures, list)
    expected = []
    for group in groups:
        rng = random.Random(f"11|{group.name}")
        for i in range(4):
            mu = random_symmetric_generating_measure(group, rng)
            expected.append((f"{group.name}/sym{i:02d}", group, mu))
    assert fixtures == expected


SAMPLER_DRAWS = {
    "S6": [
        "42:1/5 51:1/5 266:1/5 431:3/35 520:4/35 524:4/35 703:3/35",
        "39:5/22 98:5/22 515:3/11 634:3/11",
        "57:7/26 102:7/26 318:3/13 410:3/13",
        "210:2/15 279:2/15 376:2/15 537:7/30 626:2/15 656:7/30",
        "2:7/29 285:3/29 471:2/29 627:3/29 641:6/29 645:6/29 685:2/29",
    ],
    "S4xZ2": [
        "3:7/31 17:7/31 21:3/31 25:7/31 27:3/31 33:4/31",
        "7:7/26 9:7/26 20:3/13 26:3/13",
        "7:3/28 9:3/28 18:5/28 31:3/14 36:5/28 41:3/14",
        "18:5/16 31:3/16 36:5/16 41:3/16",
        "16:1/11 21:2/11 24:1/11 27:2/11 47:5/11",
    ],
}


@pytest.mark.parametrize(
    "group", [SymmetricGroup(6), ProductGroup([SymmetricGroup(4), CyclicGroup(2)])], ids=lambda g: g.name
)
def test_sampler_draws_are_pinned(group):
    """The first five draws of one seeded stream, as element:weight."""
    rng = random.Random(0)
    draws = [random_symmetric_generating_measure(group, rng).weights for _ in range(5)]
    assert [" ".join(f"{g}:{w}" for g, w in sorted(d.items())) for d in draws] == SAMPLER_DRAWS[group.name]


def test_sampler_draws_as_many_pairs_as_the_group_needs_generators():
    """Z2^12 needs 12 generators, each its own inverse: at most 4 draws
    never generate it."""
    group = ProductGroup([CyclicGroup(2)] * 12)
    start = time.perf_counter()
    mu = random_symmetric_generating_measure(group, random.Random(0))
    assert time.perf_counter() - start < 2
    assert is_symmetric(mu) and is_generating(mu) and len(set(mu.weights) - {0}) == 12


@pytest.mark.parametrize("factor, rank", [(3, 5), (5, 4)], ids=["Z3^5", "Z5^4"])
def test_sampler_draws_odd_prime_elementary_abelian_groups(factor, rank):
    """Z_p^r needs r generators whatever p is: on Z3^5 the sampler draws five
    pairs, where the sign characters' 2-rank (0) would allow only four."""
    group = ProductGroup([CyclicGroup(factor)] * rank)
    mu = random_symmetric_generating_measure(group, random.Random(0))
    assert is_symmetric(mu) and is_generating(mu)


def _quotient_rank_by_closure(group, p):
    """r_p from the subgroup G'G^p, the closure of every commutator and
    p-th power (each set is closed under conjugation): |G / G'G^p| = p^r_p."""
    mul, inv = group.mul, group.inv
    seeds = {mul(mul(a, b), mul(inv(a), inv(b))) for a in group.elements() for b in group.elements()}
    for g in group.elements():
        power = group.identity
        for _ in range(p):
            power = mul(power, g)
        seeds.add(power)
    return round(math.log(group.order // len(closure(group, seeds)), p))


@pytest.mark.parametrize(
    "group",
    [CyclicGroup(1), CyclicGroup(12), DihedralGroup(6), SymmetricGroup(4), QuaternionGroup(),
     AlternatingGroup(4), ProductGroup([CyclicGroup(4), CyclicGroup(2), CyclicGroup(6)]),
     ProductGroup([CyclicGroup(3)] * 3), ProductGroup([SymmetricGroup(3), CyclicGroup(3)]),
     ProductGroup([CyclicGroup(5), CyclicGroup(5)])],
    ids=lambda g: g.name,
)
def test_elementary_quotient_rank_matches_the_commutator_closure(group):
    """The relator rank against an oracle that never reads the generators,
    and against the sign characters at p = 2."""
    primes = [p for p in (2, 3, 5) if group.order % p == 0]
    expected = max([_quotient_rank_by_closure(group, p) for p in primes], default=0)
    assert verify._elementary_quotient_rank(group) == expected
    if 2 in primes:
        assert _quotient_rank_by_closure(group, 2) == len(group.sign_vectors()).bit_length() - 1


def test_sampler_rejects_impossible_group():
    rng = random.Random(0)
    mu = random_symmetric_generating_measure(DihedralGroup(8), rng)
    assert is_symmetric(mu) and is_generating(mu)


def test_nonsymmetric_fixture_contract():
    fixtures = nonsymmetric_fixtures()
    assert len(fixtures) >= 10
    names = [fid for fid, _, _ in fixtures]
    assert len(set(names)) == len(names)
    asymmetric = 0
    for fid, group, mu in fixtures:
        assert is_generating(mu), fid
        if not is_symmetric(mu):
            asymmetric += 1
        assert root_of_unity_check(group, mu).passed, fid
    assert asymmetric >= 10


# ---------------------------------------------------------------- suites

def test_fixture_checks_with_character():
    g = CyclicGroup(4)
    records = fixture_theorem_checks("unit", g, uniform(g, [1, 3]))
    by_name = {r.quantity: r for r in records}
    assert by_name["peripheral_pm1"].passed
    assert by_name["biharmonic_split"].passed
    assert by_name["biharmonic_split"].note == "dim=2"
    assert by_name["anti_iff_character"].passed
    assert by_name["anti_dim_equals_har_dim"].passed
    assert by_name["anti_factors_through_character"].passed
    assert by_name["roots_of_unity_k=2"].passed
    assert by_name["operator_jointly_fixed_is_fixed"].passed


def test_fixture_checks_without_character():
    g = CyclicGroup(5)
    records = fixture_theorem_checks("unit", g, uniform(g, [1, 4]))
    by_name = {r.quantity: r for r in records}
    assert by_name["no_character_trivial_anti"].passed
    assert by_name["biharmonic_split"].note == "dim=1"
    assert all(r.passed for r in records)


def test_fixture_split_check_fails_violations_and_propagates_errors(monkeypatch):
    # a violated identity is a failed record; anything raised on the way is a fault
    g = CyclicGroup(4)
    mu = uniform(g, [1, 3])
    # the two-sided classes are {0, 2} and {1, 3}; {0, 1} and {2, 3} are not
    # bi-harmonic, since P 1_{0,1} is the constant 1/2
    bent = operators.WalkClasses(np.array([[0, 0, 1, 1], [-1] * 4]), np.ones(4, dtype=np.int64))
    monkeypatch.setattr(verify, "two_sided_classes", lambda group, measures: [bent])
    split = [r for r in fixture_theorem_checks("unit", g, mu) if r.quantity == "biharmonic_split"]
    assert [(r.value, r.passed, r.note) for r in split] == [("violated", False, "dim=2")]
    monkeypatch.undo()

    def broken(*args):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(verify, "_gather", broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        fixture_theorem_checks("unit", g, mu)


# every finite kind; orders >= 3, so no delta is jointly bi-harmonic
SPLIT_GROUPS = [
    CyclicGroup(3), CyclicGroup(6), CyclicGroup(8), DihedralGroup(3), DihedralGroup(4),
    SymmetricGroup(3), QuaternionGroup(), AlternatingGroup(4),
    ProductGroup([CyclicGroup(2), CyclicGroup(2)]), ProductGroup([CyclicGroup(2), DihedralGroup(3)]),
]


def five_identities(f, mu):
    """P^2 f = f, L P f = f, t0 constant, P t1 = -t1 and L t1 = -t1, one
    `apply` at a time, for any measure."""
    right, left = right_operator(f.group, mu), left_operator(f.group, mu)
    pf = apply(right, f)
    t0, t1 = (f + pf).scale(F(1, 2)), (f - pf).scale(F(1, 2))
    return (
        apply(right, pf) == f and apply(left, pf) == f
        and t0 == GroupFunction.constant(f.group, t0[0])
        and apply(right, t1) == -t1 and apply(left, t1) == -t1
    )


@given(st.sampled_from(SPLIT_GROUPS), st.integers(0, 2**32 - 1), st.booleans())
def test_split_columns_match_decompose_oracle(group, seed, generating):
    """The column check against the five identities on the bi-harmonic
    basis, scaled copies (denominators), sums, one perturbed entry, a random
    function, the one-sided anti-harmonic functions and the two-sided class
    indicators (the columns fixture_theorem_checks passes), each column the
    numerators of its function over its own denominator, for symmetric
    measures generating or not (uniform on {g, g^-1}), where a function can
    meet some identities and miss others; against decompose as well when mu
    generates, where a perturbed basis function never splits."""
    rng = random.Random(seed)
    if generating:
        mu = random_symmetric_generating_measure(group, rng)
    else:
        g = rng.randrange(1, group.order)
        mu = uniform(group, sorted({g, group.inv(g)}))
    basis = jointly_biharmonic_space(group, mu)
    one = rng.randrange(len(basis))
    delta_at = [0] * group.order
    delta_at[rng.randrange(group.order)] = rng.choice([-1, 1])
    perturbed = basis[one] + GroupFunction(group, delta_at)
    noise = GroupFunction(group, [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(group.order)])
    one_sided = anti_harmonic_space(group, mu) + anti_harmonic_space(group, mu, "left")
    indicators = two_sided_classes(group, [mu])[0].basis(1, "in the test")  # what the suite checks
    functions = [
        *basis,
        basis[one].scale(F(rng.randint(-5, 5) or 1, rng.randint(1, 9))),
        basis[0] + basis[-1].scale(F(2, 3)),
        perturbed,
        noise,
        *one_sided,  # P f = -f or L f = -f: some of the identities hold, not always all
        *(basis[0] + f for f in one_sided),
        *(GroupFunction._from_numerators(group, row) for row in indicators),
    ]
    right, left = (operators._stacked([op(group, mu).stencil()]) for op in (right_operator, left_operator))
    [columns] = verify._splits(right, left, np.column_stack([f._nums for f in functions])[None]).tolist()
    assert columns == [five_identities(f, mu) for f in functions]
    if is_generating(mu):
        assert columns == [decompose_splits(f, mu) for f in functions]
        assert columns[: len(basis) + 3] == [True] * (len(basis) + 2) + [False]
        assert all(columns[-len(indicators):])


def test_fixture_checks_reject_asymmetric():
    g = CyclicGroup(5)
    from groupwalk.verify import FixtureConstructionError

    with pytest.raises(FixtureConstructionError):
        fixture_theorem_checks("unit", g, delta(g, 1))


def test_fixture_checks_reject_float_weights():
    g = CyclicGroup(4)
    with pytest.raises(verify.FixtureConstructionError, match="exact, symmetric and generating"):
        fixture_theorem_checks("unit", g, make_measure(g, [(1, 0.5), (3, 0.5)]))


def test_theorem_suite_small_corpus():
    report = run_theorem_suite(TINY_CORPUS)
    assert report.suite == "theorems"
    assert report.passed
    fixtures = {r.fixture for r in report.records}
    assert "Z4/sym00" in fixtures
    assert "Q8/nonsym" in fixtures  # nonsymmetric fixtures always ride along


def test_examples_suite_ball_counts():
    report = examples_suite()
    assert report.passed
    by_key = {(r.fixture, r.quantity): r for r in report.records}
    assert by_key[("Zball50", "interior_size")].value == 99
    assert by_key[("F2ball6", "ball_size")].value == 1457
    assert by_key[("F2ball6", "interior_size")].value == 485
    assert by_key[("F2ball6", "sign_character_found")].value == "parity"
    assert by_key[("Zball50", "two_sided_convolution_restores")].note == "interior=97"


def test_foguel_suite_includes_negative_control():
    report = _corpus_suite("foguel")
    assert report.passed
    control = [r for r in report.records if r.fixture == "Z4/bipartite"]
    assert len(control) == 1
    assert control[0].value == "constant"


def test_revuz_suite_mixes_random_and_corpus():
    report = _corpus_suite("revuz")
    assert report.passed
    fixtures = {r.fixture for r in report.records}
    assert {f"stochastic_pair_{trial:03d}" for trial in range(verify.TRIALS)} <= fixtures
    assert any(f.endswith("/sided_operators") for f in fixtures)


def test_stirling_suite_has_trend_records():
    report = stirling_suite(seed=2)
    assert report.passed
    bounds = [r for r in report.records if r.fixture.startswith("contraction_")]
    assert [r.quantity for r in bounds[:3]] == ["exp_bound_n=1", "exp_bound_n=10", "exp_bound_n=100"]
    assert len(bounds) == 3 * verify.TRIALS
    trend = [r for r in report.records if r.fixture == "stirling_trend"]
    assert [r.quantity for r in trend] == [
        "ratio_n=10",
        "ratio_n=50",
        "ratio_n=100",
        "ratio_n=200",
    ]
    assert [r.threshold for r in trend] == ["monotone toward 1"] * 3 + ["0.9..1.1"]


def test_stirling_trend_records_fail_off_the_monotone_trend(monkeypatch):
    """Each ratio but the last must sit below 1 and below the next one."""
    trend = [(10, 0.995), (50, 0.99), (100, 1.0), (200, 0.9995)]
    monkeypatch.setattr(verify, "stirling_trend", lambda: trend)
    records = [r for r in stirling_suite(seed=0).records if r.fixture == "stirling_trend"]
    assert [r.passed for r in records] == [False, True, False, True]


@pytest.mark.parametrize(
    "trials", [stirling_suite, verify._revuz_trials], ids=["stirling_suite", "revuz_trials"]
)
def test_trials_repeat_for_a_seed_and_move_with_it(trials):
    """The trial matrices come from random.Random seeded by text, so equal
    seeds give equal records and seeds 3 and 4 give different ones."""
    def drawn(seed):
        out = trials(seed)
        return [rec.to_json() for rec in getattr(out, "records", out)]

    assert drawn(3) == drawn(3)
    assert drawn(3) != drawn(4)


@pytest.mark.parametrize("suite", ["revuz", "stirling"])
@pytest.mark.parametrize("seed", range(10))
def test_trial_suites_pass_at_the_first_ten_seeds(suite, seed):
    assert verify_suite(suite, seed=seed).passed


def test_verify_all_samples_each_fixture_once_and_matches_the_suites_alone(monkeypatch):
    sampled = []
    real = verify.random_symmetric_generating_measure
    monkeypatch.setattr(
        verify, "random_symmetric_generating_measure",
        lambda group, rng: sampled.append(group.name) or real(group, rng),
    )
    together = verify_suite("all", seed=0)
    assert len(sampled) == 25 * 20  # not once per corpus suite
    alone = [
        rec.to_json()
        for name in ("examples", "theorems", "foguel", "revuz", "stirling")
        for rec in verify_suite(name, seed=0).records
    ]
    assert len(sampled) == 4 * 25 * 20
    assert [rec.to_json() for rec in together.records] == alone


def test_verify_suite_dispatch_and_determinism():
    with pytest.raises(ValueError):
        verify_suite("nope")
    a = verify_suite("stirling", seed=9)
    b = verify_suite("stirling", seed=9)
    assert a.to_json() == b.to_json()


# ---------------------------------------------------------------- reports

def test_report_json_round_trip():
    """The report's JSON text carries its suite, verdict and records."""
    g = CyclicGroup(4)
    report = root_of_unity_check(g, uniform(g, [1, 3]))
    back = json.loads(json.dumps(report.to_json()))
    assert back["suite"] == report.suite
    assert back["passed"] == report.passed
    assert len(back["checks"]) == len(report.records)
    for mine, theirs in zip(report.records, back["checks"]):
        assert mine.fixture == theirs["fixture"]
        assert mine.quantity == theirs["quantity"]
        assert mine.passed == theirs["passed"]


def test_check_record_summary_lines():
    ok = CheckRecord("f", "q", 1.0, 2.0, True)
    bad = CheckRecord("f", "q", 3.0, 2.0, False, note="over")
    assert ok.summary_line().startswith("PASS")
    assert "over" in bad.summary_line()
    assert bad.summary_line().startswith("FAIL")
    report = VerificationReport("demo", [ok, bad])
    assert not report.passed
    assert len(report.summary_lines()) == 2
