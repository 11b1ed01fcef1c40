"""Exact group functions as integer numerator arrays over one denominator.

The array kernel is checked against the gather it replaced, which built
one Fraction per entry, and against plain per-entry Fraction arithmetic.
"""

import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupwalk import operators, verify
from groupwalk.cli import main
from groupwalk.groups import (
    CyclicGroup,
    DihedralGroup,
    FreeBall,
    LatticeBall,
    ProductGroup,
    QuaternionGroup,
    SymmetricGroup,
    TableGroup,
)
from groupwalk.harmonic import decompose, jointly_biharmonic_space, peripheral_boundary, two_sided_classes
from groupwalk.measures import convolve, is_generating, make_measure, uniform
from groupwalk.operators import (
    ConvolutionOperator,
    GroupFunction,
    _function_values,
    apply,
    apply_truncated,
    left_operator,
    right_operator,
)

from walk_reference import certified_alone, decompose_splits, splits_alone

F = Fraction


def fraction_gather(op, values):
    """The exact gather before numerator arrays, on the measure's Fraction
    weights and the operator's permutations: Python-int numerators in an
    object array, then one Fraction per result entry."""
    terms = list(zip((op.weights[h] for h in sorted(op.weights)), op.stencil().perms))
    den = math.lcm(*(v.denominator for v in values))
    nums = np.array([v.numerator * (den // v.denominator) for v in values], dtype=object)
    scale = math.lcm(*(w.denominator for w, _ in terms))
    total = sum(w.numerator * (scale // w.denominator) * nums[perm] for w, perm in terms)
    den *= scale
    return [Fraction(x, den) for x in total]


def fraction_truncated_step(op, values):
    """apply_truncated's values before numerator arrays, on the operator."""
    defined = np.array([v is not None for v in values] + [False])
    inside = np.logical_and.reduce([defined[perm] for perm in op.stencil().perms])
    total = fraction_gather(op, [0 if v is None else v for v in values] + [0])
    return [v if ok else None for v, ok in zip(total, inside.tolist())]


def _s3_table():
    s3 = SymmetricGroup(3)
    return TableGroup([[s3.mul(a, b) for b in range(6)] for a in range(6)], name="S3table")


GROUPS = [
    CyclicGroup(7),
    DihedralGroup(5),
    SymmetricGroup(4),
    QuaternionGroup(),
    _s3_table(),
    ProductGroup([CyclicGroup(2), ProductGroup([CyclicGroup(3), DihedralGroup(3)])]),
]


def exact_values(draw, n, big=False):
    """n ints and Fractions, mixed; big draws numerators and denominators near 2^40."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    top = 2**40 if big else 50
    out = []
    for _ in range(n):
        if rng.random() < 0.3:
            out.append(rng.randint(-top, top))
        else:
            out.append(F(rng.randint(-top, top), rng.randint(1, top)))
    return out


@st.composite
def exact_walks(draw, big=False, groups=GROUPS):
    group = draw(st.sampled_from(groups))
    support = draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=4, unique=True))
    top = 2**40 if big else 9
    weights = draw(st.lists(st.integers(1, top), min_size=len(support), max_size=len(support)))
    mu = make_measure(group, [(g, F(w, sum(weights))) for g, w in zip(support, weights)])
    return group, mu, draw(st.sampled_from(["right", "left"])), exact_values(draw, group.order, big)


@given(exact_walks())
def test_apply_matches_fraction_gather(walk):
    group, mu, side, values = walk
    op = ConvolutionOperator(group, mu, side)
    out = apply(op, GroupFunction(group, values))
    assert out.is_exact and not out.is_partial
    assert out.values == fraction_gather(op, values)
    assert all(type(v) is Fraction for v in out.values)


@given(exact_walks(big=True))
def test_large_denominators_fall_back_to_python_ints(walk):
    group, mu, side, values = walk
    op = ConvolutionOperator(group, mu, side)
    f, expected = GroupFunction(group, values), values
    for _ in range(3):
        f, expected = apply(op, f), fraction_gather(op, expected)
        assert f.values == expected
    assert f.is_exact
    # the third step's denominator is about 2^160: far past int64
    assert f._nums.dtype == object


@given(exact_walks(big=True), st.data())
def test_stacked_certificates_fall_back_to_python_ints(walk, data):
    """verify's `_certified` and `_splits` over a stack of 1-3 big-weight
    walks on one group, each measure made symmetric as mu * mu' with
    mu'(g) = mu(g^-1) (denominators up to about 2^84), run on Python ints
    and agree walk by walk with the per-walk oracles: `certified_alone` and
    `splits_alone`, and `decompose_splits` where the measure generates.
    Each walk's columns: its two-sided class indicators and -1 arrays times
    2^70, and a big random function alone and plus an indicator, zero-padded
    to one width."""
    group, first, _, values = walk
    drawn = [first] + [data.draw(exact_walks(big=True, groups=[group]))[1] for _ in range(data.draw(st.integers(0, 2)))]
    measures = [convolve(mu, make_measure(group, [(group.inv(g), w) for g, w in mu.weights.items()])) for mu in drawn]
    noise = GroupFunction(group, values)._nums.astype(object)
    blocks = []
    for nu in measures:
        indicators = two_sided_classes(group, [nu])[0].basis(1, "in the test").astype(object) * 2**70
        anti = right_operator(group, nu).classes().basis(-1, "in the test").astype(object) * 2**70
        blocks.append([*indicators, *anti, noise, noise + indicators[0]])
    width = max(map(len, blocks))
    cols = np.zeros((len(measures), group.order, width), dtype=object)
    for block, vecs in zip(cols, blocks):
        block[:, : len(vecs)] = np.array(vecs).T
    walks = [[op(group, nu).stencil() for nu in measures] for op in (right_operator, left_operator)]
    right, left = (operators._stacked(side) for side in walks)
    assert operators._gather(right, cols.reshape(-1, width), 1)[0].dtype == object
    for lam in (1, -1):
        expected = [certified_alone([walk], block, lam).tolist() for walk, block in zip(walks[0], cols)]
        assert verify._certified(right, cols, lam).tolist() == expected
    splits = verify._splits(right, left, cols).tolist()
    assert splits == [splits_alone(r, l, block).tolist() for r, l, block in zip(*walks, cols)]
    for nu, block, row in zip(measures, cols, splits):
        if is_generating(nu):
            assert row == [decompose_splits(GroupFunction._from_numerators(group, col), nu) for col in block.T]


@st.composite
def partial_ball_steps(draw):
    """(ball, exact measure on it, side, values with None holes)."""
    if draw(st.booleans()):
        ball = LatticeBall(draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    else:
        ball = FreeBall(draw(st.integers(1, 2)), draw(st.integers(1, 4)))
    steps = [h for h in ball.elements() if ball.length(h) == 1]
    support = draw(st.lists(st.sampled_from(steps), min_size=1, max_size=len(steps), unique=True))
    weights = draw(st.lists(st.integers(1, 7), min_size=len(support), max_size=len(support)))
    mu = make_measure(ball, [(h, F(w, sum(weights))) for h, w in zip(support, weights)])
    values = exact_values(draw, ball.order)
    holes = random.Random(draw(st.integers(0, 2**32 - 1)))
    rate = draw(st.sampled_from([0.0, 0.2, 0.6]))
    values = [None if holes.random() < rate else v for v in values]
    return ball, mu, draw(st.sampled_from(["right", "left"])), values


@given(partial_ball_steps())
def test_apply_truncated_matches_fraction_gather(step):
    ball, mu, side, values = step
    out, interior = apply_truncated(ball, mu, GroupFunction(ball, values), side)
    op = ConvolutionOperator(ball, mu, side)
    expected = fraction_truncated_step(op, values)
    assert out.values == expected
    assert interior.dtype == np.int64
    assert interior.tolist() == [g for g, v in enumerate(expected) if v is not None]
    assert out.is_exact and out.is_partial == (len(interior) < ball.order)
    twice, _ = apply_truncated(ball, mu, out, side)
    assert twice.values == fraction_truncated_step(op, expected)


@st.composite
def function_pairs(draw):
    group = draw(st.sampled_from(GROUPS))
    return group, exact_values(draw, group.order), exact_values(draw, group.order)


@given(function_pairs(), st.sampled_from([3, -2, F(5, 7), F(-1, 2**70)]))
def test_arithmetic_matches_fraction_entries(pair, c):
    group, a, b = pair
    f, g = GroupFunction(group, a), GroupFunction(group, b)
    assert (f + g).values == [x + y for x, y in zip(a, b)]
    assert (f - g).values == [x - y for x, y in zip(a, b)]
    assert (f * g).values == [x * y for x, y in zip(a, b)]
    assert (-f).values == [-x for x in a]
    assert f.scale(c).values == [c * x for x in a]
    assert f.sup_norm() == max(abs(x) for x in a)
    assert [f[i] for i in range(group.order)] == [F(x) for x in a]
    # equality compares values: a representation built by arithmetic
    # equals one built from the list of the same values
    assert (f + g) - g == f
    assert f.scale(c).scale(1 / F(c)) == GroupFunction(group, [F(x) for x in a])
    assert (f == g) == (a == b)
    assert f.equals_on(g, [i for i in range(group.order) if a[i] == b[i]])
    zero, small = GroupFunction.constant(group, 0), f.scale(F(1, 2**70))
    assert zero.equals_on(small, range(group.order)) == (not any(a))
    assert zero.equals_on(small, [i for i in range(group.order) if a[i] == 0])
    # equals_on scales copies of the compared entries, never the operands
    assert small == f.scale(F(1, 2**70)) and f == GroupFunction(group, a)


def test_mixed_exact_and_float_arithmetic_is_float():
    group = CyclicGroup(3)
    f = GroupFunction(group, [F(1, 3), 2, F(-1, 2)])
    g = GroupFunction(group, [0.5, 1.0, 0.25])
    assert (f + g).values == [x + y for x, y in zip(f.values, g.values)]
    assert (f * g).values == [x * y for x, y in zip(f.values, g.values)]
    assert not (f + g).is_exact
    assert f.scale(0.5).values == [0.5 * x for x in f.values]
    assert f.as_array().tolist() == [float(x) for x in f.values]


def test_values_keep_the_given_list_and_undefined_points():
    ball = LatticeBall(1, 3)
    values = [1, None, F(1, 2), 3, None, 0, F(-2, 3)]
    f = GroupFunction(ball, values)
    assert f.values == values and f.is_exact and f.is_partial
    assert f[1] is None and f[2] == F(1, 2)
    assert (-f).values == [None if v is None else -v for v in values]


# ---------------------------------------------------------------- guards

def _count_fractions(monkeypatch):
    calls = [0]
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return calls


def _axis_steps(ball):
    return [
        ball.index_of_form(tuple(s if j == i else 0 for j in range(ball.dim)))
        for i in range(ball.dim)
        for s in (1, -1)
    ]


@pytest.mark.parametrize("radius", [10, 30])
def test_exact_apply_truncated_builds_no_fraction_per_entry(monkeypatch, radius):
    ball = LatticeBall(3, radius)
    mu = uniform(ball, _axis_steps(ball))
    parity = (-1) ** np.abs(np.array([ball.canonical_form(g) for g in ball.elements()])).sum(axis=1)
    f = GroupFunction._from_numerators(ball, parity.astype(np.int64))
    calls = _count_fractions(monkeypatch)
    right, interior = apply_truncated(ball, mu, f, "right")
    both, _ = apply_truncated(ball, mu, right, "left")
    monkeypatch.undo()
    assert right.equals_on(-f, interior) and len(interior) > 0
    assert calls[0] <= 16, f"{calls[0]} Fractions for a ball of order {ball.order}"


@pytest.mark.parametrize("n", [64, 2048])
def test_biharmonic_split_builds_no_fraction_per_entry(monkeypatch, n):
    group = DihedralGroup(n)  # order 2n
    r = 1
    mu = make_measure(group, [(r, F(1, 3)), (group.inv(r), F(1, 3)), (n, F(1, 3))])
    calls = _count_fractions(monkeypatch)
    basis = jointly_biharmonic_space(group, mu)
    splits = [decompose(f, mu) for f in basis]
    monkeypatch.undo()
    assert len(basis) == 2 and all(dec.constant is not None for dec in splits)
    assert calls[0] <= 24, f"{calls[0]} Fractions for D{n} of order {group.order}"


# ---------------------------------------------------------------- report bytes

def fraction_formatted(f):
    """The report's entries before numerator formatting: one Fraction (via
    the `values` view) and one str per exact entry, [re, im] per complex one."""
    return [str(v) if isinstance(v, Fraction) else [v.real, v.imag] if isinstance(v, complex) else v
            for v in f.values]


@given(partial_ball_steps(), st.booleans())
def test_function_values_match_fraction_formatting_on_balls(step, exact):
    ball, mu, side, values = step
    if not exact:
        mu = mu.as_float()
    out, _ = apply_truncated(ball, mu, GroupFunction(ball, values), side)
    assert _function_values(out) == fraction_formatted(out)


@given(exact_walks(big=True))
def test_function_values_match_fraction_formatting_on_python_ints(walk):
    group, mu, side, values = walk
    f = GroupFunction(group, values)
    for _ in range(3):
        f = apply(ConvolutionOperator(group, mu, side), f)
    assert f._nums.dtype == object
    assert _function_values(f) == fraction_formatted(f)
    assert _function_values(f.scale(F(1, 2**70))) == fraction_formatted(f.scale(F(1, 2**70)))


def test_function_values_of_float_and_complex_functions():
    group = CyclicGroup(4)
    for values in ([0.5, -1.0, 0.0, 2.25], [1j, 0.5 + 0j, -2.0 - 1j, 0j]):
        f = GroupFunction(group, values)
        assert _function_values(f) == fraction_formatted(f)


def test_function_values_build_no_fraction(monkeypatch):
    group = DihedralGroup(64)
    f = GroupFunction._from_numerators(group, np.arange(-64, 64, dtype=np.int64), 12)
    calls = _count_fractions(monkeypatch)
    texts = _function_values(f)
    monkeypatch.undo()
    assert calls[0] == 0
    assert texts == fraction_formatted(f) and texts[:3] == ["-16/3", "-21/4", "-31/6"]


def test_boundary_json_formats_functions_without_fractions(monkeypatch):
    group = DihedralGroup(256)  # order 512
    mu = uniform(group, [1, 255, 256])  # r, r^-1, s
    basis = peripheral_boundary(group, mu)
    calls = _count_fractions(monkeypatch)
    out = basis.to_json()
    monkeypatch.undo()
    assert out["functions"] == [[str(v) for v in fn.values] for fn in basis.functions]
    # the table's coefficients are Fractions; the functions' 512 entries each are not
    assert calls[0] <= 2 * basis.dimension**3, f"{calls[0]} Fractions for order {group.order}"


S4_CONFIG = {
    "group": {"kind": "symmetric", "n": 4},
    "measure": [{"g": "6", "w": "1/2"}, {"g": "2", "w": "1/3"}, {"g": "1", "w": "1/6"}],
    "tasks": ["biharmonic", "boundary"],
}
BALL_CONFIG = {
    "group": {"kind": "lattice", "dim": 2, "radius": 20},
    "measure": [
        {"g": "[1,0]", "w": "1/3"},
        {"g": "[-1,0]", "w": "1/3"},
        {"g": "[0,1]", "w": "1/6"},
        {"g": "[0,-1]", "w": "1/6"},
    ],
    "tasks": ["character", "verify"],
}


@pytest.mark.parametrize(
    "argv, config, digest",
    [
        (["verify", "examples", "--seed", "0"], None,
         "7ea55b01fe16a9162abc947e3723b9e692095f550d29655b632f5ca241a1f692"),
        (["analyze"], S4_CONFIG,
         "f2ac6b6e7bec92d446fb31418d607d9bffc071d62f508db853a1b5bd999e250a"),
        (["analyze"], BALL_CONFIG,
         "33aad9ec203d4b80423c0f0e9b9bebeaa2afa2e8d56a78458759c2a09768427f"),
        (["verify", "foguel", "--seed", "0"], None,
         "a57be67e52f85c575242ef7fc4f3fa38fcf331908cf170b52ff92dc6124e3df6"),
        (["verify", "theorems", "--seed", "0"], None,
         "6aab2c3984424e378d8d368e2036b515c5154819d09f212920239d1874bb777f"),
        (["verify", "theorems", "--seed", "7"], None,
         "d3bc3717921ee364f84d2e95d93fa82da6e2fea2990cab59e7ccc090c55e5423"),
        (["verify", "all", "--seed", "0"], None,
         "21ed9083716446699a3729c20dded76dd946bbc885cfdac073866071dd3bc95f"),
        (["verify", "all", "--seed", "7"], None,
         "bc56c5d5a3f5c988dc66fd1edbbdaaf0af445cc64e8eeb4f45905aa94d166fc8"),
        (["verify", "revuz", "--seed", "0"], None,
         "ef4226aca077dc941ef6385595257a4061b60ee0a9d42ae648b15cbf2ef9603a"),
        (["verify", "foguel", "--seed", "7"], None,
         "d4c69a3aa10571802a75643bdb1ca59baeef3f706afeff6df685b900cde86a2e"),
    ],
    ids=[
        "verify-examples", "s4-biharmonic-boundary", "ball-character-verify", "verify-foguel",
        "verify-theorems", "verify-theorems-seed7", "verify-all", "verify-all-seed7",
        "verify-revuz", "verify-foguel-seed7",
    ],
)
def test_report_bytes_match_pinned_digest(tmp_path, argv, config, digest):
    """Digests of reports written by the Fraction-per-entry kernel, the
    dense foguel walk and json.dumps: the numerator formatting, the
    stencil walk and the report encoder must reproduce them.  The theorems
    digest was taken once the operator-level records became exact (value
    and threshold "exact"); with those 220 records masked it is the
    report the dense SVD check wrote.  It was taken again when the spectrum
    moved from dense LAPACK to character blocks, which moves only the
    spectrum-derived values (peripheral_pm1, roots_of_unity_k=*,
    |lambda^k - 1|) by at most 3.6e-15 and no verdict.  The held-out seed
    7 digest was taken from the suite that checked one fixture at a time;
    labelling and solving each corpus group's walks together reproduces
    it byte for byte.  The `verify all` (seeds 0 and 7), `verify revuz` and
    seed 7 `verify foguel` digests were taken from the suites that sampled
    the corpus once per suite, walked each group's foguel measures apart
    and split each bi-harmonic basis function through decompose; one pass
    over the corpus reproduces them byte for byte.  The two analyze digests
    were taken again when the options `max_power` and `seed`, which changed
    no result, left the report's config echo; nothing else in them moved.
    The `verify all` (seeds 0 and 7) and `verify revuz` digests were taken
    again when the revuz and stirling trials moved from numpy's seeded
    generator to random.Random(f"{seed}|revuz") and f"{seed}|stirling":
    only the stochastic_pair_* and contraction_* records, which hold the
    new draws, changed."""
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + [str(path)]
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
