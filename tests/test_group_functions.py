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

from groupwalk import cli
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
from groupwalk.harmonic import decompose, jointly_biharmonic_space, peripheral_boundary
from groupwalk.measures import make_measure, uniform
from groupwalk.operators import (
    ConvolutionOperator,
    GroupFunction,
    _function_values,
    apply,
    apply_truncated,
)

F = Fraction


def fraction_gather(terms, values):
    """The exact gather before numerator arrays: Python-int numerators in
    an object array, then one Fraction per result entry."""
    den = math.lcm(*(v.denominator for v in values))
    nums = np.array([v.numerator * (den // v.denominator) for v in values], dtype=object)
    scale = math.lcm(*(w.denominator for w, _ in terms))
    total = sum(w.numerator * (scale // w.denominator) * nums[perm] for w, perm in terms)
    den *= scale
    return [Fraction(x, den) for x in total]


def fraction_truncated_step(terms, values):
    """apply_truncated's values before numerator arrays, on the stencil."""
    defined = np.array([v is not None for v in values] + [False])
    inside = np.logical_and.reduce([defined[perm] for _, perm in terms])
    total = fraction_gather(terms, [0 if v is None else v for v in values] + [0])
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
def exact_walks(draw, big=False):
    group = draw(st.sampled_from(GROUPS))
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
    assert out.values == fraction_gather(op.stencil(), values)
    assert all(type(v) is Fraction for v in out.values)


@given(exact_walks(big=True))
def test_large_denominators_fall_back_to_python_ints(walk):
    group, mu, side, values = walk
    op = ConvolutionOperator(group, mu, side)
    f, expected = GroupFunction(group, values), values
    for _ in range(3):
        f, expected = apply(op, f), fraction_gather(op.stencil(), expected)
        assert f.values == expected
    assert f.is_exact
    # the third step's denominator is about 2^160: far past int64
    assert f._nums.dtype == object


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
    terms = ConvolutionOperator(ball, mu, side).stencil()
    expected = fraction_truncated_step(terms, values)
    assert out.values == expected
    assert interior == [g for g, v in enumerate(expected) if v is not None]
    assert out.is_exact and out.is_partial == (len(interior) < ball.order)
    twice, _ = apply_truncated(ball, mu, out, side)
    assert twice.values == fraction_truncated_step(terms, expected)


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
    assert f.inner(g) == sum(x * y for x, y in zip(a, b))
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
    the `values` view) and one str per exact entry."""
    return [cli._jsonable(v) for v in f.values]


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
         "56c4bebe195cd481b16766e5e74d0f4a4df389e45ec542597f1484f9d8f1f276"),
        (["analyze"], BALL_CONFIG,
         "c3f8cff6e52efef27b00a9d54fb5d2c5e2fabfc7233090cb9b3ea71e7872026d"),
        (["verify", "foguel", "--seed", "0"], None,
         "a57be67e52f85c575242ef7fc4f3fa38fcf331908cf170b52ff92dc6124e3df6"),
        (["verify", "theorems", "--seed", "0"], None,
         "d345c5925061a1199c90ce0cc6a21213d8400369465bd7f7da202c28ac3d630b"),
    ],
    ids=[
        "verify-examples", "s4-biharmonic-boundary", "ball-character-verify", "verify-foguel",
        "verify-theorems",
    ],
)
def test_report_bytes_match_pinned_digest(tmp_path, argv, config, digest):
    """Digests of reports written by the Fraction-per-entry kernel, the
    dense foguel walk and json.dumps: the numerator formatting, the
    stencil walk and the report encoder must reproduce them.  The theorems
    digest was taken once the operator-level records became exact (value
    and threshold "exact"); with those 220 records masked it is the
    report the dense SVD check wrote."""
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + [str(path)]
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
