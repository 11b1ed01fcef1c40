import functools
import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
)
from groupwalk.harmonic import (
    Character,
    _combination,
    _fixed_coefficients,
    _projection,
    anti_harmonic_space,
    character_from_extremal,
    decompose,
    diamond,
    factor_anti_harmonic,
    find_anti_character,
    harmonic_space,
    jensen_margins,
    jointly_biharmonic_space,
    monotone_abs_check,
    peripheral_boundary,
    two_sided_classes,
)
from groupwalk.linalg import (
    rational_matmul,
    rational_nullspace,
    rational_rref,
    rational_solve,
)
from groupwalk.measures import delta, is_generating, make_measure, min_return, uniform
from groupwalk.operators import (
    ComputationError,
    ConvolutionOperator,
    GroupFunction,
    OperatorOnMatrices,
    _function_values,
    _operator,
    apply,
    apply_truncated,
    eigenspace,
    left_operator,
    right_operator,
)
from groupwalk.verify import CorpusSpec, corpus_fixtures, foguel_decay, root_of_unity_check

from gf2_reference import GF2System, per_element_character
from linalg_reference import normalize_leading

F = Fraction


# ---------------------------------------------------------------- oracles

def enumerate_sign_characters(group):
    """All multiplicative +-1 assignments, by brute force (order <= 12)."""
    n = group.order
    out = []
    for bits in itertools.product((1, -1), repeat=n - 1):
        values = (1,) + bits  # identity fixed at +1
        if all(
            values[group.mul(g, h)] == values[g] * values[h]
            for g in range(n)
            for h in range(n)
        ):
            out.append(list(values))
    return out


def all_products_character(group, mu):
    """Lex-min sign character -1 on the support from the GF(2) system with
    one equation x_g + x_h + x_{g*h} = 0 per pair (g, h), or None."""
    n = group.order
    system = GF2System()
    for g in range(n):
        for h in range(n):
            system.add((1 << g) ^ (1 << h) ^ (1 << group.mul(g, h)), 0)
    for s in mu.support():
        system.add(1 << s, 1)
    bits = system.lex_min_solution(n)
    return None if bits is None else [1 if b == 0 else -1 for b in bits]


def cesaro_projection(op_matrix, lam, vec, squarings=40):
    """Spectral projection onto the lam in {+1,-1} eigenspace of a symmetric
    stochastic matrix, via power burn-in plus a two-term sign filter.

    Squares P^2 until every |theta| < 1 component underflows; rows are
    renormalized after each squaring because float drift in the top
    eigenvalue would otherwise compound exponentially.  The final averaging
    (g + lam P g)/2 picks out the lam part of the surviving peripheral pair.
    """
    p = np.array(op_matrix, dtype=float)
    b = p @ p
    for _ in range(squarings):
        b = b @ b
        b /= b.sum(axis=1, keepdims=True)
    g = b @ np.asarray(vec, dtype=float)
    return 0.5 * (g + lam * (p @ g))


def random_rational_measure(group, rng, support_size):
    support = rng.sample(range(group.order), support_size)
    weights = [rng.randint(1, 6) for _ in support]
    total = sum(weights)
    return make_measure(group, [(g, F(w, total)) for g, w in zip(support, weights)])


# ---------------------------------------------------------------- spaces

def test_harmonic_space_z4_bipartite():
    g = CyclicGroup(4)
    mu = uniform(g, [1, 3])
    har = harmonic_space(g, mu)
    assert len(har) == 1
    assert har[0].values == [F(1)] * 4
    anti = anti_harmonic_space(g, mu)
    assert len(anti) == 1
    assert anti[0].values == [F(1), F(-1), F(1), F(-1)]


def test_space_dims_match_float_eigenvalue_counts():
    rng = random.Random(31)
    for group in (CyclicGroup(6), DihedralGroup(4), QuaternionGroup(), SymmetricGroup(3)):
        for _ in range(4):
            mu = random_rational_measure(group, rng, rng.randint(1, 3))
            eigs = np.linalg.eigvals(right_operator(group, mu).as_array())
            plus = sum(1 for z in eigs if abs(z - 1) < 1e-8)
            minus = sum(1 for z in eigs if abs(z + 1) < 1e-8)
            assert len(harmonic_space(group, mu)) == plus
            assert len(anti_harmonic_space(group, mu)) == minus


def test_harmonic_spaces_reject_unknown_side():
    g = DihedralGroup(3)
    mu = delta(g, 3)  # the reflection s: the right and left classes differ
    right = [f.values for f in harmonic_space(g, mu, "right")]
    assert right != [f.values for f in harmonic_space(g, mu, "left")]
    for space in (harmonic_space, anti_harmonic_space):
        with pytest.raises(ValueError, match="side must be 'right' or 'left', got 'Right'"):
            space(g, mu, "Right")


def test_harmonic_space_non_generating_measure():
    g = CyclicGroup(4)
    mu = uniform(g, [2])  # generates only {0, 2}
    har = harmonic_space(g, mu)
    assert len(har) == 2
    assert har[0].values == [F(1)] * 4  # constants come first
    for f in har:
        assert apply(right_operator(g, mu), f).values == f.values


def test_spaces_and_boundary_give_a_float_measure_its_exact_twins_output():
    """The +-1 spaces come from the walk's classes, which read the step
    permutations and never the weights: a corpus measure and its float twin
    get the same exact bases and the same boundary table."""
    spaces = [functools.partial(space, side=side) for space in (harmonic_space, anti_harmonic_space)
              for side in ("right", "left")] + [jointly_biharmonic_space]
    anti_seen = 0
    for fid, g, mu in corpus_fixtures(CorpusSpec(measures_per_group=2, seed=0)):
        nu = mu.as_float()
        for space in spaces:
            assert [_function_values(f) for f in space(g, nu)] == [_function_values(f) for f in space(g, mu)], fid
        boundary = peripheral_boundary(g, nu).to_json()
        assert boundary == peripheral_boundary(g, mu).to_json(), fid
        anti_seen += -1 in boundary["tags"]
    assert anti_seen >= 5


def test_spaces_demand_finite_group():
    ball = LatticeBall(1, 3)
    mu = uniform(ball, [ball.index_of_form((1,)), ball.index_of_form((-1,))])
    with pytest.raises(ConstructionError):
        harmonic_space(ball, mu)


FINITE_ONLY = {  # each takes (ball, mu, f) and walks mu on a finite group only
    "right_operator": lambda ball, mu, f: right_operator(ball, mu),
    "left_operator": lambda ball, mu, f: left_operator(ball, mu),
    "harmonic_space": lambda ball, mu, f: harmonic_space(ball, mu),
    "anti_harmonic_space": lambda ball, mu, f: anti_harmonic_space(ball, mu),
    "jointly_biharmonic_space": lambda ball, mu, f: jointly_biharmonic_space(ball, mu),
    "peripheral_boundary": lambda ball, mu, f: peripheral_boundary(ball, mu),
    "decompose": lambda ball, mu, f: decompose(f, mu),
    "diamond": lambda ball, mu, f: diamond(mu, f, 1, f, 1),
    "character_from_extremal": lambda ball, mu, f: character_from_extremal(f, mu),
    "is_generating": lambda ball, mu, f: is_generating(mu),
    "min_return": lambda ball, mu, f: min_return(mu),
    "foguel_decay": lambda ball, mu, f: foguel_decay(ball, mu),
    "OperatorOnMatrices": lambda ball, mu, f: OperatorOnMatrices(ball, mu, "right"),
}


@pytest.mark.parametrize("entry", FINITE_ONLY)
def test_finite_only_entry_points_refuse_a_ball_with_one_message(entry):
    """Every walk that needs a finite group is refused on a ball by the one
    refusal of the operators, with its message, before any other check."""
    ball = LatticeBall(1, 3)
    mu = uniform(ball, [ball.index_of_form((1,)), ball.index_of_form((-1,))])
    f = GroupFunction.constant(ball, F(1))
    with pytest.raises(ConstructionError, match="requires a finite group; use apply_truncated on balls"):
        FINITE_ONLY[entry](ball, mu, f)


def test_biharmonic_z4():
    g = CyclicGroup(4)
    mu = uniform(g, [1, 3])
    basis = jointly_biharmonic_space(g, mu)
    assert len(basis) == 2
    assert basis[0].values == [F(1)] * 4
    from groupwalk.operators import left_operator

    for f in basis:
        step = apply(right_operator(g, mu), f)
        back = apply(left_operator(g, mu), step)
        assert back.values == f.values


def test_biharmonic_contains_constants_even_when_not_generating():
    g = DihedralGroup(4)
    mu = uniform(g, [1, 3])  # rotations only
    basis = jointly_biharmonic_space(g, mu)
    assert basis[0].values == [F(1)] * g.order
    from groupwalk.operators import left_operator

    for f in basis:
        assert apply(left_operator(g, mu), apply(right_operator(g, mu), f)).values == f.values


def test_biharmonic_basis_at_order_65536():
    n = 32768
    g = DihedralGroup(n)  # index j + n*k for r^j s^k
    basis = jointly_biharmonic_space(g, uniform(g, [1, n - 1, n]))  # r, r^-1, s
    assert len(basis) == 2
    assert basis[0].values == [F(1)] * g.order
    # g -> h1 g h2 keeps the parity of j + k: the odd class is the first indicator
    assert basis[1].values == [F((x % n + x // n) % 2) for x in range(g.order)]


def test_two_sided_classes_build_each_step_once_for_a_measure_on_another_group(monkeypatch):
    """A measure on another D5 object is refused before any step is built,
    and again once its own group has labelled it (the memo holds for that
    group alone); its own group builds each of its 3 steps once per side."""
    d5, twin = DihedralGroup(5), DihedralGroup(5)
    mu = uniform(d5, [1, 4, 5])
    calls = []
    for group in (d5, twin):
        for name in ("right_perm", "left_perm"):
            real = getattr(group, name)
            monkeypatch.setattr(group, name, lambda h, real=real, name=name: calls.append((name, h)) or real(h))
    with pytest.raises(ValueError, match="measure on D5 does not walk on D5: not its group object"):
        two_sided_classes(twin, [mu])
    assert calls == []
    [walk] = two_sided_classes(d5, [mu])
    assert sorted(calls) == [(name, h) for name in ("left_perm", "right_perm") for h in (1, 4, 5)]
    with pytest.raises(ValueError, match="measure on D5 does not walk on D5: not its group object"):
        two_sided_classes(twin, [mu])
    [again] = two_sided_classes(d5, [mu])
    assert again is walk and len(calls) == 6


def _one(group):
    return GroupFunction.constant(group, F(1))


# each walk on (group, mu), and the kinds of group it accepts
WALK_ENTRY_POINTS = {
    "ConvolutionOperator": (lambda g, mu: ConvolutionOperator(g, mu, "left"), "finite ball"),
    "find_anti_character": (find_anti_character, "finite ball"),
    "apply_truncated": (lambda g, mu: apply_truncated(g, mu, _one(g), "right"), "ball"),
    "right_operator": (right_operator, "finite"),
    "left_operator": (left_operator, "finite"),
    "harmonic_space": (harmonic_space, "finite"),
    "anti_harmonic_space": (anti_harmonic_space, "finite"),
    "jointly_biharmonic_space": (jointly_biharmonic_space, "finite"),
    "two_sided_classes": (lambda g, mu: two_sided_classes(g, [mu]), "finite"),
    "peripheral_boundary": (peripheral_boundary, "finite"),
    "foguel_decay": (foguel_decay, "finite"),
    "root_of_unity_check": (root_of_unity_check, "finite"),
    "decompose": (lambda g, mu: decompose(_one(g), mu), "finite"),
    "diamond": (lambda g, mu: diamond(mu, _one(g), 1, _one(g), 1), "finite"),
    "OperatorOnMatrices": (lambda g, mu: OperatorOnMatrices(g, mu, "right"), "finite"),
}
# (kind, group, another object of its family that holds the measure)
OTHER_GROUP_OBJECTS = {
    "twin D4": ("finite", lambda: (DihedralGroup(4), DihedralGroup(4))),
    "lattice radii": ("ball", lambda: (LatticeBall(2, 3), LatticeBall(2, 2))),
    "free radii": ("ball", lambda: (FreeBall(2, 2), FreeBall(2, 3))),
}


@pytest.mark.parametrize(
    "entry, case",
    [(entry, case) for entry, (_, kinds) in WALK_ENTRY_POINTS.items()
     for case, (kind, _) in OTHER_GROUP_OBJECTS.items() if kind in kinds],
)
def test_every_walk_refuses_a_measure_on_another_group_object(entry, case):
    """A measure walks on its own group object only: each entry point runs
    on it (filling whatever memo it keeps on the measure) and then refuses
    another object of the same group or another ball of the same family."""
    call, _ = WALK_ENTRY_POINTS[entry]
    group, home = OTHER_GROUP_OBJECTS[case][1]()
    steps = [1, 3, 4] if case == "twin D4" else [h for h in home.elements() if home.length(h) == 1]
    mu = uniform(home, steps)
    call(home, mu)
    refusal = f"measure on {re.escape(home.name)} does not walk on {re.escape(group.name)}: not its group object"
    with pytest.raises(ValueError, match=refusal):
        call(group, mu)


def constant_first(vectors, n):
    """Greedy re-basis of a space so the all-ones vector comes first."""
    ones = [F(1)] * n
    basis = []
    reduced_rows = []  # (pivot index, vector) in echelon form
    for cand in [ones] + vectors:
        vec = list(cand)
        for pivot, row in reduced_rows:
            if vec[pivot] != 0:
                factor = vec[pivot] / row[pivot]
                vec = [a - factor * b for a, b in zip(vec, row)]
        pivot = next((i for i, x in enumerate(vec) if x != 0), None)
        if pivot is not None:
            reduced_rows.append((pivot, vec))
            basis.append(cand)
    assert len(basis) == len(vectors)  # the ones vector lies in the space
    return basis


def dense_biharmonic_basis(group, mu):
    """Fraction RREF of left x right - I: the canonical free-column basis,
    normalized, re-based with the constant first."""
    n = group.order
    prod = rational_matmul(left_operator(group, mu).exact_matrix(), right_operator(group, mu).exact_matrix())
    mat = [[x - (1 if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(prod)]
    rref, pivots = rational_rref(mat)
    oracle = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [F(0)] * n
        vec[free] = F(1)
        for row, col in enumerate(pivots):
            vec[col] = -rref[row][free]
        oracle.append(normalize_leading(vec))
    return constant_first(oracle, n)


def test_biharmonic_matches_dense_product_elimination():
    rng = random.Random(19)
    groups = [CyclicGroup(6), DihedralGroup(4), DihedralGroup(5), SymmetricGroup(3), QuaternionGroup()]
    for group in groups:
        for size in (1, 2, 3):
            mu = random_rational_measure(group, rng, size)
            got = [f.values for f in jointly_biharmonic_space(group, mu)]
            assert got == dense_biharmonic_basis(group, mu)


@given(
    st.sampled_from([CyclicGroup(1), CyclicGroup(5), CyclicGroup(8), DihedralGroup(3), DihedralGroup(4),
                     QuaternionGroup(), SymmetricGroup(3), ProductGroup([CyclicGroup(2), CyclicGroup(3)])]),
    st.lists(st.tuples(st.integers(0, 23), st.integers(1, 6)), min_size=1, max_size=4),
)
def test_biharmonic_and_harmonic_match_dense_elimination(group, entries):
    # drawn supports: non-symmetric, non-generating, lazy or not
    weights = {g % group.order: w for g, w in entries}
    total = sum(weights.values())
    mu = make_measure(group, [(g, F(w, total)) for g, w in weights.items()])
    assert [f.values for f in jointly_biharmonic_space(group, mu)] == dense_biharmonic_basis(group, mu)
    for side, op in (("right", right_operator(group, mu)), ("left", left_operator(group, mu))):
        mat = [[x - (1 if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(op.exact_matrix())]
        oracle = constant_first([normalize_leading(v) for v in rational_nullspace(mat)], group.order)
        assert [f.values for f in harmonic_space(group, mu, side)] == oracle


# ---------------------------------------------------------------- decompose

def test_decompose_pure_anti():
    g = CyclicGroup(4)
    mu = uniform(g, [1, 3])
    chi = GroupFunction(g, [F(1), F(-1), F(1), F(-1)])
    dec = decompose(chi, mu)
    assert dec.constant == 0
    assert dec.harmonic_part.values == [F(0)] * 4
    assert dec.anti_part.values == chi.values


def test_decompose_shifted_character():
    g = CyclicGroup(4)
    mu = uniform(g, [1, 3])
    f = GroupFunction(g, [F(2), F(0), F(2), F(0)])  # 1 + chi
    dec = decompose(f, mu)
    assert dec.constant == 1
    assert dec.harmonic_part.values == [F(1)] * 4
    assert dec.anti_part.values == [F(1), F(-1), F(1), F(-1)]


def test_decompose_rejects_non_square_harmonic():
    g = CyclicGroup(4)
    mu = uniform(g, [1, 3])
    spike = GroupFunction(g, [F(1), F(0), F(0), F(0)])
    with pytest.raises(ValueError):
        decompose(spike, mu)


def test_decompose_float_path():
    g = CyclicGroup(6)
    mu = uniform(g, [1, 5]).as_float()
    f = GroupFunction(g, [1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    dec = decompose(f, mu)
    assert dec.constant == pytest.approx(0.0, abs=1e-12)
    assert dec.anti_part.values == pytest.approx(f.values)


# ---------------------------------------------------------------- characters

def test_find_anti_character_matches_exhaustive_search():
    rng = random.Random(12)
    groups = [CyclicGroup(4), CyclicGroup(5), CyclicGroup(6), DihedralGroup(3), QuaternionGroup()]
    for group in groups:
        all_chars = enumerate_sign_characters(group)
        for _ in range(6):
            support = rng.sample(range(1, group.order), rng.randint(1, 3))
            support = sorted(set(support) | {group.inv(s) for s in support})
            mu = uniform(group, support)
            chi = find_anti_character(group, mu)
            matching = [
                c for c in all_chars if all(c[s] == -1 for s in mu.support())
            ]
            if chi is None:
                assert matching == []
            else:
                bits = lambda vals: [0 if v == 1 else 1 for v in vals]
                assert bits(chi.values) == min(bits(c) for c in matching)
                chi.validate()


CHARACTER_GROUPS = [
    CyclicGroup(1),
    CyclicGroup(2),
    CyclicGroup(8),
    CyclicGroup(9),
    DihedralGroup(4),
    DihedralGroup(5),
    QuaternionGroup(),
    SymmetricGroup(4),
    ProductGroup([CyclicGroup(2), CyclicGroup(2), CyclicGroup(2)]),
    ProductGroup([CyclicGroup(2), CyclicGroup(6)]),
    ProductGroup([QuaternionGroup(), CyclicGroup(2)]),
    ProductGroup([DihedralGroup(3), CyclicGroup(4)]),
    SymmetricGroup(3),
    AlternatingGroup(4),
    ProductGroup([ProductGroup([CyclicGroup(2), DihedralGroup(3)]), CyclicGroup(2)]),
    ProductGroup([AlternatingGroup(4), CyclicGroup(2)]),
]


@given(st.sampled_from(CHARACTER_GROUPS), st.data())
def test_find_anti_character_matches_all_products_system(group, data):
    support = data.draw(
        st.lists(st.integers(0, group.order - 1), min_size=1, max_size=4, unique=True)
    )
    mu = uniform(group, support)
    chi = find_anti_character(group, mu)
    assert (None if chi is None else chi.values) == all_products_character(group, mu)


@pytest.mark.parametrize(
    "group",
    [CyclicGroup(512), DihedralGroup(256), ProductGroup([CyclicGroup(2)] * 9),
     ProductGroup([CyclicGroup(16), CyclicGroup(16)]), SymmetricGroup(5)],
    ids=lambda group: group.name,
)
def test_find_anti_character_matches_per_element_system(group):
    # two supports inside the -1 set of a sign character, so a character
    # exists but need not be unique, and one drawn from the whole group
    rng = random.Random(group.order)
    odd = [g for g, v in enumerate(per_element_character(group, uniform(group, [1]))) if v == -1]
    for support in (rng.sample(odd, 1), rng.sample(odd, 3), rng.sample(range(group.order), 2)):
        mu = uniform(group, support)
        chi = find_anti_character(group, mu)
        assert (None if chi is None else chi.values) == per_element_character(group, mu)


def test_find_anti_character_trivial_group_has_none():
    g = CyclicGroup(1)
    assert find_anti_character(g, delta(g, 0)) is None


def test_find_anti_character_lex_min_among_two():
    g = ProductGroup([CyclicGroup(2), CyclicGroup(2)])
    mu = uniform(g, [2])  # support {(1,0)}; chi((0,1)) stays free
    chi = find_anti_character(g, mu)
    # both (1,1,-1,-1) and (1,-1,-1,1) work; the lex-min bit string wins
    assert chi.values == [1, 1, -1, -1]


def test_find_anti_character_odd_cycle_has_none():
    for n in (3, 5, 7, 9):
        g = CyclicGroup(n)
        assert find_anti_character(g, uniform(g, [1, n - 1])) is None


def test_find_anti_character_a4_has_none():
    a4 = AlternatingGroup(4)
    rng = random.Random(2)
    for _ in range(5):
        support = rng.sample(range(1, 12), 2)
        support = sorted(set(support) | {a4.inv(s) for s in support})
        chi = find_anti_character(a4, uniform(a4, support))
        assert chi is None  # A4 has no index-2 subgroup


def test_find_anti_character_free_ball():
    ball = FreeBall(2, 4)
    gens = [ball.index_of_form(w) for w in ((1,), (-1,), (2,), (-2,))]
    chi = find_anti_character(ball, uniform(ball, gens))
    for g in ball.elements():
        assert chi(g) == (1 if ball.length(g) % 2 == 0 else -1)
    chi.validate()


def test_find_anti_character_free_ball_partial_support():
    ball = FreeBall(2, 3)
    mu = uniform(ball, [ball.index_of_form((1,)), ball.index_of_form((-1,))])
    chi = find_anti_character(ball, mu)
    # only the a-axis is forced; words count their a-letters
    assert chi(ball.index_of_form((2,))) == 1
    assert chi(ball.index_of_form((1, 2))) == -1
    assert chi(ball.index_of_form((1, 2, 1))) == 1


def test_find_anti_character_lattice_ball():
    ball = LatticeBall(2, 3)
    mu = uniform(
        ball, [ball.index_of_form((1, 0)), ball.index_of_form((-1, 0))]
    )
    chi = find_anti_character(ball, mu)
    for g in ball.elements():
        x, _ = ball.canonical_form(g)
        assert chi(g) == (1 if x % 2 == 0 else -1)


def test_find_anti_character_identity_in_truncated_support():
    ball = LatticeBall(1, 2)
    mu = uniform(ball, [ball.identity, ball.index_of_form((1,))])
    assert find_anti_character(ball, mu) is None


def test_character_validate_rejects_non_multiplicative():
    g = CyclicGroup(4)
    with pytest.raises(ValueError):
        Character(g, [1, -1, -1, 1]).validate()  # chi(1)*chi(1) != chi(2)


def valid_characters(group):
    """Every sign character of a small finite group, or on a ball the
    parity characters of every choice of generator axes."""
    if not group.is_truncated:
        return enumerate_sign_characters(group)
    axes = group.family_key()[1]
    return [
        (1 - 2 * group.parity(np.array(forced))).tolist()
        for forced in itertools.product((0, 1), repeat=axes)
    ]


CERTIFIED_GROUPS = [
    LatticeBall(2, 3),
    LatticeBall(3, 2),
    FreeBall(2, 3),
    CyclicGroup(6),
    DihedralGroup(4),
    ProductGroup([CyclicGroup(2), CyclicGroup(4)]),
]
VALID_CHARACTERS = {group.name: valid_characters(group) for group in CERTIFIED_GROUPS}


@pytest.mark.parametrize("group", CERTIFIED_GROUPS, ids=lambda g: g.name)
@given(st.data())
def test_character_certificate_rejects_every_single_flip(group, data):
    # two homomorphisms to {+1, -1} never differ at exactly one element of
    # these groups (order > 2, or a ball with both g and g^-1), so a flip
    # is never a character
    characters = VALID_CHARACTERS[group.name]
    assert len(characters) >= 2
    values = list(data.draw(st.sampled_from(characters)))
    assert Character(group, values).validate()
    g = data.draw(st.integers(1, group.order - 1))
    values[g] = -values[g]
    with pytest.raises(ValueError, match="not multiplicative"):
        Character(group, values).validate()


@pytest.mark.parametrize("group", CERTIFIED_GROUPS, ids=lambda g: g.name)
def test_character_from_an_array_matches_one_from_a_list(group):
    for values in VALID_CHARACTERS[group.name]:
        listed, stacked = Character(group, list(values)), Character(group, np.array(values))
        assert type(stacked.values) is list and stacked.values == listed.values == list(values)
        assert stacked.kernel() == listed.kernel() == [g for g, v in enumerate(values) if v == 1]
        assert stacked.to_json() == listed.to_json()
        assert stacked.as_function() == listed.as_function()
        assert stacked.validate() and listed.validate()


def character_error(group, values):
    """The message of the ValueError that building and validating raises."""
    with pytest.raises(ValueError) as caught:
        Character(group, values).validate()
    return str(caught.value)


@pytest.mark.parametrize(
    "values, message",
    [
        ([1, -1, 1], "wrong number of values"),
        ([[1], [-1], [1], [-1]], "wrong number of values"),
        ([1, 0, 1, 0], "must be +1 or -1"),
        ([1, -1, 1, 2], "must be +1 or -1"),
        ([1.0, -1.5, 1.0, -1.0], "must be +1 or -1"),
        ([-1, 1, -1, 1], "1 at the identity"),
        ([1, -1, -1, 1], "not multiplicative"),
    ],
)
def test_character_from_an_array_raises_what_one_from_a_list_raises(values, message):
    g = CyclicGroup(4)
    assert message in character_error(g, values) == character_error(g, np.array(values))


def test_character_certificate_rejects_a_far_flip_on_a_large_ball():
    # a random sample of 4096 pairs never touches the corner (30, 0, 0) of
    # this ball, so a sampled check accepts the flip
    ball = LatticeBall(3, 30)
    mu = uniform(ball, ball.generators() + [ball.inv(t) for t in ball.generators()])
    chi = find_anti_character(ball, mu)
    corner = ball.index_of_form((30, 0, 0))
    values = list(chi.values)
    values[corner] = -values[corner]
    with pytest.raises(ValueError, match="not multiplicative"):
        Character(ball, values).validate()


def test_ball_stencils_and_certificate_look_each_axis_up_once(monkeypatch):
    ball = LatticeBall(3, 30)
    steps = [ball.index_of_form(p) for p in itertools.permutations((1, 0, 0))]
    steps += [ball.inv(t) for t in steps]
    mu = uniform(ball, steps)
    built = []
    step = LatticeBall._step

    def counted(self, h):
        if h not in self._steps:
            built.append(h)
        return step(self, h)

    def refused(self, *args):
        raise AssertionError("a unit step needs no rank lookup and no per-element mul")

    monkeypatch.setattr(LatticeBall, "_step", counted)
    monkeypatch.setattr(LatticeBall, "_lookup", refused)
    monkeypatch.setattr(LatticeBall, "mul", refused)
    right = ConvolutionOperator(ball, mu, "right").stencil()
    left = ConvolutionOperator(ball, mu, "left").stencil()
    chi = find_anti_character(ball, mu)
    assert len(built) == 3  # one construction per axis: -e_i inverts +e_i, left is right
    assert all(r is l for r, l in zip(right.perms, left.perms))
    assert all(chi(g) == -1 for g in steps)


def test_character_from_extremal_recovers():
    g = CyclicGroup(6)
    mu = uniform(g, [1, 5])
    f = GroupFunction(g, [1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    chi = character_from_extremal(f, mu)
    assert chi.values == [1, -1, 1, -1, 1, -1]
    # small perturbations within tol still round cleanly
    noisy = GroupFunction(g, [1.0, -1.0 + 1e-12, 1.0 - 1e-12, -1.0, 1.0, -1.0])
    assert character_from_extremal(noisy, mu).values == chi.values


def test_character_from_extremal_translates_argmax():
    g = CyclicGroup(4)
    mu = uniform(g, [1, 3])
    # -chi attains its max at 1; translation renormalizes to a character
    f = GroupFunction(g, [-1.0, 1.0, -1.0, 1.0])
    chi = character_from_extremal(f, mu)
    assert chi.values == [1, -1, 1, -1]


def test_character_from_extremal_error_cases():
    g = CyclicGroup(4)
    mu = uniform(g, [1, 3])
    with pytest.raises(ValueError):
        character_from_extremal(GroupFunction(g, [2.0, -2.0, 2.0, -2.0]), mu)
    with pytest.raises(ValueError):
        character_from_extremal(GroupFunction(g, [0.5, -0.5, 0.5, -0.5]), mu)
    with pytest.raises(ValueError):
        character_from_extremal(GroupFunction(g, [1.0, 1.0, 1.0, 1.0]), mu)
    # anti-harmonic but not +-1 shaped: scale breaks the rounding
    lopsided = GroupFunction(g, [1.0, -0.6, 0.2, -0.6])
    with pytest.raises(ValueError):
        character_from_extremal(lopsided, mu)


def test_factor_anti_harmonic_z4():
    g = CyclicGroup(4)
    mu = uniform(g, [1, 3])
    chi = find_anti_character(g, mu)
    f = GroupFunction(g, [F(3), F(-3), F(3), F(-3)])
    f1 = factor_anti_harmonic(f, chi, mu)
    assert f1.values == [F(3)] * 4
    assert apply(right_operator(g, mu), f1).values == f1.values


def test_factor_rejects_non_anti():
    g = CyclicGroup(4)
    mu = uniform(g, [1, 3])
    chi = find_anti_character(g, mu)
    with pytest.raises(ValueError):
        factor_anti_harmonic(GroupFunction(g, [F(1)] * 4), chi, mu)


def test_char_multiply_round_trip():
    g = CyclicGroup(6)
    mu = uniform(g, [1, 5])
    chi = find_anti_character(g, mu)
    h = GroupFunction(g, [F(5, 7)] * 6)
    anti = h * chi.as_function()
    assert apply(right_operator(g, mu), anti).values == [-v for v in anti.values]
    back = factor_anti_harmonic(anti, chi, mu)
    assert back.values == h.values
    # chi itself is anti-harmonic and factors through itself to the constant 1
    assert factor_anti_harmonic(chi.as_function(), chi, mu).values == [1] * 6


# ---------------------------------------------------------------- diamond

def test_diamond_unit_and_character_square():
    g = CyclicGroup(4)
    mu = uniform(g, [1, 3])
    one = GroupFunction(g, [F(1)] * 4)
    chi = GroupFunction(g, [F(1), F(-1), F(1), F(-1)])
    assert diamond(mu, one, 1, chi, -1).values == chi.values
    assert diamond(mu, chi, -1, chi, -1).values == one.values
    assert diamond(mu, one, 1, one, 1).values == one.values


def test_diamond_matches_cesaro_oracle():
    # mu = uniform on {2} in Z4 and on {2, 6} in Z8 have two-dimensional
    # +-1 eigenspaces, so the projection genuinely truncates the pointwise
    # product; float functions take the float path, on exact and float
    # measures.  P^2 removes the 0 eigenvalues of the 4-cycles of Z8.
    z4, z8 = CyclicGroup(4), CyclicGroup(8)
    cases = [(z4, uniform(z4, [2])), (z4, uniform(z4, [2]).as_float()), (z8, uniform(z8, [2, 6]).as_float())]
    rng = np.random.default_rng(5)
    for g, mu in cases:
        p = right_operator(g, mu).as_array()
        for lam1 in (1, -1):
            for lam2 in (1, -1):
                v1 = p @ p @ rng.standard_normal(g.order)
                v2 = p @ p @ rng.standard_normal(g.order)
                f1 = GroupFunction(g, list(0.5 * (v1 + lam1 * (p @ v1))))
                f2 = GroupFunction(g, list(0.5 * (v2 + lam2 * (p @ v2))))
                got = diamond(mu, f1, lam1, f2, lam2)
                assert not got.is_exact
                expected = cesaro_projection(p, lam1 * lam2, f1.as_array() * f2.as_array())
                assert np.allclose(got.as_array(), expected, atol=1e-9)


def test_diamond_exact_matches_cesaro_oracle():
    g = CyclicGroup(6)
    mu = uniform(g, [1, 5])
    chi = GroupFunction(g, [F(1), F(-1), F(1), F(-1), F(1), F(-1)])
    one = GroupFunction(g, [F(1)] * 6)
    p = right_operator(g, mu).as_array()
    for f1, lam1 in ((one, 1), (chi, -1)):
        for f2, lam2 in ((one, 1), (chi, -1)):
            got = diamond(mu, f1, lam1, f2, lam2)
            expected = cesaro_projection(p, lam1 * lam2, f1.as_array() * f2.as_array())
            assert np.allclose(got.as_array(), expected, atol=1e-12)


def test_diamond_rejects_bad_inputs():
    g = CyclicGroup(4)
    mu_asym = uniform(g, [1])
    one = GroupFunction(g, [F(1)] * 4)
    with pytest.raises(ValueError):
        diamond(mu_asym, one, 1, one, 1)
    mu = uniform(g, [1, 3])
    with pytest.raises(ValueError):
        diamond(mu, one, 1, one, 2)
    not_eigen = GroupFunction(g, [F(1), F(0), F(0), F(0)])
    with pytest.raises(ValueError):
        diamond(mu, not_eigen, 1, one, 1)


def inner(f, g):
    """Exact sum over x of f(x) * g(x), one Fraction per entry."""
    return sum(x * y for x, y in zip(f.values, g.values))


def gram_coefficients(basis, f):
    """Coefficients over an independent basis of the orthogonal projection
    of f, by an exact solve of the Gram system: the projection diamond and
    the boundary table made before the closed form over the classes."""
    gram = [[inner(b1, b2) for b2 in basis] for b1 in basis]
    coeffs = rational_solve(gram, [inner(b, f) for b in basis])
    assert coeffs is not None
    return coeffs


# every finite kind: cyclic, dihedral, symmetric, Q8, a table group, products
PROJECTION_GROUPS = [
    CyclicGroup(1), CyclicGroup(5), CyclicGroup(8), DihedralGroup(4), SymmetricGroup(3),
    QuaternionGroup(), AlternatingGroup(4), ProductGroup([CyclicGroup(2), DihedralGroup(3)]),
]


@st.composite
def projection_cases(draw):
    """(group, exact measure, side, exact function): 1-3 drawn support
    elements with positive weights, so the walks are often non-symmetric,
    non-generating, lazy or bipartite."""
    group = draw(st.sampled_from(PROJECTION_GROUPS))
    support = draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.integers(1, 6), min_size=len(support), max_size=len(support)))
    mu = make_measure(group, [(g, F(w, sum(weights))) for g, w in zip(support, weights)])
    nums = draw(st.lists(st.integers(-9, 9), min_size=group.order, max_size=group.order))
    dens = draw(st.lists(st.integers(1, 9), min_size=group.order, max_size=group.order))
    return group, mu, draw(st.sampled_from(["right", "left"])), GroupFunction(group, list(map(F, nums, dens)))


@given(projection_cases())
def test_class_projection_matches_gram_solve(case):
    """The class means are the Gram solve's coefficients over each sign's
    class arrays, and _fixed_coefficients turns the +1 means into its
    coefficients over the harmonic_space layout; the projection is their
    combination, and f minus it is orthogonal to the eigenspace."""
    group, mu, side, f = case
    walk = _operator(group, mu, side).classes()
    for lam in (1, -1):
        basis = eigenspace(_operator(group, mu, side), lam)
        means, projection = _projection(f, walk, lam)
        assert means == gram_coefficients(basis, f)
        assert projection == _combination(group, means, basis)
        assert all(inner(f - projection, b) == 0 for b in basis)
    fixed = harmonic_space(group, mu, side)
    assert _fixed_coefficients(_projection(f, walk, 1)[0]) == gram_coefficients(fixed, f)


# ---------------------------------------------------------------- boundary

def test_boundary_z4():
    g = CyclicGroup(4)
    mu = uniform(g, [1, 3])
    basis = peripheral_boundary(g, mu)
    assert basis.dimension == 2
    assert basis.tags == [1, -1]
    assert basis.functions[0].values == [F(1)] * 4
    # unit row/column and chi <> chi = 1
    assert basis.table[0][1] == [F(0), F(1)]
    assert basis.table[1][0] == [F(0), F(1)]
    assert basis.table[1][1] == [F(1), F(0)]
    assert basis.product(1, 1).values == [F(1)] * 4


def test_boundary_even_cycles_dimension_two():
    for m in (2, 3, 4, 5):
        g = CyclicGroup(2 * m)
        mu = uniform(g, [1, 2 * m - 1])
        basis = peripheral_boundary(g, mu)
        assert basis.dimension == 2
        assert sorted(basis.tags) == [-1, 1]


def test_boundary_table_commutative_and_associative():
    for group, support in (
        (CyclicGroup(6), [1, 5]),
        (DihedralGroup(4), [4, 5, 6, 7]),
        (QuaternionGroup(), [2, 3, 4, 5]),
    ):
        mu = uniform(group, support)
        basis = peripheral_boundary(group, mu)
        dim = basis.dimension
        for i in range(dim):
            for j in range(dim):
                assert basis.table[i][j] == basis.table[j][i]
        # associativity via coefficient vectors: (fi <> fj) <> fk == fi <> (fj <> fk)
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    a = _compose(basis, basis.table[i][j], k, left_side=True)
                    b = _compose(basis, basis.table[j][k], i, left_side=False)
                    assert a == b


def _compose(basis, coeffs, idx, left_side):
    """Coefficients of (sum_c coeffs[c] f_c) <> f_idx, using table linearity."""
    dim = basis.dimension
    out = [F(0)] * dim
    for c, weight in enumerate(coeffs):
        if weight == 0:
            continue
        cell = basis.table[c][idx] if left_side else basis.table[idx][c]
        for t in range(dim):
            out[t] += weight * cell[t]
    return out


def test_boundary_table_matches_diamond():
    groups = [CyclicGroup(6), CyclicGroup(8), DihedralGroup(4), QuaternionGroup()]
    fixtures = [(g, mu) for _, g, mu in corpus_fixtures(CorpusSpec(groups, 3, seed=5))]
    z6 = CyclicGroup(6)
    fixtures.append((z6, uniform(z6, [1, 5])))
    anti_seen = 0
    for group, mu in fixtures:
        basis = peripheral_boundary(group, mu)
        anti_seen += -1 in basis.tags
        for i, (fi, ti) in enumerate(zip(basis.functions, basis.tags)):
            for j, (fj, tj) in enumerate(zip(basis.functions, basis.tags)):
                cell = basis.table[i][j]
                assert all(c == 0 for c, t in zip(cell, basis.tags) if t != ti * tj)
                assert basis.product(i, j).values == diamond(mu, fi, ti, fj, tj).values
    assert anti_seen >= 2


def test_boundary_rejects_non_symmetric_or_non_generating():
    g = CyclicGroup(4)
    with pytest.raises(ValueError):
        peripheral_boundary(g, uniform(g, [1]))
    with pytest.raises(ValueError):
        peripheral_boundary(g, uniform(g, [2]))


# ---------------------------------------------------------------- monotone / jensen

def test_monotone_abs_scaled_character():
    g = CyclicGroup(4)
    mu = uniform(g, [1, 3])
    f = GroupFunction(g, [F(7, 10), F(-7, 10), F(7, 10), F(-7, 10)])
    report = monotone_abs_check(f, mu, 5)
    assert all(report.monotone)
    assert report.sup_gaps == [F(3, 10)] * 6  # |f| is already P-invariant


def test_monotone_abs_strict_growth():
    # anti-harmonic with non-constant modulus: Z4 with the lazy-free two-step
    g = CyclicGroup(4)
    mu = uniform(g, [2])
    f = GroupFunction(g, [F(1), F(0), F(-1), F(0)])  # f(g+2) = -f(g)
    report = monotone_abs_check(f, mu, 3)
    assert all(report.monotone)
    assert report.sup_gaps[0] == 1  # min |f| = 0 at odd points
    assert report.sup_gaps[1] == 1  # P|f| swaps the plateaus, min stays 0


def test_monotone_abs_rejects_non_anti():
    g = CyclicGroup(4)
    mu = uniform(g, [1, 3])
    with pytest.raises(ValueError):
        monotone_abs_check(GroupFunction(g, [F(1)] * 4), mu, 3)
    big = GroupFunction(g, [F(2), F(-2), F(2), F(-2)])
    with pytest.raises(ValueError):
        monotone_abs_check(big, mu, 3)


def test_jensen_margins_nonnegative():
    rng = random.Random(9)
    for group in (CyclicGroup(5), DihedralGroup(3), SymmetricGroup(3)):
        for _ in range(20):
            mu = random_rational_measure(group, rng, rng.randint(1, 4))
            f = GroupFunction(
                group, [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(group.order)]
            )
            margins = jensen_margins(f, mu)
            assert all(v >= 0 for v in margins.values)


def test_jensen_margin_zero_for_deterministic_step():
    g = CyclicGroup(5)
    mu = uniform(g, [2])  # P is a permutation: Jensen is tight
    f = GroupFunction(g, [F(k) for k in range(5)])
    assert jensen_margins(f, mu).values == [F(0)] * 5
