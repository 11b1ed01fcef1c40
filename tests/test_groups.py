import cmath
import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupwalk.groups import (
    MAX_ORDER,
    ConstructionError,
    CyclicGroup,
    DihedralGroup,
    FiniteGroup,
    FreeBall,
    GroupSpec,
    LatticeBall,
    ProductGroup,
    QuaternionGroup,
    SymmetricGroup,
    TableGroup,
    build_group,
    closure,
    format_element,
    generating_set,
    parse_element,
)
from groupwalk.measures import delta
from groupwalk.operators import ConvolutionOperator
from groupwalk.verify import alternating_group

from ball_reference import lattice_points, reduced_words, reference
from gf2_reference import closure_generating_set


# ---------------------------------------------------------------- oracles

def forms(ball):
    """The ball's canonical forms, in index order."""
    return [ball.canonical_form(a) for a in ball.elements()]


# ---------------------------------------------------------------- finite groups

@pytest.mark.parametrize(
    "group, orders",
    [
        (CyclicGroup(6), (6,)),
        (DihedralGroup(5), (5,)),
        (SymmetricGroup(4), (4,)),
        (SymmetricGroup(5), (6,)),  # Landau's function: a 2-cycle times a 3-cycle
        (QuaternionGroup(), (4,)),
        (TableGroup([[(a + b) % 4 for b in range(4)] for a in range(4)]), (4,)),
        (ProductGroup([DihedralGroup(3), ProductGroup([CyclicGroup(2), QuaternionGroup()])]), (3, 2, 4)),
    ],
    ids=lambda x: getattr(x, "name", ""),
)
def test_abelian_cosets_factor_every_element(group, orders):
    """x = a_1^kappa_1 ... a_k^kappa_k g_c: (coset, kappa) is a bijection,
    each representative (kappa 0) is numbered in index order, and left
    multiplication by a_j, the element with kappa = e_j in the identity's
    coset, adds 1 to kappa_j mod n_j and keeps the coset."""
    got, coset, kappa = group.abelian_cosets()
    assert got == orders and group.abelian_cosets()[1] is coset
    assert not coset.flags.writeable and not kappa.flags.writeable
    assert len(set(zip(coset.tolist(), map(tuple, kappa.tolist())))) == group.order
    reps = np.flatnonzero(~kappa.any(axis=1))
    assert coset[reps].tolist() == list(range(len(reps))) and len(reps) * np.prod(orders) == group.order
    for j, m in enumerate(orders):
        unit = np.eye(len(orders), dtype=np.int64)[j]
        a = np.flatnonzero((coset == 0) & (kappa == unit).all(axis=1))[0]
        step = group.left_perm(int(a))
        shifted = kappa.copy()
        shifted[:, j] = (shifted[:, j] + 1) % m
        assert np.array_equal(coset[step], coset) and np.array_equal(kappa[step], shifted)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_symmetric_element_orders_are_cyclic_closure_sizes(n):
    """Each element's order is the size of the cyclic subgroup it generates."""
    g = SymmetricGroup(n)
    assert g._element_orders().tolist() == [len(closure(g, [x])) for x in g.elements()]


def test_cyclic_basic():
    g = CyclicGroup(6)
    assert g.order == 6
    assert g.mul(4, 5) == 3
    assert g.inv(2) == 4
    assert g.inv(0) == 0


def test_cyclic_rejects_bad_order():
    with pytest.raises(ConstructionError):
        CyclicGroup(0)
    with pytest.raises(ConstructionError):
        CyclicGroup((1 << 16) + 1)


def test_dihedral_relations():
    g = DihedralGroup(5)
    r, s = 1, 5  # rotation index 1, reflection index 0 + n*1
    # r^5 = e, s^2 = e, s r s = r^-1
    acc = 0
    for _ in range(5):
        acc = g.mul(acc, r)
    assert acc == 0
    assert g.mul(s, s) == 0
    assert g.mul(g.mul(s, r), s) == g.inv(r)


def test_symmetric_composition_matches_permutations():
    g = SymmetricGroup(4)
    assert g.order == 24
    assert g.perms[0] == (0, 1, 2, 3)  # identity first in lex order
    for a in range(0, 24, 5):
        for b in range(0, 24, 7):
            p, q = g.perms[a], g.perms[b]
            composed = tuple(p[q[i]] for i in range(4))
            assert g.perms[g.mul(a, b)] == composed


def test_symmetric_order_bound():
    with pytest.raises(ConstructionError):
        SymmetricGroup(9)  # 362880 > 2^16


def test_quaternion_table():
    g = QuaternionGroup()
    one, minus_one, i, minus_i, j, minus_j, k, minus_k = range(8)
    assert g.mul(i, i) == minus_one
    assert g.mul(j, j) == minus_one
    assert g.mul(k, k) == minus_one
    assert g.mul(i, j) == k
    assert g.mul(j, i) == minus_k
    assert g.mul(j, k) == i
    assert g.mul(k, i) == j
    assert g.inv(i) == minus_i
    assert g.inv(minus_one) == minus_one
    # -1 is central
    for a in range(8):
        assert g.mul(minus_one, a) == g.mul(a, minus_one)


# (sign, unit) of each product of two basis units, the rules the quaternion
# group multiplied by element by element before it became a table
Q8_UNIT_RULES = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}


def test_quaternion_table_matches_the_unit_rules():
    units = ("1", "i", "j", "k")

    def rule_product(a, b):
        sign, unit = Q8_UNIT_RULES[units[a // 2], units[b // 2]]
        return 2 * units.index(unit) + (sign * (-1) ** (a + b) < 0)

    g = QuaternionGroup()
    assert isinstance(g, TableGroup) and g.name == "Q8" and g.order == 8
    assert g.table.tolist() == [[rule_product(a, b) for b in range(8)] for a in range(8)]
    assert [g.inv(a) for a in range(8)] == [0, 1, 3, 2, 5, 4, 7, 6]


def test_table_group_accepts_z3():
    g = TableGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]], name="Z3table")
    assert g.mul(1, 2) == 0
    assert g.inv(1) == 2


def test_table_group_rejects_non_latin():
    with pytest.raises(ConstructionError):
        TableGroup([[0, 1], [1, 1]])


def test_table_group_rejects_wrong_identity():
    with pytest.raises(ConstructionError):
        TableGroup([[1, 0], [0, 1]])


def test_table_group_rejects_non_associative_loop():
    # order-5 loop with identity and two-sided inverses, found by search;
    # (1*1)*2 = 0*2 = 2 but 1*(1*2) = 1*3 = 4
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ConstructionError):
        TableGroup(loop)
    # order-7 loop, found by search, whose greedy generating set has 3
    # elements: a group of order 7 needs at most 2
    loop = [
        [0, 1, 2, 3, 4, 5, 6],
        [1, 0, 3, 4, 2, 6, 5],
        [2, 3, 0, 5, 6, 1, 4],
        [3, 2, 1, 6, 5, 4, 0],
        [4, 5, 6, 0, 1, 2, 3],
        [5, 6, 4, 1, 0, 3, 2],
        [6, 4, 5, 2, 3, 0, 1],
    ]
    with pytest.raises(ConstructionError, match="not a group: 3 greedy generators at order 7"):
        TableGroup(loop)


def cayley_table(group):
    return [[group.mul(a, b) for b in group.elements()] for a in group.elements()]


def test_table_group_rejects_non_associative_latin_square_of_order_256():
    # swap the intercalate {3, 131} of the Z256 table at rows 1 and 129,
    # columns 2 and 130: still a Latin square with identity and inverses,
    # but now (1*2)*1 = 131*1 = 132 while 1*(2*1) = 1*3 = 4
    table = cayley_table(CyclicGroup(256))
    table[1][2], table[1][130] = table[1][130], table[1][2]
    table[129][2], table[129][130] = table[129][130], table[129][2]
    with pytest.raises(ConstructionError, match="not associative"):
        TableGroup(table)


def test_table_group_accepts_cayley_tables():
    for g in (DihedralGroup(4), SymmetricGroup(3), QuaternionGroup(), CyclicGroup(256)):
        t = TableGroup(cayley_table(g))
        assert t.order == g.order


def test_product_group_is_z6_in_disguise():
    g = ProductGroup([CyclicGroup(2), CyclicGroup(3)])
    assert g.order == 6
    # element orders must match Z6: one element of order 1, one of 2, two of 3, two of 6
    def elem_order(a):
        acc, n = a, 1
        while acc != 0:
            acc = g.mul(acc, a)
            n += 1
        return n

    orders = sorted(elem_order(a) for a in range(6))
    assert orders == [1, 2, 3, 3, 6, 6]


def test_group_axioms_across_constructors():
    for g in (CyclicGroup(7), DihedralGroup(4), SymmetricGroup(3), QuaternionGroup()):
        for a in range(g.order):
            assert g.mul(a, g.identity) == a
            assert g.mul(g.identity, a) == a
            assert g.mul(a, g.inv(a)) == g.identity
        for a in range(0, g.order, 3):
            for b in range(0, g.order, 2):
                for c in range(0, g.order, 5):
                    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


# ---------------------------------------------------------------- closure

def test_closure_of_two_in_z6():
    assert closure(CyclicGroup(6), [2]) == [0, 2, 4]


def test_closure_is_fixpoint():
    g = DihedralGroup(4)
    got = closure(g, [1, 4])
    members = set(got)
    for a in got:
        for b in got:
            assert g.mul(a, b) in members
    assert got == sorted(members)
    assert len(got) == 8  # <r, s> = whole D4


def test_closure_of_reflection_is_small():
    g = DihedralGroup(5)
    assert closure(g, [5]) == [0, 5]


def test_generating_set_is_greedy_in_index_order():
    assert generating_set(CyclicGroup(1)) == []
    assert generating_set(CyclicGroup(12)) == [1]
    assert generating_set(DihedralGroup(4)) == [1, 4]  # r, then s
    assert generating_set(ProductGroup([CyclicGroup(2)] * 3)) == [1, 2, 4]


@given(st.sampled_from([DihedralGroup(6), SymmetricGroup(4), QuaternionGroup(),
                        ProductGroup([CyclicGroup(2), CyclicGroup(4), CyclicGroup(3)]),
                        ProductGroup([ProductGroup([CyclicGroup(2), DihedralGroup(3)]), CyclicGroup(2)]),
                        ProductGroup([CyclicGroup(2)] * 5), SymmetricGroup(5),
                        TableGroup(cayley_table(SymmetricGroup(4)))]))
def test_generating_set_generates_without_redundancy(group):
    gens = generating_set(group)
    assert gens == closure_generating_set(group)
    assert closure(group, gens) == list(group.elements())
    for i, g in enumerate(gens):
        assert g not in closure(group, gens[:i]) and g != group.identity


# ---------------------------------------------------------------- ball truncations

def test_free_ball_counts_match_word_enumeration():
    for rank, radius in ((1, 4), (2, 2), (2, 3), (3, 2)):
        ball = FreeBall(rank, radius)
        words = reduced_words(rank, radius)
        assert ball.order == len(words)
        assert set(forms(ball)) == set(words)
        assert forms(ball) == words  # shortlex, letters a < A < b < B < ...


def test_free_ball_f2_r2_is_17():
    assert FreeBall(2, 2).order == 17


def test_free_ball_f2_r6_is_1457():
    ball = FreeBall(2, 6)
    assert ball.order == 1457
    # interior = radius 5 ball
    assert sum(1 for w in forms(ball) if len(w) <= 5) == 485


def test_free_mul_cancellation():
    ball = FreeBall(2, 2)
    ab = parse_element(ball, "ab")
    b_inv = parse_element(ball, "B")
    a = parse_element(ball, "a")
    assert ball.mul(ab, b_inv) == a
    # "ab" * "a" has length 3, outside radius 2
    assert ball.mul(ab, a) is None


def test_free_inverse_reverses_word():
    ball = FreeBall(2, 3)
    idx = parse_element(ball, "abA")
    assert format_element(ball, ball.inv(idx)) == "aBA"


def test_lattice_ball_counts():
    for dim, radius in ((1, 50), (2, 3), (3, 2)):
        ball = LatticeBall(dim, radius)
        pts = lattice_points(dim, radius)
        assert ball.order == len(pts)
        assert set(forms(ball)) == set(pts)
        assert forms(ball) == sorted(pts, key=lambda p: (sum(map(abs, p)), p))
    assert LatticeBall(1, 50).order == 101


def test_lattice_ball_high_dimension_builds_without_recursion():
    # one point at the origin and two per axis at radius 1
    ball = LatticeBall(1200, 1)
    assert ball.order == 2401
    assert ball.canonical_form(0) == (0,) * 1200
    with pytest.raises(ConstructionError, match="exceeds"):
        LatticeBall(1200, 3)


def test_lattice_forms_are_budgeted_before_they_are_built(monkeypatch):
    # 981,401 points pass MAX_BALL_SIZE, but their forms hold 687 M coordinates
    def unbudgeted(dim, radius):
        raise AssertionError("forms built before the budget check")

    monkeypatch.setattr(LatticeBall, "_ball_points", staticmethod(unbudgeted))
    with pytest.raises(ConstructionError, match="DENSE_BYTES_BUDGET"):
        LatticeBall(700, 2)


def test_lattice_mul_and_exit():
    ball = LatticeBall(2, 2)
    a = ball.index_of_form((1, 0))
    b = ball.index_of_form((0, 1))
    assert ball.canonical_form(ball.mul(a, b)) == (1, 1)
    edge = ball.index_of_form((2, 0))
    assert ball.mul(edge, a) is None  # (3, 0) leaves the ball
    assert ball.inv(edge) == ball.index_of_form((-2, 0))


def test_ball_identity_is_index_zero():
    assert FreeBall(2, 3).identity == 0
    assert LatticeBall(2, 3).identity == 0
    assert FreeBall(2, 3).canonical_form(0) == ()
    assert LatticeBall(2, 3).canonical_form(0) == (0, 0)


def test_ball_length():
    ball = FreeBall(2, 4)
    assert ball.length(parse_element(ball, "abab")) == 4
    lat = LatticeBall(2, 4)
    assert lat.length(lat.index_of_form((-1, 2))) == 3


# ---------------------------------------------------------------- element text

def test_format_parse_round_trip_finite():
    g = DihedralGroup(6)
    for a in range(g.order):
        assert parse_element(g, format_element(g, a)) == a


def test_format_parse_round_trip_lattice():
    ball = LatticeBall(2, 3)
    for a in range(ball.order):
        assert parse_element(ball, format_element(ball, a)) == a
    assert format_element(ball, ball.index_of_form((1, -2))) == "[1,-2]"


def test_format_parse_round_trip_free():
    ball = FreeBall(2, 3)
    for a in range(ball.order):
        assert parse_element(ball, format_element(ball, a)) == a
    assert parse_element(ball, "aA") == 0  # unreduced input reduces to identity


AXIOM_GROUPS = [
    CyclicGroup(1),
    CyclicGroup(12),
    DihedralGroup(7),
    SymmetricGroup(4),
    QuaternionGroup(),
    ProductGroup([DihedralGroup(3), CyclicGroup(4)]),
    TableGroup(cayley_table(ProductGroup([QuaternionGroup(), CyclicGroup(3)]))),
]


@given(st.sampled_from(AXIOM_GROUPS), st.data())
def test_group_axioms_on_drawn_triples(group, data):
    a, b, c = (data.draw(st.integers(0, group.order - 1)) for _ in range(3))
    e = group.identity
    assert group.mul(a, e) == a == group.mul(e, a)
    assert group.mul(a, group.inv(a)) == e == group.mul(group.inv(a), a)
    assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))


@given(st.sampled_from(AXIOM_GROUPS + [LatticeBall(1, 4), LatticeBall(3, 2), FreeBall(1, 3), FreeBall(3, 2)]),
       st.data())
def test_parse_inverts_format(group, data):
    a = data.draw(st.integers(0, group.order - 1))
    assert parse_element(group, format_element(group, a)) == a


def test_parse_rejects_garbage():
    with pytest.raises(ConstructionError):
        parse_element(CyclicGroup(4), "4")
    with pytest.raises(ConstructionError):
        parse_element(CyclicGroup(4), "x")
    with pytest.raises(ConstructionError):
        parse_element(LatticeBall(2, 2), "[1]")
    with pytest.raises(ConstructionError):
        parse_element(LatticeBall(2, 2), "[9,9]")
    with pytest.raises(ConstructionError):
        parse_element(FreeBall(2, 2), "c")  # rank 2 has letters a, b only
    with pytest.raises(ConstructionError):
        parse_element(FreeBall(2, 2), "aaa")  # reduces outside the ball


# ---------------------------------------------------------------- ball API against tuple forms

ORACLE_BALLS = [
    LatticeBall(1, 4),
    LatticeBall(2, 3),
    LatticeBall(3, 2),
    LatticeBall(2, 0),
    LatticeBall(1200, 1),
    FreeBall(1, 3),
    FreeBall(2, 3),
    FreeBall(3, 2),
    FreeBall(2, 0),
]


@st.composite
def any_form(draw, ball):
    """A form of the ball's family that may lie outside it: lattice points
    with a few nonzero coordinates up to radius + 2 (or huge), and free
    words of up to radius + 2 letters, reduced or not."""
    if isinstance(ball, LatticeBall):
        point = [0] * ball.dim
        bound = draw(st.sampled_from([ball.radius + 2, 10**30]))
        for _ in range(draw(st.integers(0, 3))):
            point[draw(st.integers(0, ball.dim - 1))] = draw(st.integers(-bound, bound))
        return tuple(point)
    letters = st.integers(1, ball.rank).flatmap(lambda x: st.sampled_from([x, -x]))
    return tuple(draw(st.lists(letters, max_size=ball.radius + 2)))


@pytest.mark.parametrize("ball", ORACLE_BALLS, ids=lambda b: b.name)
@settings(max_examples=60)
@given(st.data())
def test_ball_api_matches_the_tuple_reference(ball, data):
    ref = reference(ball)
    a, b = (data.draw(st.integers(0, ball.order - 1)) for _ in range(2))
    assert ball.canonical_form(a) == ref.forms[a]
    assert ball.index_of_form(ref.forms[a]) == a
    assert ball.mul(a, b) == ref.mul(a, b)
    assert ball.inv(a) == ref.inv(a)
    assert ball.length(a) == ref.length(a)
    assert format_element(ball, a) == ref.format(a)
    assert parse_element(ball, ref.format(a)) == a
    form = data.draw(any_form(ball))
    assert ball.index_of_form(form) == ref.index_of_form(form)
    text = ref.text(form)
    expected = ref.parse(text)
    if expected is None:
        with pytest.raises(ConstructionError, match="outside"):
            parse_element(ball, text)
    else:
        assert parse_element(ball, text) == expected


def test_ball_forms_outside_the_ball_have_no_index():
    lat = LatticeBall(2, 3)
    assert lat.index_of_form((10**30, 0)) is None
    assert lat.index_of_form((10**30, -(10**30))) is None
    assert lat.index_of_form((1, 1, 0)) is None  # wrong dimension
    with pytest.raises(ConstructionError, match="outside"):
        parse_element(lat, f"[{10**30},0]")
    free = FreeBall(2, 2)
    assert free.index_of_form((1, -1)) is None  # not reduced
    assert free.index_of_form((1, 1, 1)) is None
    assert free.index_of_form((3,)) is None  # rank 2 has letters 1, 2 only
    # unreduced text leaves the ball on the way and comes back
    assert parse_element(free, "aaaAAAb") == free.index_of_form((2,))
    assert parse_element(free, "abbbBBBa") == free.index_of_form((1, 1))
    with pytest.raises(ConstructionError, match="outside"):
        parse_element(free, "aaaAb")


def test_ball_products_that_leave_the_ball_are_none():
    lat = LatticeBall(2, 3)
    far = lat.index_of_form((2, 1))
    assert lat.mul(far, far) is None
    assert lat.mul(far, lat.index_of_form((-2, 1))) == lat.index_of_form((0, 2))
    free = FreeBall(2, 3)
    w = free.index_of_form((1, 2, 1))
    assert free.mul(w, w) is None
    assert free.mul(w, free.inv(w)) == 0


# ---------------------------------------------------------------- specs

def test_group_spec_round_trip():
    spec = GroupSpec.from_json({"kind": "dihedral", "n": 4})
    assert build_group(spec).order == 8
    assert GroupSpec.from_json(spec.to_json()) == spec


def test_group_spec_rejects_unknown_fields():
    with pytest.raises(ConstructionError):
        GroupSpec.from_json({"kind": "cyclic", "n": 3, "extra": 1})


@pytest.mark.parametrize(
    "table",
    [[[0, 1.7], [1, 0]], [[0, "1"], [1, 0]], [[0, True], [True, 0]], [[0, 1], [1, 0.0]], "01", [[0, 1], 5]],
)
def test_group_spec_table_takes_only_json_integers(table):
    with pytest.raises(ConstructionError, match="rows of JSON integers"):
        GroupSpec.from_json({"kind": "table", "table": table})


def test_build_group_all_kinds():
    assert build_group(GroupSpec.from_json({"kind": "cyclic", "n": 5})).order == 5
    assert build_group(GroupSpec.from_json({"kind": "symmetric", "n": 3})).order == 6
    assert build_group(GroupSpec.from_json({"kind": "quaternion8"})).order == 8
    assert build_group(GroupSpec.from_json({"kind": "lattice", "dim": 2, "radius": 2})).order == 13
    assert build_group(GroupSpec.from_json({"kind": "free", "rank": 2, "radius": 2})).order == 17
    table = [[0, 1], [1, 0]]
    assert build_group(GroupSpec.from_json({"kind": "table", "table": table})).order == 2
    spec = GroupSpec.from_json(
        {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 2}]}
    )
    assert build_group(spec).order == 4


def test_build_group_requires_positive_radius():
    with pytest.raises(ConstructionError):
        build_group(GroupSpec.from_json({"kind": "free", "rank": 2, "radius": 0}))
    # ... but the constructor itself allows a radius-0 ball (empty interior)
    assert FreeBall(2, 0).order == 1


def test_build_group_unknown_kind():
    with pytest.raises(ConstructionError):
        build_group(GroupSpec(kind="octonion"))


# ---------------------------------------------------------------- whole-permutation products

def mul_perms(group, h):
    """(right, left) permutations of h by per-element mul, None as -1."""
    def perm(values):
        return [-1 if x is None else x for x in values]

    elements = group.elements()
    return perm(group.mul(g, h) for g in elements), perm(group.mul(h, g) for g in elements)


def _nested_product():
    inner = ProductGroup([CyclicGroup(2), TableGroup(cayley_table(SymmetricGroup(3)))])
    return ProductGroup([DihedralGroup(2), ProductGroup([inner, QuaternionGroup()])])


PERM_GROUPS = [
    CyclicGroup(1),
    CyclicGroup(9),
    DihedralGroup(1),
    DihedralGroup(6),
    SymmetricGroup(4),
    QuaternionGroup(),
    TableGroup(cayley_table(ProductGroup([QuaternionGroup(), CyclicGroup(3)]))),
    ProductGroup([DihedralGroup(3), CyclicGroup(4)]),
    _nested_product(),
    *[LatticeBall(dim, radius) for dim in (1, 2, 3) for radius in range(5)],
    *[FreeBall(rank, radius) for rank in (1, 2, 3) for radius in range(5)],
]


@pytest.mark.parametrize("group", PERM_GROUPS, ids=lambda g: g.name)
@settings(max_examples=15)
@given(st.data())
def test_whole_permutation_products_match_mul(group, data):
    h = data.draw(st.integers(0, group.order - 1))
    right, left = group.right_perm(h), group.left_perm(h)
    assert right.dtype == left.dtype == np.int64
    assert (right.tolist(), left.tolist()) == mul_perms(group, h)


FINITE_KINDS = [
    CyclicGroup(1),
    CyclicGroup(12),
    DihedralGroup(1),
    DihedralGroup(6),
    *[SymmetricGroup(n) for n in range(1, 7)],
    QuaternionGroup(),
    alternating_group(4),
    ProductGroup([DihedralGroup(3), CyclicGroup(4)]),
    _nested_product(),
]


@pytest.mark.parametrize("group", FINITE_KINDS, ids=lambda g: g.name)
def test_finite_products_read_no_per_element_mul(group, monkeypatch):
    """right_perm, left_perm and the element orders come from each kind's
    elementwise product alone: with mul raising, they equal the per-element
    mul products and the cyclic closure sizes computed before."""
    hs = range(group.order) if group.order <= 120 else random.Random(0).sample(range(group.order), 12)
    expected = [mul_perms(group, h) for h in hs]
    orders = [len(closure(group, [g])) for g in group.elements()]

    def per_element(self, a, b):
        raise AssertionError("called mul")

    for cls in (FiniteGroup, SymmetricGroup):
        monkeypatch.setattr(cls, "mul", per_element)
    assert [(group.right_perm(h).tolist(), group.left_perm(h).tolist()) for h in hs] == expected
    assert group._element_orders().tolist() == orders


@settings(max_examples=2)
@given(st.data())
def test_whole_permutation_products_on_a_ball_too_wide_for_int64_keys(data):
    # a base-(2r+1) integer key of a point of Z^1200 would need 3^1200
    ball = LatticeBall(1200, 1)
    h = data.draw(st.integers(1, ball.order - 1))
    right = [-1 if x is None else x for x in (ball.mul(g, h) for g in ball.elements())]
    assert ball.right_perm(h).tolist() == right == ball.left_perm(h).tolist()  # abelian


@pytest.mark.parametrize("ball", [g for g in PERM_GROUPS if g.is_truncated], ids=lambda g: g.name)
@settings(max_examples=10)
@given(st.data())
def test_ball_parity_matches_form_loop(ball, data):
    axes = ball.family_key()[1]
    forced = data.draw(st.lists(st.integers(0, 1), min_size=axes, max_size=axes))
    if ball.family == "free":
        expected = [sum(forced[abs(x) - 1] for x in form) % 2 for form in reference(ball).forms]
    else:
        expected = [sum(b * abs(x) for b, x in zip(forced, form)) % 2 for form in reference(ball).forms]
    assert ball.parity(np.array(forced)).tolist() == expected


def test_table_group_holds_one_int_array():
    source = ProductGroup([CyclicGroup(2), SymmetricGroup(3)])
    group = TableGroup(cayley_table(source))
    assert group.table.dtype == np.int64
    assert group.table.tolist() == cayley_table(source)
    product = group.mul(3, 4)
    assert type(product) is int and product == source.mul(3, 4)


def test_lattice_ball_near_max_size_steps_off_its_edge():
    radius = 723
    ball = LatticeBall(2, radius)
    assert ball.order == 1_046_905
    h = ball.index_of_form((1, 0))
    [(_, perm)] = ConvolutionOperator(ball, delta(ball, h), "right").stencil()
    # the points (x, y) with x >= 0 and x + |y| = radius step off the edge
    assert np.count_nonzero(perm == -1) == 2 * radius + 1
    for g in random.Random(0).sample(range(ball.order), 2000):
        assert perm[g] == (-1 if ball.mul(g, h) is None else ball.mul(g, h))


def test_free_ball_near_max_size_matches_mul_on_a_sample():
    ball = FreeBall(2, 11)
    assert ball.order == 354_293
    a = ball.index_of_form((1,))
    right, left = ball.right_perm(a), ball.left_perm(a)
    for g in random.Random(0).sample(range(ball.order), 2000):
        assert right[g] == (-1 if ball.mul(g, a) is None else ball.mul(g, a))
        assert left[g] == (-1 if ball.mul(a, g) is None else ball.mul(a, g))


# ---------------------------------------------------------------- one product per kind

def _hamilton(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def _s3_rows():
    """The Cayley table of S3 from composed permutation tuples."""
    perms = list(itertools.permutations(range(3)))
    return [[perms.index(tuple(p[i] for i in q)) for q in perms] for p in perms]


S3_TABLE = TableGroup(_s3_rows(), name="S3table")


def model_product(group, a, b):
    """a*b of two indices in a model of each finite kind that shares no
    arithmetic with the group's own product."""
    if isinstance(group, ProductGroup):  # mixed radix, first factor major
        shape = [f.order for f in group.factors]
        digits = zip(group.factors, np.unravel_index(a, shape), np.unravel_index(b, shape))
        return int(np.ravel_multi_index([model_product(f, int(x), int(y)) for f, x, y in digits], shape))
    if isinstance(group, CyclicGroup):  # rotations of the plane by 2 pi a / n
        turn = cmath.exp(2j * cmath.pi * a / group.n) * cmath.exp(2j * cmath.pi * b / group.n)
        return round(cmath.phase(turn) * group.n / (2 * cmath.pi)) % group.n
    if isinstance(group, DihedralGroup):  # index j + n*k is the map x -> (-1)^k x + j of Z_n
        n = group.n
        (s1, j1), (s2, j2) = (((-1) ** (g // n), g % n) for g in (a, b))

        def composed(x):  # a after b, over the integers
            return s1 * (s2 * x + j2) + j1

        return composed(0) % n + n * (composed(1) < composed(0))
    if isinstance(group, SymmetricGroup):
        p, q = group.perms[a], group.perms[b]
        return group.perms.index(tuple(p[i] for i in q))
    if isinstance(group, QuaternionGroup):  # index 2u + s is (-1)^s times unit u of 1, i, j, k
        units = [tuple((-1) ** (g % 2) * (g // 2 == m) for m in range(4)) for g in (a, b)]
        product = _hamilton(*units)
        u = max(range(4), key=lambda m: abs(product[m]))
        return 2 * u + (product[u] < 0)
    assert group is S3_TABLE
    return _s3_rows()[a][b]


MODEL_GROUPS = [
    CyclicGroup(1),
    CyclicGroup(12),
    CyclicGroup(60000),
    DihedralGroup(1),
    DihedralGroup(2),
    DihedralGroup(7),
    DihedralGroup(30000),
    *[SymmetricGroup(n) for n in range(1, 6)],
    QuaternionGroup(),
    S3_TABLE,
    ProductGroup([DihedralGroup(3), CyclicGroup(4)]),
    ProductGroup([CyclicGroup(16), CyclicGroup(16)]),
    ProductGroup([CyclicGroup(2), ProductGroup([S3_TABLE, QuaternionGroup()]), SymmetricGroup(3)]),
]


@pytest.mark.parametrize("group", MODEL_GROUPS, ids=lambda g: g.name)
@settings(max_examples=20)
@given(st.data())
def test_products_match_an_independent_model(group, data):
    """_products over arrays, an array and one index, and two indices, and
    the scalar mul, all equal the model's products."""
    index = st.integers(0, group.order - 1)
    a, b = (np.array(data.draw(st.lists(index, min_size=1, max_size=8))) for _ in range(2))
    a, b = a[: len(b)], b[: len(a)]
    expected = [model_product(group, int(x), int(y)) for x, y in zip(a, b)]
    assert group._products(a, b).tolist() == expected
    assert group._products(a, int(b[0])).tolist() == [model_product(group, int(x), int(b[0])) for x in a]
    assert group._products(int(a[0]), b).tolist() == [model_product(group, int(a[0]), int(y)) for y in b]
    assert group._products(int(a[0]), int(b[0])) == expected[0]
    product = group.mul(int(a[0]), int(b[0]))
    assert type(product) is int and product == expected[0]


@pytest.mark.parametrize("group", FINITE_KINDS + [S3_TABLE], ids=lambda g: g.name)
def test_scalar_mul_and_inv_read_the_elementwise_product(group):
    """On every pair the scalar mul, S_n's tuple-and-dict path included,
    equals the elementwise product at one index, and inv finds the identity
    in the product's rows."""
    hs = range(group.order) if group.order <= 48 else random.Random(1).sample(range(group.order), 48)
    grid = group._products(np.arange(group.order), np.array(hs)[:, None])
    assert [[group.mul(g, h) for g in group.elements()] for h in hs] == grid.tolist()
    assert [group.inv(h) for h in hs] == np.argmax(grid == group.identity, axis=1).tolist()


def _tuple_alternating_table(n):
    """The A_n table built from permutation tuples, as alternating_group did
    before it ranked the even rows of S_n."""
    perms = []
    for p in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
        if inversions % 2 == 0:
            perms.append(p)
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_alternating_group_matches_the_tuple_construction(n):
    group = alternating_group(n)
    assert group.name == f"A{n}" and group.table.dtype == np.int64
    assert group.table.tolist() == _tuple_alternating_table(n)



def test_alternating_group_table_is_budgeted_before_the_product():
    # A8's composed rows would be 20160 x 20160 x 8 int64 entries, 24 GiB
    with pytest.raises(ConstructionError, match="A8 table's composed rows .* DENSE_BYTES_BUDGET"):
        alternating_group(8)

def test_symmetric_order_bound_stops_multiplying_at_the_bound():
    start = time.perf_counter()
    with pytest.raises(ConstructionError, match=f"exceeds the supported bound {MAX_ORDER}"):
        SymmetricGroup(10**6)
    assert time.perf_counter() - start < 0.1
