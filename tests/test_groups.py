import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupwalk.groups import (
    ConstructionError,
    CyclicGroup,
    DihedralGroup,
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


# ---------------------------------------------------------------- oracles

def reduced_words(rank, radius):
    """Independent enumeration of reduced words: BFS that never appends the
    inverse of the last letter."""
    letters = []
    for i in range(1, rank + 1):
        letters += [i, -i]
    words = [()]
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for letter in letters:
                if w and w[-1] == -letter:
                    continue
                nxt.append(w + (letter,))
        words += nxt
        frontier = nxt
    return words


def lattice_points(dim, radius):
    box = range(-radius, radius + 1)
    return [p for p in itertools.product(box, repeat=dim) if sum(abs(x) for x in p) <= radius]


# ---------------------------------------------------------------- finite groups

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
                        ProductGroup([CyclicGroup(2), CyclicGroup(4), CyclicGroup(3)])]))
def test_generating_set_generates_without_redundancy(group):
    gens = generating_set(group)
    assert closure(group, gens) == list(group.elements())
    for i, g in enumerate(gens):
        assert g not in closure(group, gens[:i]) and g != group.identity


# ---------------------------------------------------------------- ball truncations

def test_free_ball_counts_match_word_enumeration():
    for rank, radius in ((1, 4), (2, 2), (2, 3), (3, 2)):
        ball = FreeBall(rank, radius)
        words = reduced_words(rank, radius)
        assert ball.order == len(words)
        assert set(ball.forms) == set(words)


def test_free_ball_f2_r2_is_17():
    assert FreeBall(2, 2).order == 17


def test_free_ball_f2_r6_is_1457():
    ball = FreeBall(2, 6)
    assert ball.order == 1457
    # interior = radius 5 ball
    assert sum(1 for w in ball.forms if len(w) <= 5) == 485


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
        assert set(ball.forms) == set(pts)
    assert LatticeBall(1, 50).order == 101


def test_lattice_ball_high_dimension_builds_without_recursion():
    # one point at the origin and two per axis at radius 1
    ball = LatticeBall(1200, 1)
    assert ball.order == 2401
    assert ball.canonical_form(0) == (0,) * 1200
    with pytest.raises(ConstructionError, match="exceeds"):
        LatticeBall(1200, 3)


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


# ---------------------------------------------------------------- specs

def test_group_spec_round_trip():
    spec = GroupSpec.from_json({"kind": "dihedral", "n": 4})
    assert build_group(spec).order == 8
    assert GroupSpec.from_json(spec.to_json()) == spec


def test_group_spec_rejects_unknown_fields():
    with pytest.raises(ConstructionError):
        GroupSpec.from_json({"kind": "cyclic", "n": 3, "extra": 1})


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
