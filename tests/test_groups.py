"""Normal-form arithmetic of the index-2 extensions and the named families."""

import random
import tracemalloc
from itertools import product

import pytest
from dense_reference import conjugate
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from terw import (
    BadDicyclicYError,
    BadG2ParamsError,
    D2Group,
    InvalidGroupError,
    NonUniqueInvolutionWarning,
    YNotFixedError,
    dicyclic,
    dihedral,
    g2_group,
    general,
    make_abelian,
    make_involution,
)
from terw.groups import conjugations, index_tables, inverses, orbit_minima


def element_order(group, g):
    k, x = 1, g
    while x != group.identity:
        x, k = group.mul(x, g), k + 1
    return k


def check_group_axioms(group, max_triples=10_000, seed=3):
    elems = list(group.elements())
    e = group.identity
    for g in elems:
        assert group.mul(g, group.inv(g)) == e
        assert group.mul(group.inv(g), g) == e
        assert group.mul(g, e) == g == group.mul(e, g)
    n = len(elems)
    if n**3 <= max_triples:
        triples = product(elems, repeat=3)
    else:
        rng = random.Random(seed)
        triples = (
            (rng.choice(elems), rng.choice(elems), rng.choice(elems))
            for _ in range(max_triples)
        )
    for a, b, c in triples:
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))


def test_d4_is_a_group(d4):
    assert d4.order == 8
    check_group_axioms(d4)


def test_q8_structure(q8):
    # b^2 = y = a^2, non-central elements all have order 4
    assert q8.order == 8
    check_group_axioms(q8)
    b = ((0,), 1)
    assert q8.mul(b, b) == ((2,), 0)
    orders = sorted(element_order(q8, g) for g in q8.elements())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_dihedral_reflection_involutions(d4):
    for a in d4.abelian.elements():
        g = (a, 1)
        assert d4.mul(g, g) == d4.identity


def test_y_not_fixed_rejected():
    c4 = make_abelian([(2, 2)])
    f = make_involution(c4, [3])
    # f(1) = 3 != 1
    with pytest.raises(YNotFixedError):
        D2Group(c4, f, [1])
    # but the actual fixed points are fine
    D2Group(c4, f, [0])
    D2Group(c4, f, [2])


def test_b_squared_equals_y():
    g = g2_group(8, 3, 4)
    b = (g.abelian.identity, 1)
    assert g.mul(b, b) == (g.square, 0)


def test_conjugation_by_b_is_twist():
    g = g2_group(8, 3, 0)
    b = (g.abelian.identity, 1)
    for a in g.abelian.elements():
        assert conjugate(g, (a, 0), b) == (g.twist.apply(a), 0)


def test_abelian_subgroup_has_index_two(sd16):
    elems = [g for g in sd16.elements() if g[1] == 0]
    assert len(elems) == sd16.order // 2
    for x in elems:
        for y in elems:
            assert sd16.mul(x, y) == sd16.mul(y, x)


def test_dihedral_s3_parameters(s3):
    assert s3.order == 6
    assert s3.d == 1  # 2^lambda with lambda = 0
    assert s3.abelian.lam == 0


def test_dihedral_d_is_power_of_two():
    for factors in [[(2, 2)], [(2, 2), (3, 1)], [(2, 1), (2, 2)], [(5, 1)], [(3, 2)]]:
        g = dihedral(factors)
        assert g.d == 2**g.abelian.lam


def test_dicyclic_d_is_two(q8):
    assert q8.d == 2
    g = dicyclic([(2, 3), (3, 1)], [4, 0])
    assert g.d == 2


def test_dicyclic_rejects_bad_y():
    with pytest.raises(BadDicyclicYError):
        dicyclic([(2, 2)], [1])
    with pytest.raises(BadDicyclicYError):
        dicyclic([(2, 2)], [0])


def test_general_vectors_follow_the_given_factor_order():
    # s and y list C3 first; the group stores C4 first, and the vectors move with it
    given = general([(3, 1), (2, 2)], [1, 3], [0, 2])
    canonical = general([(2, 2), (3, 1)], [3, 1], [2, 0])
    assert given.name == canonical.name == "D2(C4 x C3; s=[3, 1]; y=[2, 0])"
    for tables in (index_tables, inverses):
        np.testing.assert_array_equal(tables(given), tables(canonical))
    assert general([(3, 1), (2, 2)], [2, 3]).square == (0, 0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: general([(3, 1), (2, 2)], [2]), "--s needs 2 coordinates"),
        (lambda: general([(3, 1), (2, 2)], [2, 3], [0]), "--y needs 2 coordinates"),
        (lambda: dicyclic([(2, 2)], [2, 0]), "--y needs 1 coordinates"),
    ],
)
def test_wrong_length_vector_is_invalid(build, message):
    with pytest.raises(InvalidGroupError, match=f"^{message}$"):
        build()


def test_dicyclic_warns_on_non_unique_involution():
    with pytest.warns(NonUniqueInvolutionWarning):
        dicyclic([(2, 2), (2, 1)], [2, 0])


def test_g2_semidihedral(sd16):
    assert sd16.order == 16
    assert sd16.d == 2
    check_group_axioms(sd16)
    # <a> really is cyclic of order 8: the CRT all-ones vector generates
    a = (tuple(1 for _ in sd16.abelian.moduli), 0)
    assert element_order(sd16, a) == 8


def test_g2_crt_coordinates():
    g = g2_group(12, 5, 0)
    a = (tuple(1 for _ in g.abelian.moduli), 0)
    assert element_order(g, a) == 12
    check_group_axioms(g)


def test_g2_rejects_bad_params():
    with pytest.raises(BadG2ParamsError):
        g2_group(8, 2, 0)  # gcd(2, 8) != 1
    with pytest.raises(BadG2ParamsError):
        g2_group(8, 1, 0)  # identity twist
    with pytest.raises(BadG2ParamsError):
        g2_group(8, 5, 1)  # t(s-1) = 4 != 0 mod 8
    with pytest.raises(BadG2ParamsError):
        g2_group(12, 7, 3)  # 7^2 = 49 = 1 mod 12, but t(s-1) = 18 != 0 mod 12


def test_g2_accepts_all_valid_squares():
    # n=8, s=3: t(s-1) = 2t = 0 mod 8 for t in {0, 4}
    g2_group(8, 3, 0)
    g2_group(8, 3, 4)
    with pytest.raises(BadG2ParamsError):
        g2_group(8, 3, 2)


def test_element_enumeration_roundtrip(sd16):
    elems = list(sd16.elements())
    for i, g in enumerate(elems):
        assert sd16.index(g) == i
    indices = np.arange(sd16.order)
    assert sd16.elements_at(indices) == elems
    assert sd16.elements_at(indices[::-3]) == elems[::-3]


def test_group_axioms_random_general():
    rng = random.Random(11)
    g = D2Group(
        make_abelian([(2, 2), (3, 1)]),
        make_involution(make_abelian([(2, 2), (3, 1)]), [3, 2]),
        [2, 0],
    )
    assert g.order == 24
    check_group_axioms(g, max_triples=5000, seed=rng.randrange(100))


def test_group_axioms_across_families():
    # exhaustive associativity up to order 32, sampled (>= 10^4 triples) above
    from terw.instances import (
        dicyclic_instances,
        dihedral_instances,
        g2_instances,
        random_general_instances,
    )

    groups = (
        dihedral_instances(range(3, 13))
        + dicyclic_instances([4, 8, 12])
        + g2_instances(12)
        + random_general_instances(5, 48, seed=99)
    )
    assert len(groups) > 40
    for g in groups:
        check_group_axioms(g, max_triples=10_000, seed=g.order)
        # conjugation by b acts as the twist on the abelian part
        b = (g.abelian.identity, 1)
        for a in g.abelian.elements():
            assert conjugate(g, (a, 0), b) == (g.twist.apply(a), 0)
        assert g.mul(b, b) == (g.square, 0)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40).flatmap(
        lambda size: st.lists(st.permutations(range(size)), min_size=1, max_size=3)
    )
)
def test_orbit_minima_match_a_search(perms):
    # each point's orbit by breadth-first search along the permutations
    expected = []
    for x in range(len(perms[0])):
        orbit, frontier = {x}, [x]
        while frontier:
            frontier = {p[y] for y in frontier for p in perms} - orbit
            orbit.update(frontier)
        expected.append(min(orbit))
    assert orbit_minima([np.array(p) for p in perms]).tolist() == expected


def test_orbit_minima_peak_memory():
    # a hook round keeps the root array, the moved roots a and b and the
    # larger of each pair alive, at most four root-sized arrays; holding the
    # image and the mask as well, or the last jumped copy of the roots
    # into the next round, passes that
    group = dihedral([(2, 8)])  # |G| = 512: 262144 pairs
    order = group.order
    perms = [(p[:, None] * order + p).ravel() for p in conjugations(group)]
    tracemalloc.start()
    try:
        root = orbit_minima(perms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(root[np.concatenate(perms)], np.tile(root, len(perms)))
    assert peak < 4.5 * root.nbytes
