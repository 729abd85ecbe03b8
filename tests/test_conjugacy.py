"""Conjugacy classes: closed form vs orbit enumeration, structure constants."""

import sys

import numpy as np
import pytest

import terw.groups
from terw import (
    D2Group,
    GuardExceededError,
    OracleMismatch,
    class_products,
    conjugacy_classes,
    conjugacy_classes_bruteforce,
    dicyclic,
    dihedral,
    g2_group,
    make_abelian,
    make_involution,
)
from terw.conjugacy import COSET, FIXED, PAIRED, structure_tensor

from dense_reference import class_members, structure_constant


def assert_same_classes(a, b, group):
    assert class_members(group, a) == class_members(group, b)
    assert [c.kind for c in a] == [c.kind for c in b]
    assert [c.rep for c in a] == [c.rep for c in b]
    assert np.array_equal(a.labels, b.labels)


def test_s3_classes(s3):
    cl = conjugacy_classes(s3)
    assert cl.counts == (1, 1, 1)
    assert cl.sizes == (1, 2, 3)
    members = class_members(s3, cl)
    assert members[0] == (((0,), 0),)
    assert members[1] == (((1,), 0), ((2,), 0))
    assert set(members[2]) == {((0,), 1), ((1,), 1), ((2,), 1)}
    assert_same_classes(cl, conjugacy_classes_bruteforce(s3), s3)


def test_d4_classes(d4):
    cl = conjugacy_classes(d4)
    assert cl.counts == (2, 1, 2)
    assert cl.sizes == (1, 1, 2, 2, 2)
    # {e}, {a^2}, {a, a^3}, {b, a^2 b}, {a b, a^3 b}
    assert cl[1].rep == ((2,), 0)
    members = class_members(d4, cl)
    assert set(members[3]) == {((0,), 1), ((2,), 1)}
    assert set(members[4]) == {((1,), 1), ((3,), 1)}
    assert_same_classes(cl, conjugacy_classes_bruteforce(d4), d4)


def test_q8_same_shape_as_d4(q8, d4):
    assert conjugacy_classes(q8).sizes == conjugacy_classes(d4).sizes
    assert_same_classes(conjugacy_classes(q8), conjugacy_classes_bruteforce(q8), q8)


def test_sd16_classes(sd16):
    cl = conjugacy_classes(sd16)
    assert cl.counts == (2, 3, 2)
    assert cl.sizes == (1, 1, 2, 2, 2, 4, 4)
    assert_same_classes(cl, conjugacy_classes_bruteforce(sd16), sd16)


def test_class_equation_shape():
    for group in [
        dihedral([(2, 1), (3, 1)]),
        dihedral([(3, 2)]),
        g2_group(12, 5, 0),
        D2Group(
            make_abelian([(2, 2), (3, 1)]),
            make_involution(make_abelian([(2, 2), (3, 1)]), [3, 1]),
            [0, 0],
        ),
    ]:
        cl = conjugacy_classes(group)
        n, d = group.n, group.d
        assert cl.counts == (d, (n - d) // 2, d)
        assert sum(cl.sizes) == group.order
        assert sorted(cl.sizes) == sorted(
            [1] * d + [2] * ((n - d) // 2) + [n // d] * d
        )
        assert_same_classes(cl, conjugacy_classes_bruteforce(group), group)


def test_class_kinds_and_invariants(sd16):
    cl = conjugacy_classes(sd16)
    members = class_members(sd16, cl)
    fx = sd16.fixed
    for c in cl:
        if c.kind == FIXED:
            assert c.size == 1
            assert all(t % n == 0 for t, n in zip(c.rep[0], fx.n_vec))
        elif c.kind == PAIRED:
            assert c.size == 2
            a = c.rep[0]
            assert not all(t % n == 0 for t, n in zip(a, fx.n_vec))
            assert set(members[c.index]) == {(a, 0), (sd16.twist.apply(a), 0)}
        else:
            assert c.kind == COSET
            assert c.size == sd16.n // sd16.d


def test_identity_class_is_first(s3, d4, q8, sd16):
    for group in (s3, d4, q8, sd16):
        cl = conjugacy_classes(group)
        assert class_members(group, cl)[0] == (group.identity,)
        assert cl.labels[group.index(group.identity)] == 0


def test_class_of_lookup(s3, d4):
    cl3 = conjugacy_classes(s3)
    assert cl3.labels[s3.index(((2,), 0))] == 1
    cl4 = conjugacy_classes(d4)
    assert cl4.labels[d4.index(((3,), 1))] == 4


def test_bruteforce_conjugates_by_the_generators_only(monkeypatch):
    # the oracle stays independent of the tables: it composes the right
    # translations by the k generators, one call of group.mul per generator
    # and coset on coordinate arrays and one of group.inv per coset
    group = dicyclic([(3, 1), (2, 3)], [0, 4])
    expected = conjugacy_classes(group)

    def no_tables(group):
        raise RuntimeError("the brute-force oracle read the tables")

    real = terw.groups.index_tables
    for name, module in list(sys.modules.items()):
        if name.startswith("terw") and getattr(module, "index_tables", None) is real:
            monkeypatch.setattr(module, "index_tables", no_tables)
    calls = dict.fromkeys(("mul", "inv"), 0)

    def counted(name):
        method = getattr(group, name)

        def counting(*args):
            calls[name] += 1
            return method(*args)

        return counting

    for name in calls:
        monkeypatch.setattr(group, name, counted(name))
    assert_same_classes(conjugacy_classes_bruteforce(group), expected, group)
    assert calls == {"mul": 2 * len(group.generators()), "inv": 2}


def test_closed_form_indexes_no_element(monkeypatch):
    # the closed form computes the class minima over the coordinates of A,
    # and the class list the representatives from their indices in one
    # call, not element by element
    group = g2_group(32, 31, 16)  # Dic(C32), |G| = 64, fresh
    calls = dict.fromkeys(("index", "elements", "elements_at"), 0)

    def counted(name):
        method = getattr(D2Group, name)

        def counting(self, *args):
            calls[name] += 1
            return method(self, *args)

        return counting

    for name in calls:
        monkeypatch.setattr(D2Group, name, counted(name))
    classes = conjugacy_classes(group)
    assert calls == {"index": 0, "elements": 0, "elements_at": 1}
    elems = list(group.elements())
    assert [c.rep for c in classes] == [elems[r] for r in classes.reps]


def test_structure_tensor_makes_one_product_per_generator_and_element(monkeypatch):
    # the structure constants compose the generator translations: 2k calls
    # of group.mul on coordinate arrays, one per generator and coset, not
    # one per class and element
    group = dihedral([(2, 5)])  # Dih(C32), fresh, so that nothing is built yet
    calls = 0
    mul = group.mul

    def counting(g, h):
        nonlocal calls
        calls += 1
        return mul(g, h)

    monkeypatch.setattr(group, "mul", counting)
    structure_tensor(group)
    assert calls == 2 * len(group.generators())


def test_guard_exceeded():
    group = dihedral([(2, 2), (3, 2)])  # order 72
    with pytest.raises(GuardExceededError):
        conjugacy_classes_bruteforce(group, guard=64)


def test_structure_constants_s3(s3):
    cl = conjugacy_classes(s3)
    # z, z' in {a, a^2} with z z' = e: exactly (a, a^2) and (a^2, a)
    assert structure_constant(s3, 1, 1, 0) == 2
    for j in range(3):
        for k in range(3):
            assert structure_constant(s3, 0, j, k) == (1 if j == k else 0)


def test_structure_constants_d4(d4):
    cl = conjugacy_classes(d4)
    assert structure_constant(d4, 3, 3, 0) == 2  # b^2 = (a^2 b)^2 = e


def test_structure_constant_rep_independent(sd16, q8):
    for group in (sd16, q8):
        cl = conjugacy_classes(group)
        members = class_members(group, cl)
        ell = len(cl)
        for i in range(ell):
            for j in range(ell):
                for k in range(ell):
                    vals = set()
                    for y in members[k]:
                        count = sum(
                            1
                            for z in members[i]
                            if cl.labels[group.index(group.mul(y, group.inv(z)))] == j
                        )
                        vals.add(count)
                    assert len(vals) == 1


def test_class_products_s3(s3):
    cl = conjugacy_classes(s3)
    assert class_products(s3, 1, 1) == {0, 1}
    assert class_products(s3, 2, 2) == {0, 1}
    assert class_products(s3, 1, 2) == {2}


def test_triple_count_equals_nonzero_structure_constants(d4, sd16):
    for group in (d4, sd16):
        cl = conjugacy_classes(group)
        ell = len(cl)
        triples = sum(
            len(class_products(group, i, j)) for i in range(ell) for j in range(ell)
        )
        nonzero = sum(
            1
            for i in range(ell)
            for j in range(ell)
            for k in range(ell)
            if structure_constant(group, i, j, k) != 0
        )
        assert triples == nonzero


def test_paired_product_distinctness(sd16):
    # products of two paired classes split into exactly two distinct classes
    group = sd16
    cl = conjugacy_classes(group)
    paired = [c for c in cl if c.kind == PAIRED]
    for u in paired:
        for v in paired:
            y_r, y_j = u.rep[0], v.rep[0]
            one = cl.labels[group.index((group.abelian.mul(y_r, y_j), 0))]
            other = cl.labels[group.index((group.abelian.mul(y_r, group.twist.apply(y_j)), 0))]
            assert one != other
            assert class_products(group, u.index, v.index) == {one, other}


def test_coset_products_partition_abelian_part(sd16, d4):
    for group in (sd16, d4):
        cl = conjugacy_classes(group)
        members = class_members(group, cl)
        cosets = [c for c in cl if c.kind == COSET]
        abelian_classes = {c.index for c in cl if c.kind != COSET}
        for r in cosets:
            seen: set = set()
            covered = set()
            for j in cosets:
                prod = {
                    group.mul(u, v) for u in members[r.index] for v in members[j.index]
                }
                assert not (seen & prod)
                seen |= prod
                covered |= class_products(group, r.index, j.index)
            assert len(seen) == group.n
            assert covered == abelian_classes


def test_structure_tensor_needs_generators_that_reach_every_class():
    group = dihedral([(2, 3)])  # fresh, so that nothing is built yet
    without_b = group.generators()[:-1]
    group.generators = lambda: without_b
    with pytest.raises(OracleMismatch, match="do not reach every class representative"):
        structure_tensor(group)
