"""The cached dense tables and the gathers built on them, against loops over
``group.mul`` and ``group.inv``."""

import os
import subprocess
import sys

import numpy as np
import pytest

from terw import conjugacy_classes, dicyclic, dihedral, dim_t0, g2_group
from terw.conjugacy import class_index_table, class_products
from terw.groups import centralizer_sizes, conjugation_table, index_tables
from terw.instances import random_general_instances


def loop_tables(group):
    elems = list(group.elements())
    mult = np.array([[group.index(group.mul(g, h)) for h in elems] for g in elems])
    inv = np.array([group.index(group.inv(g)) for g in elems])
    return mult, inv


def loop_class_index_table(group, classes):
    elems = list(group.elements())
    return np.array(
        [[classes.index_of(group.mul(y, group.inv(x))) for y in elems] for x in elems]
    )


def loop_triple_count(group, classes):
    return sum(
        len({classes.index_of(group.mul(u, v)) for u in ci.elements for v in cj.elements})
        for ci in classes
        for cj in classes
    )


NAMED = [
    dihedral([(3, 1)]),
    dihedral([(2, 2), (3, 1), (5, 1)]),
    dicyclic([(2, 2)], [2]),
    dicyclic([(3, 1), (2, 3)], [0, 4]),
    g2_group(8, 3, 0),
    g2_group(16, 7, 8),
    g2_group(192, 191, 96),  # Dic(C64 x C3), |G| = 384
]


@pytest.mark.parametrize("group", NAMED, ids=lambda g: g.name)
def test_tables_match_loop_on_named_families(group):
    mult, inv = index_tables(group)
    ref_mult, ref_inv = loop_tables(group)
    assert mult.dtype == inv.dtype == np.int32
    assert np.array_equal(mult, ref_mult)
    assert np.array_equal(inv, ref_inv)


def test_tables_match_loop_on_seeded_general_groups():
    groups = random_general_instances(8, max_group_order=384, seed=11)
    assert any(any(g.square) for g in groups)
    assert any(g.abelian.rank > 1 for g in groups)
    assert max(g.order for g in groups) > 192
    for group in groups:
        mult, inv = index_tables(group)
        ref_mult, ref_inv = loop_tables(group)
        assert np.array_equal(mult, ref_mult), group.name
        assert np.array_equal(inv, ref_inv), group.name


SMALL = [dihedral([(3, 1)]), dicyclic([(2, 2)], [2]), g2_group(8, 3, 0)] + random_general_instances(
    3, max_group_order=48, seed=5
)


@pytest.mark.parametrize("group", SMALL, ids=lambda g: g.name)
def test_gathers_match_loops(group):
    classes = conjugacy_classes(group)
    assert np.array_equal(class_index_table(group, classes), loop_class_index_table(group, classes))
    assert dim_t0(group, classes) == loop_triple_count(group, classes)
    elems = list(group.elements())
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            expected = {classes.index_of(group.mul(u, v)) for u in ci.elements for v in cj.elements}
            assert class_products(group, classes, i, j) == expected
    conj = [[group.index(group.conjugate(x, g)) for x in elems] for g in elems]
    assert np.array_equal(conjugation_table(group), conj)
    gens = np.array([5, 0, group.order - 1])
    assert np.array_equal(conjugation_table(group, gens), np.array(conj)[gens])
    commuting = [sum(group.mul(g, h) == group.mul(h, g) for h in elems) for g in elems]
    assert np.array_equal(centralizer_sizes(group), commuting)


def test_tables_are_built_once_and_read_only():
    group = g2_group(16, 7, 8)
    mult, inv = index_tables(group)
    again = index_tables(group)
    assert again[0] is mult and again[1] is inv
    assert centralizer_sizes(group) is centralizer_sizes(group)
    classes = conjugacy_classes(group)
    assert classes.labels is classes.labels
    for arr in (mult, inv, centralizer_sizes(group), classes.labels):
        with pytest.raises(ValueError):
            arr[0] = 1
    # a fresh group of the same shape builds its own tables
    assert index_tables(g2_group(16, 7, 8))[0] is not mult


def test_invariant_fires_under_optimize():
    # n and d always share parity; a stand-in with n = 3, d = 2 breaks it
    code = (
        "from types import SimpleNamespace\n"
        "from terw import ParityFailure, dim_closed_form\n"
        "try:\n"
        "    dim_closed_form(SimpleNamespace(n=3, d=2))\n"
        "except ParityFailure as exc:\n"
        "    print('raised', exc)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)},
    )
    assert out.stdout.startswith("raised"), out.stderr
