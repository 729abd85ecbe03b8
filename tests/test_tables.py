"""The cached dense tables and the gathers built on them, against loops over
``group.mul`` and ``group.inv``; every per-group artefact is built once."""

import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from contextlib import redirect_stdout

import numpy as np
import pytest
from dense_reference import (
    centralizer_sizes,
    class_members,
    conjugate,
    elementwise_translations,
    enumerated_conjugacy_classes,
    min_propagation_orbitals,
)

from terw import (
    character_labels,
    character_table,
    conjugacy_classes,
    conjugacy_classes_bruteforce,
    conjugation_orbitals,
    dicyclic,
    dihedral,
    dim_t0,
    g2_group,
    multiplicities_closed_form,
    multiplicities_inner_product,
    verify_central_idempotents,
    verify_orthogonality,
    verify_scheme_axioms,
)
import terw.groups
from terw.cli import main
from terw.closure import conjugation_certificate, scatter_index
from terw.conjugacy import (
    class_index_table,
    class_products,
    rep_products,
    structure_tensor,
)
from terw.groups import (
    conjugation_minima, conjugations, index_tables, inverses, translations
)
from terw.instances import random_general_instances


def loop_tables(group):
    elems = list(group.elements())
    mult = np.array([[group.index(group.mul(g, h)) for h in elems] for g in elems])
    inv = np.array([group.index(group.inv(g)) for g in elems])
    return mult, inv


def loop_class_index_table(group, classes):
    elems = list(group.elements())
    return np.array(
        [[classes.labels[group.index(group.mul(y, group.inv(x)))] for y in elems] for x in elems]
    )


def loop_triple_count(group, classes):
    members = class_members(group, classes)
    return sum(
        len({classes.labels[group.index(group.mul(u, v))] for u in ci for v in cj})
        for ci in members
        for cj in members
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
    mult, inv = index_tables(group), inverses(group)
    ref_mult, ref_inv = loop_tables(group)
    assert mult.dtype == inv.dtype == np.int32
    assert np.array_equal(mult, ref_mult)
    assert np.array_equal(inv, ref_inv)


@pytest.mark.parametrize("group", NAMED, ids=lambda g: g.name)
def test_class_reps_are_the_representatives_indices(group):
    for classes in (conjugacy_classes(group), conjugacy_classes_bruteforce(group, guard=384)):
        assert not classes.reps.flags.writeable
        assert classes.reps.tolist() == [group.index(c.rep) for c in classes]


def test_products_over_index_sets_are_the_table_block():
    group = g2_group(16, 7, 8)
    mult = index_tables(group)
    left, right = np.array([0, 3, 5, 17, 20]), np.array([31, 2, 16, 2])  # any right order
    block = index_tables(group, left, right)
    assert block.dtype == np.int32 and not block.flags.writeable
    assert np.array_equal(block, mult[np.ix_(left, right)])
    with pytest.raises(ValueError, match="lists a coset element before an element of A"):
        index_tables(group, np.array([17, 3]), right)


SEEDED_TRANSLATED = random_general_instances(8, 256, seed=3701)
LARGE_TRANSLATED = dicyclic([(2, 4), (3, 2), (5, 1)], [8, 0, 0])  # |G| = 1440
TRANSLATED = [
    dihedral([(3, 1)]),
    dihedral([(2, 2)]),
    dicyclic([(2, 2)], [2]),
    g2_group(8, 3, 0),
    g2_group(16, 7, 8),
    dicyclic([(2, 3), (3, 1)], [4, 0]),
    *SEEDED_TRANSLATED,
    LARGE_TRANSLATED,
]


def test_translation_cases_cover_a_square_three_factors_and_a_large_group():
    assert any(any(g.square) for g in SEEDED_TRANSLATED)
    assert any(g.abelian.rank == 3 for g in SEEDED_TRANSLATED)
    assert LARGE_TRANSLATED.order > 1024


@pytest.mark.parametrize("group", TRANSLATED, ids=lambda g: g.name)
def test_translations_are_the_elementwise_reference(group):
    # one group.mul per generator and coset on coordinate arrays gives the
    # same int32 indices, in the same element order, as one per element
    rho, iota = translations(group)
    ref_rho, ref_iota = elementwise_translations(group)
    assert rho.dtype == iota.dtype == np.int32
    assert not rho.flags.writeable and not iota.flags.writeable
    assert np.array_equal(rho, ref_rho) and np.array_equal(iota, ref_iota)


CENTRALIZER_GROUPS = NAMED + [
    g for g in random_general_instances(12, max_group_order=256, seed=2101) if any(g.square)
]


@pytest.mark.parametrize("group", CENTRALIZER_GROUPS, ids=lambda g: g.name)
def test_rep_products_are_the_table_rows_at_the_representatives(group):
    mult = index_tables(group)
    reps = conjugacy_classes(group).reps
    rows, orders = rep_products(group)
    assert rows.dtype == np.int32 and np.array_equal(rows, mult[reps])
    assert np.array_equal(orders, centralizer_sizes(group)[reps])


def test_rep_products_peak_at_what_they_keep():
    # the rows and the columns v r_k go in blocks of 2^17 products: beside
    # the kept rows, at most two int32 blocks and their comparison are alive,
    # where the whole (|G|, l) columns and their temporary were 2x the rows
    group = dihedral([(2, 10)])  # Dih(C1024), |G| = 2048, l = 515, nine blocks of 64
    conjugacy_classes(group)  # per-group artefacts, built before tracing
    tracemalloc.start()
    try:
        rows, orders = rep_products(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows.nbytes + orders.nbytes + 4 * (1 << 17) * 4
    reps = conjugacy_classes(group).reps
    assert np.array_equal(rows, index_tables(group)[reps])
    assert np.array_equal(orders, centralizer_sizes(group)[reps])


def test_index_tables_peak_at_what_they_keep():
    # the rows go in chunks of about 2^16 cells, each coordinate summed into
    # one int32 chunk, where one int32 temporary the size of the block was
    # alive beside it
    group = dihedral([(2, 10)])  # Dih(C1024), |G| = 2048, a 16 MiB block
    left = inverses(group)
    tracemalloc.start()
    try:
        block = index_tables(group, left, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= block.nbytes + (1 << 20)
    mult = index_tables(group)
    assert np.array_equal(block, mult[left])


def test_class_index_table_peaks_below_three_squares_and_is_c_contiguous():
    # one int32 block with the inverses on the left and its temporary, then
    # the labels gathered from it, where the kept square, its columns at the
    # inverses and their labels were three; the same values read off a
    # transposed block would be in Fortran order, which slows the row scans
    group = dihedral([(2, 9)])  # Dih(C512), |G| = 1024
    conjugacy_classes(group)  # per-group artefacts, built before tracing
    tracemalloc.start()
    try:
        table = class_index_table(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * group.order**2 * 4
    assert table.flags.c_contiguous


def test_seeded_centralizer_groups_have_a_square_and_go_above_128():
    seeded = CENTRALIZER_GROUPS[len(NAMED):]
    assert len(seeded) >= 4 and all(any(g.square) for g in seeded)
    assert max(g.order for g in seeded) > 128


def test_tables_match_loop_on_seeded_general_groups():
    groups = random_general_instances(8, max_group_order=384, seed=11)
    assert any(any(g.square) for g in groups)
    assert any(g.abelian.rank > 1 for g in groups)
    assert max(g.order for g in groups) > 192
    for group in groups:
        mult, inv = index_tables(group), inverses(group)
        ref_mult, ref_inv = loop_tables(group)
        assert np.array_equal(mult, ref_mult), group.name
        assert np.array_equal(inv, ref_inv), group.name


SMALL = [dihedral([(3, 1)]), dicyclic([(2, 2)], [2]), g2_group(8, 3, 0)] + random_general_instances(
    3, max_group_order=48, seed=5
)


@pytest.mark.parametrize("group", SMALL, ids=lambda g: g.name)
def test_gathers_match_loops(group):
    classes = conjugacy_classes(group)
    assert np.array_equal(class_index_table(group), loop_class_index_table(group, classes))
    assert dim_t0(group) == loop_triple_count(group, classes)
    elems = list(group.elements())
    members = class_members(group, classes)
    for i, ci in enumerate(members):
        for j, cj in enumerate(members):
            expected = {
                classes.labels[group.index(group.mul(u, v))]
                for u in ci
                for v in cj
            }
            assert class_products(group, i, j) == expected
    conj = [[group.index(conjugate(group, x, g)) for x in elems] for g in elems]
    # row s of the generator conjugations is x -> s^-1 x s, row s^-1 of conj
    gen_inverses = [group.index(group.inv(s)) for s in group.generators()]
    assert np.array_equal(conjugations(group), np.array(conj)[gen_inverses])
    commuting = [sum(group.mul(g, h) == group.mul(h, g) for h in elems) for g in elems]
    assert np.array_equal(centralizer_sizes(group), commuting)


REFERENCE_GROUPS = [
    dicyclic([(3, 1), (2, 3)], [0, 4]),
    g2_group(16, 7, 8),
    *random_general_instances(12, max_group_order=128, seed=1111),
]


def test_orbit_labelling_matches_the_references(s3, d4, q8, sd16):
    # union-find over the generators against min-propagation and against
    # conjugation by every element
    groups = [s3, d4, q8, sd16, *REFERENCE_GROUPS]
    assert any(g.abelian.rank >= 2 for g in groups)
    assert max(g.order for g in groups) > 96
    for group in groups:
        orb, ref = conjugation_orbitals(group), min_propagation_orbitals(group)
        assert orb.count == ref.count and np.array_equal(orb.reps, ref.reps), group.name
        assert orb.reps.dtype == np.int32 and orb.reps.shape == (2, orb.count)
        assert orb.labels.dtype == np.int32 and not orb.labels.flags.writeable
        assert np.array_equal(orb.labels, ref.labels), group.name
        classes = conjugacy_classes_bruteforce(group, guard=128)
        ref_classes = enumerated_conjugacy_classes(group)
        assert classes.classes == ref_classes.classes, group.name
        assert np.array_equal(classes.labels, ref_classes.labels), group.name


def test_tables_are_built_once_and_read_only():
    group = g2_group(16, 7, 8)
    mult, inv = index_tables(group), inverses(group)
    for build in CACHED:
        assert build(group) is build(group), build.__name__
    classes = conjugacy_classes(group)
    assert classes.labels is classes.labels
    table = character_table(group)
    assert table.classes is classes
    orb = conjugation_orbitals(group)
    arrays = (
        mult, inv, *rep_products(group), classes.labels, classes.reps,
        class_index_table(group), table.exponents, table.coefficients,
        orb.labels, orb.reps, conjugations(group), *structure_tensor(group), *translations(group),
        scatter_index(group).targets, scatter_index(group).indptr, conjugation_minima(group),
    )
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 1
    with pytest.raises(TypeError):
        table.labels[0] = None


CACHED = [
    rep_products, conjugacy_classes, class_index_table, character_labels,
    character_table, conjugations, conjugation_orbitals, structure_tensor, translations,
    scatter_index, conjugation_minima, conjugation_certificate,
]


def test_a_dropped_group_is_freed_with_its_artefacts():
    # the group keeps its artefacts and none of them keeps the group, so
    # reference counting frees them all, without waiting for the collector
    group = g2_group(16, 7, 8)
    for build in CACHED:
        build(group)
    ref = weakref.ref(group)
    gc.disable()
    try:
        del group
        assert ref() is None
    finally:
        gc.enable()


@pytest.fixture
def builds(monkeypatch):
    """Builds of each cached artefact, counted by name, and the blocks that
    ``index_tables`` builds, as "index_tables_part"."""
    counts = dict.fromkeys((build.__name__ for build in CACHED), 0)
    for cached in CACHED:
        build = cached.__wrapped__

        def counted(group, build=build):
            counts[build.__name__] += 1
            return build(group)

        monkeypatch.setattr(cached, "__wrapped__", counted)
    counts["index_tables_part"] = 0
    real = terw.groups.index_tables

    def parts_counted(group, left=None, right=None):
        counts["index_tables_part"] += 1
        return real(group, left, right)

    for name, module in list(sys.modules.items()):
        if name.startswith("terw") and getattr(module, "index_tables", None) is real:
            monkeypatch.setattr(module, "index_tables", parts_counted)
    return counts


def test_sweep_builds_each_row_once(builds):
    assert main(["sweep", "--kind", "dihedral", "--range", "3:12"]) == 0
    # ten rows, each through the dimensions and wedderburn checks
    assert builds["conjugacy_classes"] == builds["character_table"] == 10
    assert builds["rep_products"] == 10
    # two blocks of rep_products and one of the class-index table per row
    assert builds["index_tables_part"] == 30


def test_verify_builds_each_artefact_once(builds, capsys):
    assert main(["verify", "--kind", "dihedral", "--factors", "2^5"]) == 0
    capsys.readouterr()
    # each artefact once, the two blocks of rep_products and the block of
    # the class-index table; the full closure forms no product, so it builds
    # no scatter index
    assert builds == {**dict.fromkeys(builds, 1), "index_tables_part": 3, "scatter_index": 0}


def test_enumeration_limit_is_checked_before_any_work(builds, capsys, monkeypatch):
    import terw.scheme

    monkeypatch.setattr(terw.scheme, "ENUMERATION_LIMIT", 9)
    for command in ("dims", "wedderburn"):
        assert main([command, "--kind", "dihedral", "--factors", "5"]) == 3
        err = capsys.readouterr().err
        assert err == "error: group order 10 exceeds the enumeration limit 9\n"
    assert builds == dict.fromkeys(builds, 0)


def formula_reports(argv):
    """Output of dims, wedderburn and chartable in JSON, each in a fresh group."""
    reports = []
    for command in ("dims", "wedderburn", "chartable"):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main([command, *argv, "--format", "json"]) == 0
        reports.append(out.getvalue())
    return reports


def general_argv(group):
    return [
        "--kind", "general",
        "--factors", json.dumps([[f.p, f.e] for f in group.abelian.factors]),
        "--s", json.dumps(list(group.twist.s)),
        "--y", json.dumps(list(group.square)),
    ]


SEEDED_ABOVE_GUARD = next(
    g for g in random_general_instances(20, max_group_order=256, seed=2102)
    if any(g.square) and g.order > 64
)


@pytest.mark.parametrize(
    "argv", [["--kind", "dihedral", "--factors", "2^6"], general_argv(SEEDED_ABOVE_GUARD)],
    ids=["Dih(C64)", "general"],
)
def test_formula_route_reads_no_full_table(argv, monkeypatch):
    # above the matrix guard, dims, wedderburn and chartable read the
    # representative rows only: a block with all of G on both sides, given
    # or by default, raises
    expected = formula_reports(argv)
    real = terw.groups.index_tables

    def parts_only(group, left=None, right=None):
        if all(side is None or len(side) == group.order for side in (left, right)):
            raise RuntimeError("the formula route read a full |G| x |G| block")
        return real(group, left, right)

    for name, module in list(sys.modules.items()):
        if name.startswith("terw") and getattr(module, "index_tables", None) is real:
            monkeypatch.setattr(module, "index_tables", parts_only)
    assert formula_reports(argv) == expected


def test_central_idempotents_build_no_tables(builds):
    # the block traces take the permutation character from the class sizes,
    # so neither the multiplication table nor the representative rows are built
    group = dicyclic([(3, 1), (2, 3)], [0, 4])  # fresh, so that nothing is built yet
    table = character_table(group)
    verify_central_idempotents(group, table, multiplicities_closed_form(group).values)
    assert builds["rep_products"] == builds["index_tables_part"] == 0


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


def test_character_checks_stay_below_an_l_cubed_array():
    # the float idempotent relations scattered the structure constants into
    # a dense (l, l, l) int64 array; the exact certificate and the block
    # dimensions read them in blocks and form nothing that grows with l^3
    group = dihedral([(2, 7)])  # Dih(C128), |G| = 256, l = 67
    table = character_table(group)
    vec = multiplicities_inner_product(group, table)
    structure_tensor(group)  # per-group artefacts, built before tracing
    tracemalloc.start()
    try:
        verify_orthogonality(group, table)
        verify_central_idempotents(group, table, vec.values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(table.labels) ** 3 * 8


def test_oracle_checks_stay_below_a_dense_stack():
    # the stack of l dense |G| x |G| int64 scheme matrices, or of l complex
    # idempotent matrices, would alone exceed these peaks
    group = dihedral([(2, 6)])  # Dih(C64), |G| = 128
    table = character_table(group)
    vec = multiplicities_inner_product(group, table)
    class_index_table(group)  # per-group artefacts, built before tracing
    conjugation_orbitals(group)
    stack = len(table.labels) * group.order**2
    tracemalloc.start()
    try:
        verify_scheme_axioms(group, guard=128)
        axioms_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        verify_central_idempotents(group, table, vec.values)
        idempotents_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert axioms_peak < stack * 8
    assert idempotents_peak < stack * 16


def test_axioms_stay_below_a_dense_structure_tensor():
    # the (l, l, l) int64 tensor of structure constants alone would exceed
    # this peak; the sparse pairs are built inside the traced call
    group = dihedral([(2, 7)])  # Dih(C128), |G| = 256, l = 67
    class_index_table(group)  # per-group artefact the check reads, built before tracing
    ell = len(conjugacy_classes(group))
    tracemalloc.start()
    try:
        verify_scheme_axioms(group, guard=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ell**3 * 8
