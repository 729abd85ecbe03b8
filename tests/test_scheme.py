"""Scheme matrices, axioms, dual idempotents, and the dimension paths."""

import itertools
import sys
import tracemalloc

import numpy as np
import pytest

from terw import (
    AxiomFailure,
    D2Group,
    GuardExceededError,
    adjacency_matrices,
    conjugacy_classes,
    dicyclic,
    dihedral,
    dim_centralizer,
    dim_closed_form,
    dim_t0,
    dual_idempotents,
    g2_group,
    is_triply_transitive,
    make_abelian,
    make_involution,
    verify_scheme_axioms,
)
import terw.closure
import terw.conjugacy
import terw.groups
import terw.scheme
from terw.closure import conjugation_orbitals
from terw.conjugacy import class_index_table, class_list, structure_tensor
from terw.groups import index_tables, inverses, read_only, translations
from terw.instances import random_general_instances
from terw.scheme import dump_matrices

import dense_reference
from dense_reference import (
    all_rows_scheme_axioms,
    conjugate,
    dense_scheme_axioms,
    dense_structure_tensor,
    dense_view,
    fraction_closure_rank,
    loop_sandwich_vectors,
    sparse_pairs,
)
from test_tables import NAMED

SEEDED = random_general_instances(6, 64, seed=606)


def brute_centralizer_dim(group):
    """Independent scan: sum over g of |C(g)|^2, divided by |G|."""
    elems = list(group.elements())
    total = 0
    for g in elems:
        c = sum(1 for h in elems if group.mul(g, h) == group.mul(h, g))
        total += c * c
    assert total % group.order == 0
    return total // group.order


def test_n0_is_identity_and_sum_is_ones(s3, sd16):
    for group in (s3, sd16):
        mats = adjacency_matrices(group)
        assert np.array_equal(mats[0], np.eye(group.order, dtype=np.int64))
        assert np.array_equal(
            sum(mats), np.ones((group.order, group.order), dtype=np.int64)
        )


def test_row_sums_equal_class_sizes(s3, d4):
    for group in (s3, d4):
        classes = conjugacy_classes(group)
        mats = adjacency_matrices(group)
        for cls, mat in zip(classes, mats):
            assert (mat.sum(axis=1) == cls.size).all()


def test_axioms_pass(s3, d4, q8, sd16):
    for group in (s3, d4, q8, sd16):
        pairing = verify_scheme_axioms(group)
        assert len(pairing) == len(conjugacy_classes(group))
        # transpose pairing is an involution on indices
        assert sorted(pairing) == list(range(len(pairing)))
        for i, j in enumerate(pairing):
            assert pairing[j] == i


def test_d4_matrices_symmetric(d4):
    for mat in adjacency_matrices(d4):
        assert np.array_equal(mat, mat.T)


def test_sd16_has_asymmetric_matrix(sd16):
    # paired classes {a, a^3} etc are not inverse-closed here
    mats = adjacency_matrices(sd16)
    assert any(not np.array_equal(m, m.T) for m in mats)


def planted(group, corrupt):
    """(fresh, table): a fresh copy of group whose class-index table is a
    corrupted copy of the real one, kept in its memo, so that every reader
    of the artefact, the conjugation certificate too, reads it."""
    table = class_index_table(group).copy()
    corrupt(table)
    fresh = D2Group(group.abelian, group.twist, group.square, group.name)
    fresh._memo[class_index_table.__wrapped__] = read_only(table)
    return fresh, table


def _matrices(table):
    return [(table == i).astype(np.int64) for i in range(int(table.max()) + 1)]


def _swap(table, i, j):
    cell_i, cell_j = table == i, table == j
    table[cell_i], table[cell_j] = j, i


def test_axiom_iv_detects_swapped_rows(q8):
    # swapping classes of different sizes breaks the product expansion
    # (swapping the two size-2 coset classes would not: that relabeling is a
    # genuine automorphism of the scheme)
    group, _ = planted(q8, lambda table: _swap(table, 1, 2))
    with pytest.raises(AxiomFailure):
        verify_scheme_axioms(group)


def test_axioms_agree_with_dense_reference(s3, d4, q8, sd16):
    for group in [s3, d4, q8, sd16, *SEEDED]:
        pairing = verify_scheme_axioms(group)
        assert (pairing, len(pairing)) == dense_scheme_axioms(group)


def test_axioms_agree_with_the_all_rows_reference(s3, d4, q8, sd16):
    for group in [s3, d4, q8, sd16, *SEEDED, dihedral([(2, 7)])]:
        pairing = verify_scheme_axioms(group, guard=256)
        want = all_rows_scheme_axioms(group, class_index_table(group))
        assert (pairing, len(pairing)) == want


def _swap_identity(table):
    # N_1 is the other central singleton, so the set still partitions J
    _swap(table, 0, 1)


def _swap_sizes(table):
    # a central singleton against a paired class of size 2
    _swap(table, 1, 2)


def _split_transpose(table):
    # move one entry of the symmetric N_2 into N_3: J stays partitioned
    col = int(np.flatnonzero(table[0] == 2)[0])
    table[0, col] = 3


@pytest.mark.parametrize(
    "corrupt, clause",
    [
        (_swap_identity, "(i)"),
        (_swap_sizes, "(iv)"),
        (_split_transpose, "(iii)"),
    ],
)
def test_axiom_clauses_agree_with_dense_reference(d4, q8, corrupt, clause):
    for group in (d4, q8):
        group, table = planted(group, corrupt)
        with pytest.raises(AxiomFailure) as dense:
            dense_scheme_axioms(group, _matrices(table))
        with pytest.raises(AxiomFailure) as all_rows:
            all_rows_scheme_axioms(group, table)
        with pytest.raises(AxiomFailure) as gathered:
            verify_scheme_axioms(group)
        assert dense.value.clause == all_rows.value.clause == gathered.value.clause == clause
        assert str(dense.value) == str(all_rows.value) == str(gathered.value)


def test_a_relabelled_table_is_a_scheme_but_the_wrong_one(d4, q8, sd16):
    # D[s][:, s] for a permutation s of the elements is the table of an
    # isomorphic scheme, so both references accept it, but it is not the
    # table of group.mul: right translation moves it
    rng = np.random.default_rng(14)
    for group in (d4, q8, sd16):
        perm = rng.permutation(group.order)

        def relabel(table):
            table[...] = table[np.ix_(perm, perm)]

        group, table = planted(group, relabel)
        assert dense_scheme_axioms(group, _matrices(table)) == all_rows_scheme_axioms(group, table)
        with pytest.raises(AxiomFailure, match=r"\(iv\) failed: right translation by \("):
            verify_scheme_axioms(group)


def _moved_labels(table, group):
    """D'[x, y] = L[y x^-1] for the labels L of row e with those of b and
    ab (indices 4 and 5) swapped: every right translation keeps it, but L
    is not constant on the classes, so conjugation moves it."""
    mult, inv = index_tables(group), inverses(group)
    labels = table[0].copy()
    labels[[4, 5]] = labels[[5, 4]]
    table[...] = labels[mult[:, inv].T]


def test_a_table_that_only_conjugation_moves_fails_the_certificate(d4, q8):
    # Dih(C4) and Dic(C4): b and ab lie in the two coset classes
    for group in (d4, q8):
        group, table = planted(group, lambda table: _moved_labels(table, group))
        assert all(np.array_equal(table[np.ix_(p, p)], table) for p in translations(group)[0])
        with pytest.raises(AxiomFailure, match=r"\(iv\) failed: conjugation by \(\(1,\), 0\) "
                                               r"changes the class-index table$"):
            verify_scheme_axioms(group)
        with pytest.raises(AxiomFailure):
            all_rows_scheme_axioms(group, table)


def _outcome(check, *args):
    try:
        return check(*args)
    except AxiomFailure as failure:
        return str(failure)


@pytest.mark.parametrize(
    "build, rejections",
    [(lambda: dihedral([(2, 3)]), 13), (lambda: dihedral([(2, 1), (3, 1)]), 8),
     (lambda: dicyclic([(2, 3)], [4]), 13)],
    ids=["Dih(C8)", "Dih(C6)", "Dic(C8)"],
)
def test_axiom_iv_reads_a_column_in_every_class_of_the_group(build, rejections):
    # the closed-form classes with class b merged into class a, which keeps
    # its representative: the table stays homogeneous and conjugation
    # invariant, and only a column in the class of b can show that a product
    # is not a combination of the merged matrices
    real = conjugacy_classes(build())
    minima = real.reps[real.labels]
    rejected = 0
    for a, b in itertools.combinations(real.reps[1:].tolist(), 2):
        group = build()
        merged = np.where(minima == b, a, minima)
        group._memo[conjugacy_classes.__wrapped__] = class_list(group, merged)
        want = _outcome(all_rows_scheme_axioms, group, class_index_table(group))
        got = _outcome(verify_scheme_axioms, group)
        assert got == want or (got, len(got)) == want, (a, b)
        rejected += isinstance(want, str)
        if group.name == "Dih(C8)" and (a, b) == (4, 1):
            # class 2, {a, a^7}, joins class 1, {a^4}, and keeps its representative
            assert got == "scheme axiom (iv) failed: N_1 N_1 differs from its " \
                          "structure-constant expansion"
    assert rejected == rejections  # the other merges are fusions, schemes again


def test_a_fault_off_row_and_column_e_fails_the_translation_scan(d4):
    # D[2, 5] is the class of ab a^-2 = a^3 b, class 4; row e and column e
    # keep their cells, so the translation scan is the first check it fails
    def corrupt(table):
        assert table[2, 5] == 4
        table[2, 5] = 3

    group, table = planted(d4, corrupt)
    with pytest.raises(AxiomFailure, match=r"\(iv\) failed: right translation by \(\(1,\), 0\) "):
        verify_scheme_axioms(group)
    with pytest.raises(AxiomFailure):
        all_rows_scheme_axioms(group, table)


def test_right_translations_are_built_without_the_tables(sd16, monkeypatch):
    mult, inv = index_tables(sd16), inverses(sd16)
    gens = [sd16.index(g) for g in sd16.generators()]
    class_index_table(sd16)  # the table under test, built before the patch

    def unavailable(_):
        raise RuntimeError("index_tables called")

    for module in (terw.groups, terw.conjugacy, terw.closure, terw.scheme):
        if hasattr(module, "index_tables"):
            monkeypatch.setattr(module, "index_tables", unavailable)
    rho, iota = translations.__wrapped__(sd16)  # built afresh, under the patch
    assert np.array_equal(rho, mult[:, gens].T) and np.array_equal(iota, inv)
    assert np.array_equal(translations(sd16)[0], rho)
    assert len(verify_scheme_axioms(sd16)) == len(conjugacy_classes(sd16))


def test_structure_tensor_is_the_dense_reference_as_sparse_pairs(s3, d4, q8, sd16):
    # increasing codes (k * l + i) * l + j, each with a positive count, and
    # no other constant
    assert any(any(g.square) for g in SEEDED)
    groups = (s3, d4, q8, sd16, dicyclic([(3, 1), (2, 2)], [0, 2]), g2_group(16, 7, 8), *SEEDED)
    for group in groups:
        codes, counts = structure_tensor(group)
        assert codes.dtype.kind == counts.dtype.kind == "i"
        assert (np.diff(codes) > 0).all() and (counts > 0).all(), group.name
        p = dense_structure_tensor(group)
        assert np.array_equal(dense_view((codes, counts), len(p)), p), group.name
        assert len(codes) == dim_t0(group)


def test_structure_tensor_is_built_without_the_tables(monkeypatch):
    group = g2_group(16, 7, 8)  # fresh, so that nothing is built yet

    def unavailable(_):
        raise RuntimeError("index_tables called")

    real = terw.groups.index_tables
    for name, module in list(sys.modules.items()):
        if name.startswith("terw") and getattr(module, "index_tables", None) is real:
            monkeypatch.setattr(module, "index_tables", unavailable)
    pairs = structure_tensor(group)
    monkeypatch.undo()
    assert np.array_equal(dense_view(pairs, len(conjugacy_classes(group))),
                          dense_structure_tensor(group))


def _added_mass(p):
    # one more at a zero constant: no code counted there ever occurs
    p[tuple(np.argwhere(p == 0)[-1])] += 1


def _moved_mass(p):
    # one unit from the last positive constant to a zero one of the same k
    # at i != j, so every p[:, :, k] still sums to |G| and the failing pair
    # named first is not symmetric: N_a N_b and N_b N_a differ in the message
    i, j, k = np.argwhere(p > 0)[-1]
    p[i, j, k] -= 1
    zi, zj = next((a, b) for a, b in np.argwhere(p[:, :, k] == 0) if a != b)
    p[zi, zj, k] += 1


@pytest.mark.parametrize("corrupt", [_added_mass, _moved_mass])
def test_axiom_iv_checks_the_constants_at_codes_that_never_occur(
    d4, q8, sd16, monkeypatch, corrupt
):
    # the references read the dense p, the library its sparse pairs
    for group in (d4, q8, sd16):
        p = dense_view(structure_tensor(group), len(conjugacy_classes(group))).copy()
        corrupt(p)
        monkeypatch.setattr(dense_reference, "dense_structure_tensor", lambda _: p)
        monkeypatch.setattr("terw.scheme.structure_tensor", lambda _: sparse_pairs(p))
        with pytest.raises(AxiomFailure) as dense:
            dense_scheme_axioms(group)
        with pytest.raises(AxiomFailure) as all_rows:
            all_rows_scheme_axioms(group, class_index_table(group))
        with pytest.raises(AxiomFailure) as gathered:
            verify_scheme_axioms(group)
        assert dense.value.clause == gathered.value.clause == "(iv)"
        assert str(all_rows.value) == str(gathered.value)
        if corrupt is _moved_mass:
            assert str(dense.value) == str(gathered.value)


def test_dual_idempotents(s3, d4):
    for group in (s3, d4):
        classes = conjugacy_classes(group)
        duals = dual_idempotents(group)
        total = np.zeros((group.order, group.order), dtype=np.int64)
        for cls, mat in zip(classes, duals):
            assert np.trace(mat) == cls.size
            assert np.array_equal(mat @ mat, mat)
            total += mat
        assert np.array_equal(total, np.eye(group.order, dtype=np.int64))
        for i in range(len(duals)):
            for j in range(i + 1, len(duals)):
                assert not (duals[i] @ duals[j]).any()


def test_s3_coset_dual_has_three_ones(s3):
    classes = conjugacy_classes(s3)
    duals = dual_idempotents(s3)
    assert duals[2].sum() == 3


def test_guard_on_matrix_paths():
    big = dihedral([(2, 2), (3, 2)])  # order 72
    with pytest.raises(GuardExceededError):
        adjacency_matrices(big)
    assert adjacency_matrices(big, guard=128)[0].shape == (72, 72)


def test_named_dimension_values(s3, d4, q8, sd16):
    # centralizer-scan oracle first, then the others must agree
    for group, want in [(s3, 11), (d4, 28), (q8, 28), (sd16, 64)]:
        assert brute_centralizer_dim(group) == want
        assert dim_centralizer(group) == want
        assert conjugation_orbitals(group).count == want
        assert dim_t0(group) == want
        assert dim_t0(group, strategy="span") == want
        assert dim_closed_form(group) == want


def test_sandwich_vectors_equal_the_triple_loop(s3, d4, q8, sd16):
    # the span in orbit coordinates against the rank of the flat sandwiches
    for group in (s3, d4, q8, sd16, dihedral([(2, 3), (3, 1)]), *SEEDED):
        flat = fraction_closure_rank(loop_sandwich_vectors(group), [])
        assert dim_t0(group, strategy="span") == flat == dim_t0(group), group.name


def test_t0_by_every_route():
    # the representative rows, the span, the structure constants and the
    # codes of all |G|^2 pairs
    groups = [*NAMED, *SEEDED]
    assert max(g.order for g in groups) >= 128
    for group in groups:
        t0 = dim_t0(group)
        assert dim_t0(group, strategy="span", guard=group.order) == t0, group.name
        assert len(structure_tensor(group)[0]) == t0, group.name
        assert len(np.unique(dense_reference.class_triple_codes(group))) == t0, group.name


def test_triple_count_peak_memory_on_dih_c512():
    # the int64 codes of all |G|^2 pairs alone would take 8 MB
    group = dihedral([(2, 9)])  # |G| = 1024
    conjugacy_classes(group)  # per-group artefacts, built before tracing
    tracemalloc.start()
    try:
        t0 = dim_t0(group)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t0 == dim_closed_form(group)
    assert peak < 8 * 2**20


def test_closed_form_dihedral_special_case():
    # n^2/2 + 3n 2^(lambda-1) + 2^(2 lambda + 1), kept exact by doubling
    for factors in [[(3, 1)], [(2, 2)], [(2, 1), (3, 1)], [(2, 2), (2, 1)], [(3, 2)]]:
        g = dihedral(factors)
        n, lam = g.n, g.abelian.lam
        doubled = n * n + 3 * n * 2**lam + 2 ** (2 * lam + 2)
        assert doubled % 2 == 0
        assert dim_closed_form(g) == doubled // 2


def test_closed_form_dicyclic_special_case(q8):
    # with |A| = 2m: 6m + 2m^2 + 8
    m = q8.n // 2
    assert dim_closed_form(q8) == 6 * m + 2 * m * m + 8


def test_triply_transitive_reports(s3, sd16):
    for group in (s3, sd16):
        report = is_triply_transitive(group)
        assert report.triply_transitive
        vals = set(report.as_tuple())
        assert len(vals) == 1


def test_sandwich_ordering():
    group = D2Group(
        make_abelian([(2, 2), (3, 1)]),
        make_involution(make_abelian([(2, 2), (3, 1)]), [3, 1]),
        [2, 0],
    )
    report = is_triply_transitive(group)
    assert report.dim_t0 <= report.dim_closure <= report.dim_centralizer
    assert report.dim_t0 == report.dim_centralizer == report.dim_closed_form


def test_closure_guard_propagates():
    big = dihedral([(2, 2), (3, 2)])  # order 72 > default guard
    report = is_triply_transitive(big)
    assert report.dim_closure is None
    assert report.triply_transitive
    with pytest.raises(GuardExceededError):
        is_triply_transitive(big, need_closure=True)
    full = is_triply_transitive(big, guard=128)
    assert full.dim_closure == full.dim_closed_form


def conjugation_permutation(group, g) -> np.ndarray:
    """The permutation matrix of u -> g u g^-1, from ``group.conjugate`` alone."""
    mat = np.zeros((group.order, group.order), dtype=np.int64)
    for u in group.elements():
        mat[group.index(u), group.index(conjugate(group, u, g))] = 1
    return mat


def test_scheme_matrices_commute_with_conjugation(sd16):
    mats = adjacency_matrices(sd16)
    for g in list(sd16.elements())[:6]:
        phi = conjugation_permutation(sd16, g)
        for mat in mats:
            assert np.array_equal(mat @ phi, phi @ mat)


def test_centralizer_formula_decomposition(q8, sd16):
    # (4 n^2 d + n^2 (n - d) + 4 n d^2) / (2n), grouped by class kind
    for group in (q8, sd16):
        n, d = group.n, group.d
        total = 4 * n * n * d + n * n * (n - d) + 4 * n * d * d
        assert total % (2 * n) == 0
        assert dim_centralizer(group) == total // (2 * n)


def test_matrix_dump_format(s3):
    body = dump_matrices(s3)
    assert "N_0" in body and "E*_2" in body
    first_grid = body.splitlines()[1]
    assert first_grid.split() == ["1", "0", "0", "0", "0", "0"]
