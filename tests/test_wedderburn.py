"""Block multiplicities three ways, the permutation character, and the
central-idempotent oracle."""

import tracemalloc

import numpy as np
import pytest

from terw import (
    GuardExceededError,
    IdempotencyFailure,
    MultiplicityMismatch,
    NonIntegralMultiplicity,
    OrthogonalityFailure,
    central_idempotent,
    character_table,
    conjugacy_classes,
    dicyclic,
    dihedral,
    dim_centralizer,
    g2_group,
    multiplicities_char_sum,
    multiplicities_closed_form,
    multiplicities_inner_product,
    verify_central_idempotents,
    verify_orthogonality,
    wedderburn_report,
)
from terw.closure import conjugation_orbitals
from terw.conjugacy import rep_products, structure_tensor
from terw.instances import random_general_instances
from terw.wedderburn import _block_trace_counts, permutation_character

from dense_reference import (
    class_structure_constants,
    complex_values,
    conjugate,
    dense_block_dimension,
    dense_block_dims,
    dense_view,
    orbit_block_trace_counts,
    sparse_pairs,
)

SMALL = [
    dihedral([(3, 1)]),
    dihedral([(2, 2), (3, 1)]),
    dicyclic([(2, 2)], [2]),
    dicyclic([(3, 1), (2, 2)], [0, 2]),
    g2_group(8, 3, 0),
    g2_group(16, 7, 8),
]


def test_s3_multiplicities(s3):
    table = character_table(s3)
    # inner-product oracle by hand: psi = (6, 3, 2) on classes of size (1, 2, 3)
    psi = permutation_character(s3)
    assert psi == [6, 3, 2]
    assert multiplicities_inner_product(s3, table).values == (3, 1, 1)
    assert multiplicities_char_sum(s3, table).values == (3, 1, 1)
    assert multiplicities_closed_form(s3).values == (3, 1, 1)


def test_d4_q8_multiplicities(d4, q8):
    for group in (d4, q8):
        table = character_table(group)
        want = (5, 1, 1, 1, 0)
        assert multiplicities_inner_product(group, table).values == want
        assert multiplicities_char_sum(group, table).values == want
        assert multiplicities_closed_form(group).values == want


def test_trivial_character_multiplicity_is_class_count(sd16):
    # <psi, trivial> counts conjugation orbits on the group = class count
    table = character_table(sd16)
    vec = multiplicities_inner_product(sd16, table)
    assert vec.values[0] == len(table.classes)


def conjugation_rows(group):
    """C[g, u] = index of g u g^-1, one ``group.mul`` pair per entry."""
    elems = list(group.elements())
    return np.array([[group.index(conjugate(group, u, g)) for u in elems] for g in elems])


def test_permutation_character_is_trace(d4):
    # psi(g) is the number of fixed points of u -> g u g^-1
    classes = conjugacy_classes(d4)
    psi = permutation_character(d4)
    conj = conjugation_rows(d4)
    for g in d4.elements():
        perm = conj[d4.index(g)]
        assert sorted(perm.tolist()) == list(range(d4.order))
        assert int((perm == np.arange(d4.order)).sum()) == psi[classes.labels[d4.index(g)]]


def test_conjugation_permutation_is_homomorphism(q8):
    # conjugating by h, then by g, is conjugating by gh
    conj = conjugation_rows(q8)
    for g in q8.elements():
        for h in q8.elements():
            gh = q8.index(q8.mul(g, h))
            assert np.array_equal(conj[q8.index(g)][conj[q8.index(h)]], conj[gh])


def test_report_identities(s3, d4, q8, sd16):
    for group, blocks in [
        (s3, (3, 1, 1)),
        (d4, (5, 1, 1, 1)),
        (q8, (5, 1, 1, 1)),
        (sd16, (7, 3, 1, 1, 2)),
    ]:
        report = wedderburn_report(group)
        assert report.blocks == blocks
        assert report.sum_d_sq == dim_centralizer(group)
        assert report.sum_d_deg == group.order


def test_dihedral_parity_condition():
    # for inversion twists every d_i is gcd(2, m_i): the multiplicity cases
    # reduce to parity of the label coordinates on the even factors
    group = dihedral([(2, 2), (3, 1)])
    vec = multiplicities_closed_form(group)
    n, d = group.n, group.d
    for label, value in zip(vec.labels, vec.values):
        if label.degree != 1:
            continue
        if all(v % 2 == 0 for v, di in zip(label.i_vec, group.fixed.d_vec) if di == 2):
            assert value in ((n + 3 * d) // 2, (n - d) // 2)
        else:
            assert value in (d // 2, 0)


def test_multiset_invariant_under_sign_swap(sd16):
    vec = multiplicities_closed_form(sd16)
    swapped = multiplicities_closed_form(sd16)
    # swapping sign-1 and sign-2 labels pairwise permutes the vector entries
    pairs = {}
    for idx, label in enumerate(vec.labels):
        if label.degree == 1:
            key = (label.i_vec,)
            pairs.setdefault(key, []).append(idx)
    multiset = sorted(vec.values)
    permuted = list(vec.values)
    for idxs in pairs.values():
        a, b = idxs
        permuted[a], permuted[b] = permuted[b], permuted[a]
    assert sorted(permuted) == multiset


def test_nonintegral_multiplicity_detected(d4):
    table = character_table(d4)
    exponents = table.exponents.copy()
    exponents[2, 1, 0] = 1  # one term moved to z_8, which is not rational
    corrupted = table._replace(exponents=exponents)
    # the message names the label only, with no float value
    with pytest.raises(NonIntegralMultiplicity, match=r"^character sum of chi\[1;1\] is not an int"):
        multiplicities_char_sum(d4, corrupted)
    with pytest.raises(NonIntegralMultiplicity, match=r"^\|G\| <psi, chi> of chi\[1;1\] is not an"):
        multiplicities_inner_product(d4, corrupted)
    # the cached table is untouched
    assert multiplicities_char_sum(d4, table).values == multiplicities_closed_form(d4).values


def test_character_sums_stay_below_one_dense_block():
    # CharacterTable.class_sums reduces blocks of rows, so no (l, M) int64
    # block of root coefficients is formed whole
    group = dihedral([(2, 9)])  # Dih(C512), |G| = 1024, l = 259, M = 1024
    table = character_table(group)
    tracemalloc.start()
    try:
        vec = multiplicities_char_sum(group, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vec.values == multiplicities_closed_form(group).values
    assert peak < len(table.labels) * table.root_order * 8


def test_mismatch_detected_on_corrupted_table(d4, monkeypatch):
    import terw.wedderburn

    table = character_table(d4)
    # swap two full linear rows: sums survive but both oracles move away
    # from the closed form's per-label assignment
    swap = [3, 1, 2, 0, *range(4, len(table.labels))]
    corrupted = table._replace(
        exponents=table.exponents[swap], coefficients=table.coefficients[swap])
    monkeypatch.setattr(terw.wedderburn, "character_table", lambda group: corrupted)
    with pytest.raises(MultiplicityMismatch):
        wedderburn_report(d4)


def test_s3_idempotent_ranks(s3):
    table = character_table(s3)
    vec = multiplicities_inner_product(s3, table)
    assert verify_central_idempotents(s3, table, vec.values) == (9, 1, 1)
    # the matrix itself projects onto the isotypic component: rank d_j * deg_j
    e0 = central_idempotent(s3, table, 0)
    assert round(np.trace(e0).real) == 3
    assert np.linalg.matrix_rank(e0) == 3


def test_d4_zero_multiplicity_kills_block(d4):
    table = character_table(d4)
    twodim = next(r for r, l in enumerate(table.labels) if l.degree == 2)
    e = central_idempotent(d4, table, twodim)
    assert np.abs(e).max() < 1e-12


def test_idempotent_reports(s3, d4, q8, sd16):
    for group in (s3, d4, q8, sd16):
        table = character_table(group)
        vec = multiplicities_inner_product(group, table)
        block_dims = verify_central_idempotents(group, table, vec.values)
        assert sum(block_dims) == dim_centralizer(group)
        assert block_dims == tuple(v * v for v in vec.values)


def test_idempotents_agree_with_dense_reference(s3, d4, q8, sd16):
    for group in [s3, d4, q8, sd16, *random_general_instances(6, 64, seed=606)]:
        table = character_table(group)
        vec = multiplicities_inner_product(group, table)
        block_dims = verify_central_idempotents(group, table, vec.values)
        assert block_dims == dense_block_dims(group, table, vec), group.name


def test_idempotent_check_is_guarded_by_the_enumeration_limit(monkeypatch):
    # it forms no |G| x |G| array, so the matrix guard (64) does not bound it
    group = dihedral([(2, 6)])  # Dih(C64), |G| = 128
    table = character_table(group)
    vec = multiplicities_inner_product(group, table)
    assert sum(verify_central_idempotents(group, table, vec.values)) == dim_centralizer(group)
    monkeypatch.setattr("terw.wedderburn.ENUMERATION_LIMIT", 127)
    with pytest.raises(GuardExceededError, match="^group order 128 exceeds guard 127 for the c"):
        verify_central_idempotents(group, table, vec.values)


def test_idempotent_check_rejects_corrupted_table(sd16):
    table = character_table(sd16)
    vec = multiplicities_inner_product(sd16, table)
    coefficients = table.coefficients.copy()
    coefficients[1, 1] *= -1  # one value of a linear character
    perturbed = table._replace(coefficients=coefficients)
    linear = next(r for r, label in enumerate(table.labels) if label.degree == 1)
    twodim = next(r for r, label in enumerate(table.labels) if label.degree == 2)
    swap = list(range(len(table.labels)))
    swap[linear], swap[twodim] = twodim, linear
    swapped = table._replace(
        exponents=table.exponents[swap], coefficients=table.coefficients[swap])
    for corrupted in (perturbed, swapped):
        with pytest.raises(IdempotencyFailure):
            verify_central_idempotents(sd16, corrupted, vec.values)


def test_idempotent_check_rejects_wrong_block_dimension(sd16):
    table = character_table(sd16)
    vec = multiplicities_inner_product(sd16, table)
    values = list(vec.values)
    values[0], values[1] = values[1], values[0]
    with pytest.raises(IdempotencyFailure, match=r"^block of e_0 has dimension \d+, expected \d+$"):
        verify_central_idempotents(sd16, table, tuple(values))


def test_idempotent_check_rejects_a_non_integral_block_trace(monkeypatch):
    # Dih(C5): classes {e}, {a, a^4}, {a^2, a^3} and the coset; rows e_0, e_1
    # linear, e_2 and e_3 two-dimensional
    group = dihedral([(5, 1)])
    table = character_table(group)
    vec = multiplicities_inner_product(group, table)
    exact = _block_trace_counts(group)
    counts = exact.copy()
    monkeypatch.setattr("terw.wedderburn._block_trace_counts", lambda group: counts)
    # one more count on {a, a^4} gives e_0 a fractional dimension
    counts[1] += 1
    with pytest.raises(IdempotencyFailure, match="^block of e_0 has dimension 161/10, expected 16"):
        verify_central_idempotents(group, table, vec.values)
    # this shift keeps the linear rows' traces and the constant coordinate of
    # e_2's, but makes e_2's trace irrational
    counts[:] = exact + [-1, 3, -2, 0]
    with pytest.raises(IdempotencyFailure, match="^block of e_2 has a trace that is not an"):
        verify_central_idempotents(group, table, vec.values)


def test_certificate_catches_one_step_on_a_two_dimensional_row():
    # the identity entry of the last 2-dimensional row of Dih(C64) moved by
    # one 128th root, which moves the float relations by only 7.7e-4
    # (orthogonality) and 6.0e-6 (eps_0 eps_34): the exact certificate names
    # the row, and its block trace is no longer an integer
    group = dihedral([(2, 6)])
    table = character_table(group)
    vec = multiplicities_inner_product(group, table)
    exponents = table.exponents.copy()
    exponents[34, 0, 0] += 1
    assert table.degrees[34] == 2
    shifted = table._replace(exponents=exponents)
    with pytest.raises(
        OrthogonalityFailure, match=r"^character certificate failed for row 34 phi\[31\]: \(c\) "
    ):
        verify_orthogonality(group, shifted)
    with pytest.raises(
        IdempotencyFailure, match=r"^block of e_34 has a trace that is not an integer$"
    ):
        verify_central_idempotents(group, shifted, vec.values)


@pytest.mark.parametrize("group", SMALL, ids=lambda g: g.name)
def test_class_structure_constants_match_structure_tensor(group):
    # K_i K_j = sum_k a[i, j, k] K_k, while p[i, j, k] counts v*u with u in
    # class i and v in class j
    p = dense_view(structure_tensor(group), len(conjugacy_classes(group)))
    assert np.array_equal(class_structure_constants(group), p.transpose(1, 0, 2))


@pytest.mark.parametrize("group", SMALL, ids=lambda g: g.name)
def test_block_trace_counts_match_dense_trace(group):
    table = character_table(group)
    orb = conjugation_orbitals(group)
    counts = _block_trace_counts(group)
    assert counts.dtype.kind == "i"
    for j, (label, row) in enumerate(zip(table.labels, complex_values(table))):
        trace = label.degree / group.order * (row.conj() @ counts)
        dense = dense_block_dimension(central_idempotent(group, table, j), orb)
        assert abs(trace - dense) < 1e-9


def test_block_trace_counts_equal_the_orbit_gather(s3, d4, q8, sd16):
    seeded = random_general_instances(6, 256, seed=1601)
    assert any(any(g.square) for g in seeded) and max(g.order for g in seeded) > 128
    groups = (s3, d4, q8, sd16, dicyclic([(3, 1), (2, 2)], [0, 2]), g2_group(16, 7, 8), *seeded)
    for group in groups:
        assert np.array_equal(_block_trace_counts(group), orbit_block_trace_counts(group)), group.name


def test_block_trace_counts_stay_below_the_structure_tensor():
    # the constants are read in chunks: no temporary the size of all dim T
    # codes, of which the whole decode took five
    group = dihedral([(2, 9)])  # Dih(C512), |G| = 1024, dim T = 132616
    codes, counts = structure_tensor(group)  # per-group artefacts, built before tracing
    tracemalloc.start()
    try:
        _block_trace_counts(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < codes.nbytes + counts.nbytes


def test_permutation_character_names_a_wrong_centralizer_order(monkeypatch):
    group = dicyclic([(3, 1), (2, 3)], [0, 4])
    classes = conjugacy_classes(group)
    rows, orders = rep_products(group)
    cent = orders.copy()
    k = len(classes) - 2
    cent[k] += 1
    monkeypatch.setattr("terw.wedderburn.rep_products", lambda _: (rows, cent))
    with pytest.raises(MultiplicityMismatch, match=rf"^class {k}: centralizer order"):
        permutation_character(group)


def test_block_traces_reject_constants_that_are_not_a_group(monkeypatch):
    # Dih(C5), psi = (10, 5, 5, 2): one unit of p_03^3 (u = e, v = y_3) moved
    # to the zero p_11^3 keeps sum_ij p_ij^3 = |G| but makes
    # |Cl_3| sum_ij p_ij^3 psi_i psi_j = 5 * 125 not a multiple of |G| = 10
    group = dihedral([(5, 1)])
    p = dense_view(structure_tensor(group), len(conjugacy_classes(group))).copy()
    assert permutation_character(group) == [10, 5, 5, 2]
    assert p[0, 3, 3] == 1 and p[1, 1, 3] == 0
    p[0, 3, 3] -= 1
    p[1, 1, 3] += 1
    monkeypatch.setattr("terw.wedderburn.structure_tensor", lambda _: sparse_pairs(p))
    with pytest.raises(IdempotencyFailure, match=r"^block trace count of class 3 is 625/10, not"):
        _block_trace_counts(group)
