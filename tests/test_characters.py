"""Character tables: counts, known tables, homomorphism and class-constancy
properties, orthogonality, and the fault-injection path."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from dense_reference import (
    _exact_certificate,
    char_value,
    chartable_csv,
    chartable_json_dict,
    chartable_text,
    class_members,
    complex_values,
    enumerated_character_labels,
    evaluate,
    float_idempotent_relations,
    float_orthogonality,
    multiply,
    normalise,
    table_entry,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import terw.characters
from terw import (
    CharacterTableFailure,
    D2Group,
    GuardExceededError,
    LinearLabel,
    OrthogonalityFailure,
    TwoDimLabel,
    character_labels,
    character_table,
    conjugacy_classes,
    dicyclic,
    dihedral,
    g2_group,
    make_abelian,
    make_involution,
    multiplicities_char_sum,
    multiplicities_closed_form,
    multiplicities_inner_product,
    verify_orthogonality,
)
from terw.abelian import AbelianGroup, square_roots_of_unity
from terw.characters import _clause_bound, _residues
from terw.cli import EXIT_GUARD, GroupSpec, main
from terw.conjugacy import COSET, PAIRED, ClassList, structure_tensor
from terw.groups import factorize
from terw.instances import (
    abelian_factorizations,
    dicyclic_instances,
    dihedral_instances,
    g2_instances,
    random_general_instances,
)
from test_tables import NAMED


# C4 x C9 with the twist fixing the C9 coordinate and y = (0, 1): the coset
# values are 18th roots of unity, not 9th, and the root order is 72
_C4_X_C9 = make_abelian([(2, 2), (3, 2)])
C4_C9 = D2Group(_C4_X_C9, make_involution(_C4_X_C9, [3, 1]), [0, 1])


def row_values(table, r):
    return [table_entry(table, r, c) for c in range(len(table.classes))]


def complex_row(table, r):
    return [evaluate(table.root_order, v) for v in row_values(table, r)]


def test_label_counts(s3, d4, sd16):
    for group, linear, twodim in [(s3, 2, 1), (d4, 4, 1), (sd16, 4, 3)]:
        labels = character_labels(group)
        assert sum(1 for l in labels if isinstance(l, LinearLabel)) == linear
        assert sum(1 for l in labels if isinstance(l, TwoDimLabel)) == twodim
        assert len(labels) == len(conjugacy_classes(group))


def test_labels_are_built_once_and_shared(sd16):
    labels = character_labels(sd16)
    assert isinstance(labels, tuple) and character_labels(sd16) is labels
    assert character_table(sd16).labels is labels


def test_labels_match_the_enumeration():
    # the named groups, seeded general groups up to |G| = 384 and the
    # acceptance corpus
    groups = [
        *NAMED,
        *random_general_instances(12, max_group_order=384, seed=2001),
        *dihedral_instances(range(3, 17)),
        *dicyclic_instances([4, 6, 8, 12, 16]),
        *g2_instances(16),
        *random_general_instances(50, 48, seed=20240801),
    ]
    assert any(any(g.square) for g in groups) and any(g.abelian.rank > 2 for g in groups)
    for group in groups:
        assert character_labels(group) == enumerated_character_labels(group), group.name


def test_labels_index_no_element(monkeypatch):
    # both label lists are read off the class representatives; the walk
    # over A made 2(n - d) = 60 index calls here
    group = g2_group(32, 31, 16)  # Dic(C32), |G| = 64, fresh
    calls = 0
    index = AbelianGroup.index

    def counting(self, x):
        nonlocal calls
        calls += 1
        return index(self, x)

    monkeypatch.setattr(AbelianGroup, "index", counting)
    labels = character_labels(group)
    assert calls == 0
    assert len(labels) == 2 * group.d + (group.n - group.d) // 2


@pytest.mark.parametrize(
    "drop, repeat", [([PAIRED], []), ([COSET], []), ([PAIRED, PAIRED], [COSET])]
)
def test_labels_reject_a_wrong_class_list(drop, repeat, monkeypatch):
    # a dropped paired class leaves one two-dimensional label too few, a
    # dropped coset class two linear labels too few, and two paired classes
    # traded for a repeated coset class keep the total right
    group = g2_group(16, 7, 8)  # fresh, so that no labels are built yet
    classes = conjugacy_classes(group)
    wrong = list(classes)
    for kind in drop:
        wrong.remove(next(c for c in wrong if c.kind == kind))
    wrong += [next(c for c in wrong if c.kind == kind) for kind in repeat]
    wrong = ClassList(tuple(wrong), classes.labels, classes.reps)
    monkeypatch.setattr(terw.characters, "conjugacy_classes", lambda _: wrong)
    with pytest.raises(CharacterTableFailure, match="two-dimensional and"):
        character_labels(group)


def test_degree_identity():
    for group in [dihedral([(2, 1), (3, 1)]), g2_group(9, 8, 0), dihedral([(2, 2), (2, 1)])]:
        labels = character_labels(group)
        assert sum(l.degree**2 for l in labels) == group.order


def test_s3_table_is_standard(s3):
    table = character_table(s3)
    # classes: {e}, {a, a^2}, reflections
    rows = {tuple(round(z.real, 9) for z in row) for row in complex_values(table).tolist()}
    assert rows == {(1, 1, 1), (1, 1, -1), (2, -1, 0)}


def test_d4_two_dimensional_row(d4):
    table = character_table(d4)
    twodim = next(r for r, l in enumerate(table.labels) if isinstance(l, TwoDimLabel))
    vals = complex_row(table, twodim)
    assert abs(vals[0] - 2) < 1e-12  # degree
    assert abs(vals[1] + 2) < 1e-12  # at the central involution
    assert all(abs(v) < 1e-12 for v in vals[2:])


def test_d4_coset_value_example(d4):
    table = character_table(d4)
    classes = table.classes
    row = next(
        r
        for r, l in enumerate(table.labels)
        if isinstance(l, LinearLabel) and l.i_vec == (1,) and l.sign == 2
    )
    col = next(c.index for c in classes if c.kind == COSET and c.rep[0] == (0,))
    assert table_entry(table, row, col) == {0: -1}


def test_trivial_character_is_all_ones(s3, d4, q8, sd16):
    for group in (s3, d4, q8, sd16):
        table = character_table(group)
        assert all(v == {0: 1} for v in row_values(table, 0))
        assert table.labels[0] == LinearLabel(i_vec=(0,) * group.abelian.rank, sign=1)


def test_linear_rows_are_homomorphisms(q8, sd16):
    # linear values are single terms, so the identity holds exactly
    for group in (q8, sd16):
        table = character_table(group)
        classes = table.classes
        elems = list(group.elements())
        for r, label in enumerate(table.labels):
            if not isinstance(label, LinearLabel):
                continue
            for g in elems:
                for h in elems:
                    lhs = table_entry(table, r, classes.labels[group.index(group.mul(g, h))])
                    rhs = multiply(table.root_order,
                                   table_entry(table, r, classes.labels[group.index(g)]),
                                   table_entry(table, r, classes.labels[group.index(h)]))
                    assert lhs == rhs


def test_chi_b_squared_equals_chi_y(q8, sd16):
    for group in (q8, sd16):
        table = character_table(group)
        classes = table.classes
        b = (group.abelian.identity, 1)
        y = (group.square, 0)
        for r, label in enumerate(table.labels):
            if not isinstance(label, LinearLabel):
                continue
            chib = evaluate(group.root_order, table_entry(table, r, classes.labels[group.index(b)]))
            chiy = evaluate(group.root_order, table_entry(table, r, classes.labels[group.index(y)]))
            assert abs(chib * chib - chiy) < 1e-9


def test_twodim_vanishes_on_cosets_exactly(sd16):
    table = character_table(sd16)
    for r, label in enumerate(table.labels):
        if isinstance(label, TwoDimLabel):
            for cls in table.classes:
                if cls.kind == COSET:
                    assert not table_entry(table, r, cls.index)


def test_values_constant_on_classes():
    group = D2Group(
        make_abelian([(2, 3), (3, 1)]),
        make_involution(make_abelian([(2, 3), (3, 1)]), [3, 2]),
        [4, 0],
    )
    classes = conjugacy_classes(group)
    table = character_table(group)
    members = class_members(group, classes)
    # recompute each value from every member of the class, not just the rep
    for r, label in enumerate(table.labels):
        for cls in classes:
            want = evaluate(group.root_order, table_entry(table, r, cls.index))
            for g in members[cls.index]:
                single = type(cls)(kind=cls.kind, rep=g, size=1, index=cls.index)
                got = evaluate(group.root_order, char_value(group, label, single))
                assert abs(got - want) < 1e-9


def test_twodim_values_independent_of_orbit_representative(sd16):
    group = sd16
    table = character_table(group)
    classes = table.classes
    s = group.twist.s
    moduli = group.abelian.moduli
    for r, label in enumerate(table.labels):
        if not isinstance(label, TwoDimLabel):
            continue
        partner = TwoDimLabel(
            j_vec=tuple((k * si) % m for k, si, m in zip(label.j_vec, s, moduli))
        )
        assert partner.j_vec != label.j_vec
        for cls in classes:
            assert char_value(group, partner, cls) == table_entry(table, r, cls.index)


def sign_swapped(table):
    """The table under the other square-root convention: every linear
    character negated on the coset."""
    coset = np.array([c.kind == COSET for c in table.classes])
    linear = np.array([isinstance(label, LinearLabel) for label in table.labels])
    coefficients = table.coefficients.copy()
    coefficients[np.ix_(linear, coset)] *= -1
    return table._replace(coefficients=coefficients)


def exact_rows(table):
    return sorted(tuple(tuple(sorted(v.items())) for v in row_values(table, r))
                  for r in range(len(table.labels)))


def test_table_multiset_invariant_under_sign_swap(sd16):
    # swapping the two square-root signs permutes rows only, exactly
    table = character_table(sd16)
    swapped = sign_swapped(table)
    assert not np.array_equal(swapped.coefficients, table.coefficients)
    assert exact_rows(swapped) == exact_rows(table)
    for r, label in enumerate(table.labels):
        if isinstance(label, LinearLabel):
            partner = table.labels.index(LinearLabel(i_vec=label.i_vec, sign=3 - label.sign))
            assert row_values(swapped, r) == row_values(table, partner)


def test_odd_coordinate_square_needs_doubled_root_order():
    group = C4_C9
    table = character_table(group)
    verify_orthogonality(group, table)
    classes = table.classes
    b = (group.abelian.identity, 1)
    y = (group.square, 0)
    for r, label in enumerate(table.labels):
        if isinstance(label, LinearLabel):
            chib = evaluate(group.root_order, table_entry(table, r, classes.labels[group.index(b)]))
            chiy = evaluate(group.root_order, table_entry(table, r, classes.labels[group.index(y)]))
            assert abs(chib * chib - chiy) < 1e-9


def test_orthogonality_passes(s3, d4, q8, sd16):
    # the exact certificate passes on every real table: the conftest groups,
    # Dic(C3 x C4), G2(16, 7, 8) and seeded general groups up to |G| = 256,
    # some with y != 0; the float references of both orthogonality
    # relations and of the idempotent relations hold on them too
    seeded = random_general_instances(8, 256, seed=2701)
    assert any(any(g.square) for g in seeded) and max(g.order for g in seeded) > 128
    dic_c3_c4 = dicyclic([(3, 1), (2, 2)], [0, 2])
    for group in (s3, d4, q8, sd16, dic_c3_c4, g2_group(16, 7, 8), *seeded):
        table = character_table(group)
        chosen = verify_orthogonality(group, table)
        assert chosen and len(set(chosen)) == len(chosen), group.name
        assert max(float_orthogonality(table)) < 1e-9, group.name
        assert max(float_idempotent_relations(group, table)) < 1e-9, group.name


def with_rows(table, rows):
    return table._replace(exponents=table.exponents[rows], coefficients=table.coefficients[rows])


def test_orthogonality_detects_corruption(d4):
    table = character_table(d4)
    coefficients = table.coefficients.copy()
    coefficients[1, 2] *= -1  # flip one sign of a linear row
    corrupted = table._replace(coefficients=coefficients)
    with pytest.raises(
        OrthogonalityFailure, match=r"^character certificate failed for row 1 chi\[0;2\]: \(a\) "
    ):
        verify_orthogonality(d4, corrupted)
    verify_orthogonality(d4, table)  # the cached table is untouched


def test_certificate_names_a_doubled_and_a_duplicated_row(sd16):
    table = character_table(sd16)
    doubled = table.coefficients.copy()
    doubled[0] *= 2  # 2 chi_0 is still multiplicative, but its norm is 4 |G|
    doubled = table._replace(coefficients=doubled)
    with pytest.raises(
        OrthogonalityFailure,
        match=r"^character certificate failed for row 0 chi\[0;1\]: "
        r"\(c\) sum_k \|Cl_k\| \|chi\(k\)\|\^2 != \|G\|$",
    ):
        verify_orthogonality(sd16, doubled)
    # row 1 a copy of row 0: a real character, so only (b) sees it, and the
    # residues tie as the values do
    copied = with_rows(table, [0, 0, *range(2, len(table.labels))])
    with pytest.raises(
        OrthogonalityFailure, match=r"^character certificate failed for rows 0 and 1: \(b\) equal$"
    ):
        verify_orthogonality(sd16, copied)
    # two pairs of linear rows equal: the first row equal to another is named,
    # with its first copy, whichever pair the forms sort first
    copies = with_rows(table, [2, 1, 2, 1, *range(4, len(table.labels))])
    with pytest.raises(
        OrthogonalityFailure, match=r"^character certificate failed for rows 0 and 2: \(b\) equal$"
    ):
        verify_orthogonality(sd16, copies)
    for planted in (doubled, copied, copies):
        assert_the_reference_message(sd16, planted)


def test_certificate_names_a_swapped_linear_and_two_dimensional_row(sd16):
    # the rows are still the irreducible characters; (0) names the first one
    # whose identity entry is not its label's degree
    table = character_table(sd16)
    linear = next(r for r, label in enumerate(table.labels) if label.degree == 1)
    twodim = next(r for r, label in enumerate(table.labels) if label.degree == 2)
    swap = list(range(len(table.labels)))
    swap[linear], swap[twodim] = twodim, linear
    with pytest.raises(
        OrthogonalityFailure,
        match=r"^character certificate failed for row 0 chi\[0;1\]: \(0\) chi\(1\) != its degree$",
    ):
        verify_orthogonality(sd16, with_rows(table, swap))


def test_certificate_names_an_off_identity_shift():
    # one value of a linear row of Dih(C64) moved by one 128th root: its norm
    # is unchanged, so (a) names the row and the two classes
    group = dihedral([(2, 6)])
    table = character_table(group)
    exponents = table.exponents.copy()
    exponents[2, 5, 0] = (exponents[2, 5, 0] + 1) % table.root_order
    assert table.degrees[2] == 1
    with pytest.raises(
        OrthogonalityFailure,
        match=r"^character certificate failed for row 2 chi\[1;1\]: "
        r"\(a\) omega is not multiplicative at s = 1, b = 5$",
    ):
        verify_orthogonality(group, table._replace(exponents=exponents))


def assert_the_reference_message(group, planted):
    with pytest.raises(OrthogonalityFailure) as reference:
        _exact_certificate(group, planted)
    with pytest.raises(OrthogonalityFailure) as got:
        verify_orthogonality(group, planted)
    assert str(got.value) == str(reference.value)


def _no_exact_reduction(*_):
    raise AssertionError("an exact reduction ran")


def test_modular_certificate_decides_every_real_table(s3, d4, q8, sd16, monkeypatch):
    # the groups of test_orthogonality_passes pass in F_p alone, and the
    # classes S read are those of the exact reference
    dic_c3_c4 = dicyclic([(3, 1), (2, 2)], [0, 2])
    groups = [s3, d4, q8, sd16, dic_c3_c4, g2_group(16, 7, 8), C4_C9,
              *random_general_instances(8, 256, seed=2701)]
    exact = [_exact_certificate(group, character_table(group)) for group in groups]
    monkeypatch.setattr(terw.characters, "reduced_sums", _no_exact_reduction)
    for group, chosen in zip(groups, exact):
        assert verify_orthogonality(group, character_table(group)) == chosen, group.name


def test_verify_makes_no_exact_reduction(monkeypatch, capsys):
    monkeypatch.setattr(terw.characters, "reduced_sums", _no_exact_reduction)
    assert main(["verify", "--kind", "dihedral", "--factors", "2^5", "--format", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {"check": "orthogonality", "ok": True} in checks


def _small_embedding(p, order):
    """(p, powers, units) as ``cyclotomic.embedding`` gives them, for a given prime p = 1 (mod
    order): omega the first x^((p - 1)/order) of multiplicative order exactly order."""
    x, omega = 2, 1
    while any(pow(omega, order // q, p) == 1 for q, _ in factorize(order)):
        omega, x = pow(x, (p - 1) // order, p), x + 1
    powers = np.array([pow(omega, e, p) for e in range(order + 1)], dtype=np.int64)
    return p, powers, terw.characters.embedding(order)[2]


def _patched_primes(monkeypatch, order, primes) -> list:
    """Replace the primes p = 1 (mod order) of the certificate by the given ones, in order;
    return the list of indices asked for."""
    fakes, asked, embedding = [_small_embedding(p, order) for p in primes], [], terw.characters.embedding
    monkeypatch.setattr(terw.characters, "embedding", lambda m, index=0: (
        asked.append(index) or fakes[index] if m == order else embedding(m, index)))
    return asked


def test_primes_past_the_bound_decide_by_crt(monkeypatch):
    # Dih(C8), M = 16, under the primes 17, 97, 113, 193: the clause bound 2 |G|^2 = 512 needs
    # two of them, since 17 < 2 * 512 < 17 * 97.  17 added to a coefficient of the trivial row
    # keeps every residue mod 17 and the row Galois-fixed, and raises c_max to 18, so the bound
    # needs all four; the second prime names (c)
    group = dihedral([(2, 3)])
    table = character_table(group)
    assert table.root_order == 16 and _clause_bound(table) == 512
    asked = _patched_primes(monkeypatch, 16, [17, 97, 113, 193])
    monkeypatch.setattr(terw.characters, "reduced_sums", _no_exact_reduction)
    assert verify_orthogonality(group, table) == _exact_certificate(group, table)
    assert asked == [0, 1]

    coefficients = table.coefficients.copy()
    coefficients[0, 1, 0] += 17
    planted = table._replace(coefficients=coefficients)
    sizes = np.array(table.classes.sizes)
    for p, powers, _ in map(_small_embedding, (17, 97), (16, 16)):
        e, c = planted.exponents[:1], planted.coefficients[:1]
        res = _residues(e, c, p, powers) * _residues(e, c, p, powers[::-1]) % p
        assert (res @ sizes % p == group.order % p).all() == (p == 17)
    asked.clear()
    with pytest.raises(
        OrthogonalityFailure,
        match=r"^character certificate failed for row 0 chi\[0;1\]: "
        r"\(c\) sum_k \|Cl_k\| \|chi\(k\)\|\^2 != \|G\|$",
    ):
        verify_orthogonality(group, planted)
    assert asked == [0, 1, 2, 3]
    monkeypatch.undo()
    assert_the_reference_message(group, planted)


def test_rows_tied_under_a_small_prime_are_told_apart_under_the_next(monkeypatch):
    # under a prime p = 1 (mod M), p does not divide |G|, so the rows of a right table never tie
    # mod p; a row equal to another mod 17 and not otherwise does.  Row 1 of Dih(C8) becomes row 0
    # with 17 added to one coefficient: the certificate separates the two under 97 and names
    # the reference's failure, where a (b) tie would name rows 0 and 1
    group = dihedral([(2, 3)])
    table = character_table(group)
    exponents, coefficients = table.exponents.copy(), table.coefficients.copy()
    exponents[1], coefficients[1] = exponents[0], coefficients[0]
    coefficients[1, 3, 0] += 17
    tied = table._replace(exponents=exponents, coefficients=coefficients)
    _patched_primes(monkeypatch, 16, [17, 97, 113, 193])
    told, telling_apart = [], terw.characters._telling_apart
    monkeypatch.setattr(terw.characters, "_telling_apart",
                        lambda *args: told.append(found := telling_apart(*args)) or found)
    assert_the_reference_message(group, tied)
    assert [found[0] for found in told] == [97]
    with pytest.raises(OrthogonalityFailure, match=r"^character certificate failed for row 1 "):
        verify_orthogonality(group, tied)

    # a copy written differently, 2 z^e - z^e for z^e: equal under every ev sigma_u, so (b)
    exponents[1], coefficients[1] = exponents[0], coefficients[0]
    k = next(k for k in range(len(table.labels)) if coefficients[0, k, 1] == 0)
    exponents[1, k, 1] = exponents[1, k, 0]
    coefficients[1, k] = 2 * coefficients[1, k, 0], -coefficients[1, k, 0]
    with pytest.raises(
        OrthogonalityFailure, match=r"^character certificate failed for rows 0 and 1: \(b\) equal$"
    ):
        verify_orthogonality(group, table._replace(exponents=exponents, coefficients=coefficients))
    assert told[-1] is None


def test_a_huge_coefficient_certifies_by_crt_on_python_ints():
    # z^e written (2^40 + 1) z^e + 2^40 z^(e + M/2): the same value, a bound past 2^89 that takes
    # three primes, and canonical codes past int64, so the Galois match runs on Python ints;
    # with 2^13 the codes pass int32 and the match runs in int64
    group = dihedral([(2, 3)])
    table = character_table(group)
    exponents, coefficients = table.exponents.copy(), table.coefficients.copy()
    j, k = next((j, k) for j in range(len(table.labels)) for k in range(len(table.labels))
                if coefficients[j, k, 1] == 0 and coefficients[j, k, 0] == 1)
    exponents[j, k, 1] = (exponents[j, k, 0] + table.root_order // 2) % table.root_order
    coefficients[j, k] = 2**40 + 1, 2**40
    huge = table._replace(exponents=exponents, coefficients=coefficients)
    assert 2 * _clause_bound(huge) > terw.characters.embedding(16)[0] ** 2
    assert verify_orthogonality(group, huge) == verify_orthogonality(group, table)
    coefficients[j, k] = 2**13 + 1, 2**13
    assert 2**31 < (8 * (4 * (2**13 + 1) + 1)) ** 2 < 2**63  # (M/2 (4 c_max + 1))^2
    wide = table._replace(exponents=exponents, coefficients=coefficients)
    assert verify_orthogonality(group, wide) == verify_orthogonality(group, table)


def test_a_coefficient_raised_by_p_lifts_the_bound_to_p_over_2():
    for group in (dihedral([(2, 3)]), C4_C9, g2_group(16, 7, 8)):
        table = character_table(group)
        p = terw.characters.embedding(table.root_order)[0]
        assert 2 * _clause_bound(table) < p
        coefficients = table.coefficients.copy()
        coefficients[-1, 0, 0] += p
        assert 2 * _clause_bound(table._replace(coefficients=coefficients)) >= p


def test_equal_exponents_merge_before_the_galois_match(monkeypatch):
    # one value z^e of a linear row of C4 x C9 written as 2 z^e - z^e: the table is right, and
    # once the two terms merge, sigma_u of that row matches a row
    table = character_table(C4_C9)
    order, unit = table.root_order, terw.characters.embedding(table.root_order)[2][0]
    j, k = next((j, k) for j in range(len(table.labels)) for k in range(len(table.labels))
                if table.coefficients[j, k, 1] == 0 and table.exponents[j, k, 0] * unit % order
                != table.exponents[j, k, 0])
    exponents, coefficients = table.exponents.copy(), table.coefficients.copy()
    exponents[j, k, 1] = exponents[j, k, 0]
    coefficients[j, k] = 2 * coefficients[j, k, 0], -coefficients[j, k, 0]
    rewritten = table._replace(exponents=exponents, coefficients=coefficients)
    monkeypatch.setattr(terw.characters, "reduced_sums", _no_exact_reduction)
    assert verify_orthogonality(C4_C9, rewritten) == verify_orthogonality(C4_C9, table)


def test_a_row_without_a_galois_image_fails():
    # z^e of a linear row of C4 x C9 (M = 72) written z^(e - 12) + z^(e + 12), the same value
    # since z^12 + z^-12 = 1: every clause holds, but the canonical forms of that row and of its
    # preimage no longer match under a unit.  The reference certifies the table
    table = character_table(C4_C9)
    order, unit = table.root_order, terw.characters.embedding(table.root_order)[2][0]
    j, k = next((j, k) for j in range(len(table.labels)) for k in range(len(table.labels))
                if table.degrees[j] == 1 and table.coefficients[j, k, 1] == 0
                and table.exponents[j, k, 0] * unit % order != table.exponents[j, k, 0])
    exponents, coefficients = table.exponents.copy(), table.coefficients.copy()
    exponents[j, k] = (exponents[j, k, 0] - 12) % order, (exponents[j, k, 0] + 12) % order
    coefficients[j, k] = coefficients[j, k, 0], coefficients[j, k, 0]
    rewritten = table._replace(exponents=exponents, coefficients=coefficients)
    assert _exact_certificate(C4_C9, rewritten) == _exact_certificate(C4_C9, table)
    with pytest.raises(
        OrthogonalityFailure,
        match=r"^character certificate failed for row \d+ chi\[[\d,]+;\d\]: "
        r"\(g\) z -> z\^\d+ maps it to no row$",
    ):
        verify_orthogonality(C4_C9, rewritten)


def test_single_exponent_plants_fail_with_the_exact_message():
    # every nonzero term of Dih(C32) at the identity class and the two coset
    # classes moved by one 64th root: 42 wrong tables, each refused with the
    # message the exact reference gives
    group = dihedral([(2, 5)])
    table = character_table(group)
    columns = [0, *(c.index for c in table.classes if c.kind == COSET)]
    plants = [(j, k, t) for j in range(len(table.labels)) for k in columns for t in (0, 1)
              if table.coefficients[j, k, t]]
    assert len(plants) == 42
    for j, k, t in plants:
        exponents = table.exponents.copy()
        exponents[j, k, t] = (exponents[j, k, t] + 1) % table.root_order
        assert_the_reference_message(group, table._replace(exponents=exponents))


def test_certificate_peaks_at_its_kept_arrays():
    # Dih(C2048), l = 1027: the table's arrays are 32.2 MiB; the certificate keeps
    # the (l, l) residues of (b) and the int32 canonical codes of the Galois match
    # whole, and forms the rest a block of rows at a time.  It peaks at 34.3 MiB,
    # with the residues of both signs and one codes-sized temporary of the class of s
    group = dihedral([(2, 11)])
    table = character_table(group)
    structure_tensor(group)  # a per-group artefact, built before tracing
    tracemalloc.start()
    try:
        verify_orthogonality(group, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * 2**20


def test_class_sums_match_the_complex_values_across_blocks():
    # Dih(C256): l = 131 and M = 512 take two blocks of rows
    group = dihedral([(2, 8)])
    table = character_table(group)
    mat = complex_values(table)
    weights = np.random.default_rng(5).integers(-2, 3, size=len(table.labels))
    for w in (np.ones_like(weights), weights):
        values, exact = table.class_sums(w)
        ref = mat.conj() @ w
        assert exact.tolist() == np.isclose(ref, np.round(ref.real), atol=1e-6).tolist()
        assert values[exact].tolist() == np.round(ref.real[exact]).astype(int).tolist()
    assert 0 < exact.sum() < len(exact)


def test_table_peaks_at_what_it_keeps():
    # each integer product is written straight into its block of the two
    # kept (l, l, 2) arrays: no (l, l) temporary is formed beside them
    group = dihedral([(2, 9)])  # Dih(C512), |G| = 1024, l = 259
    character_labels(group)  # per-group artefacts, built before tracing
    tracemalloc.start()
    try:
        table = character_table(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = table.exponents.nbytes + table.coefficients.nbytes
    assert peak <= kept + len(table.labels) ** 2 * 8


def test_table_checks_the_enumeration_limit_before_any_work(monkeypatch, capsys):
    # two (l, l, 2) int64 arrays are 2.15 GB at Dih(C16384), l = 8195
    group = dihedral([(2, 6)])  # fresh, so that nothing is built yet
    monkeypatch.setattr(terw.characters, "ENUMERATION_LIMIT", 127)
    with pytest.raises(GuardExceededError, match="^group order 128 exceeds guard 127 for the char"):
        character_table(group)
    assert not group._memo  # not even the classes
    assert main(["chartable", "--kind", "dihedral", "--factors", "2^6"]) == EXIT_GUARD
    err = "error: group order 128 exceeds guard 127 for the character table\n"
    assert capsys.readouterr() == ("", err)


def test_exports(d4):
    table = character_table(d4)
    text = table.to_text()
    assert text.count("\n") == len(table.labels)
    csv_body = table.to_csv()
    assert csv_body.splitlines()[0].startswith("character,")
    data = json.loads(table.to_json({}))
    assert len(data["characters"]) == len(table.labels)
    assert data["characters"][0]["degree"] == 1
    # terms round-trip to the evaluated complex value
    entry = data["characters"][-1]["values"][0]
    z = evaluate(data["root_order"], normalise(data["root_order"], entry["terms"]))
    assert abs(z.real - entry["complex"][0]) < 1e-12
    assert abs(z.imag - entry["complex"][1]) < 1e-12


@st.composite
def groups_up_to_96(draw):
    """A valid (A, s, y) with |G| <= 96: a nontrivial diagonal twist s and a
    square y fixed by it."""
    factors = draw(st.sampled_from(abelian_factorizations(draw(st.integers(3, 48)))))
    abelian = make_abelian(factors)
    roots = [square_roots_of_unity(m) for m in abelian.moduli]
    s = draw(st.tuples(*(st.sampled_from(r) for r in roots)).filter(lambda s: any(v != 1 for v in s)))
    # s_i y_i = y_i (mod m_i) iff y_i is a multiple of m_i / gcd(s_i - 1, m_i)
    steps = [m // math.gcd(v - 1, m) for v, m in zip(s, abelian.moduli)]
    y = draw(st.tuples(*(st.integers(0, m // k - 1) for k, m in zip(steps, abelian.moduli))))
    return D2Group(abelian, make_involution(abelian, s), [k * t for k, t in zip(steps, y)])


@settings(max_examples=40, deadline=None)
@example(group=C4_C9)
@given(group=groups_up_to_96())
def test_table_arrays_match_the_oracle(group):
    # every entry of the integer arrays is the value char_value computes on
    # its own, the sign swap permutes rows, and both exact multiplicity
    # routes give the closed form
    table = character_table(group)
    for r, label in enumerate(table.labels):
        for cls in table.classes:
            assert table_entry(table, r, cls.index) == char_value(group, label, cls)
    assert exact_rows(sign_swapped(table)) == exact_rows(table)
    closed = multiplicities_closed_form(group).values
    assert multiplicities_char_sum(group, table).values == closed
    assert multiplicities_inner_product(group, table).values == closed


def test_chartable_json_matches_the_oracle_beyond_s3(capsys):
    argv = ["--kind", "general", "--factors", "2^2,3^2", "--s", "3,1", "--y", "0,1"]
    assert main(["chartable", *argv, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    group, table = C4_C9, character_table(C4_C9)
    assert data["root_order"] == group.root_order == 72
    assert [c["label"] for c in data["characters"]] == [l.describe() for l in table.labels]
    for label, row in zip(table.labels, data["characters"]):
        for cls, entry in zip(table.classes, row["values"]):
            want = char_value(group, label, cls)
            assert [tuple(t) for t in entry["terms"]] == sorted(want.items())
            z = evaluate(group.root_order, want)
            assert entry["complex"] == [z.real, z.imag]


def _general_spec(group):
    return {
        "kind": "general",
        "factors": [[f.p, f.e] for f in group.abelian.factors],
        "s": list(group.twist.s),
        "y": list(group.square),
    }


def first_difference(got, want):
    """The first index where two sequences differ, or None; pytest's own
    diff of two reports of about 1 MB would take minutes."""
    if got == want:
        return None
    differ = (i for i, (a, b) in enumerate(zip(got, want)) if a != b)
    return next(differ, min(len(got), len(want)))


CHARTABLE_SPECS = [
    {"kind": "dihedral", "factors": [[3, 1]]},
    _general_spec(C4_C9),
    *(_general_spec(g) for g in random_general_instances(4, 384, seed=2)),
]


def chartable_argv(data):
    argv = ["chartable"]
    for key, value in data.items():
        argv += [f"--{key}", json.dumps(value) if isinstance(value, list) else str(value)]
    return argv


@pytest.mark.parametrize("data", CHARTABLE_SPECS, ids=lambda d: json.dumps(d).replace(" ", ""))
def test_chartable_json_is_byte_identical_to_the_dict_reference(data, tmp_path, capsys):
    # S3, C4 x C9 and seeded groups up to |G| = 376 against json.dumps of the
    # whole report; the sign-2 linear characters put -1 on the coset classes
    argv = [*chartable_argv(data), "--format", "json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    spec = GroupSpec.from_dict(data)
    group = spec.build()
    table = character_table(group)
    assert (table.coefficients == -1).any()
    want = json.dumps({"spec": spec.to_dict(), "name": group.name, **chartable_json_dict(table)})
    assert first_difference(out, want + "\n") is None
    path = tmp_path / "chartable.json"
    assert main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert first_difference(path.read_bytes(), out.encode()) is None


@pytest.mark.parametrize("data", CHARTABLE_SPECS, ids=lambda d: json.dumps(d).replace(" ", ""))
def test_chartable_text_and_csv_are_byte_identical_to_the_references(data, capsys):
    # the same groups, every entry formatted on its own from table.value
    argv = chartable_argv(data)
    table = character_table(GroupSpec.from_dict(data).build())
    assert main([*argv, "--format", "text"]) == 0
    assert first_difference(capsys.readouterr().out, chartable_text(table) + "\n") is None
    assert main([*argv, "--format", "csv"]) == 0
    assert first_difference(capsys.readouterr().out, chartable_csv(table)) is None


@pytest.mark.parametrize("group", [dihedral([(3, 1)]), C4_C9], ids=["S3", "C4xC9"])
def test_exports_read_the_tests_evaluation_bit_for_bit(group):
    # complex_values, the JSON floats and the CSV digits come from the value that
    # evaluate sums from 0j over each normalised entry: the same float operations
    # in the same order, so equal to the last bit
    table = character_table(group)
    want = complex_values(table)
    assert table.complex_values().tobytes() == want.tobytes()
    data = json.loads(table.to_json({}))
    got = [[complex(*entry["complex"]) for entry in row["values"]] for row in data["characters"]]
    assert np.array(got).tobytes() == want.tobytes()
    assert table.to_csv() == chartable_csv(table)


# (e1, e2, c1, c2) of planted entries: zero ones, with and without an
# exponent on an absent term, a lone +-z^e in either slot, merged 2z^e and
# a cancelled z^e - z^e, two terms stored out of order, and coefficients
# +-2 and +-3, which widen the span of the coefficient codes
PLANTED_ENTRIES = [
    (0, 0, 0, 0), (3, 5, 0, 0),
    (1, 0, 1, 0), (2, 0, -1, 0), (0, 3, 0, 1), (4, 5, 0, -1),
    (3, 3, 1, 1), (2, 2, 1, -1), (5, 5, -3, 2),
    (5, 1, 1, 1), (7, 2, -1, 1), (6, 0, 2, -3),
    (1, 4, 3, -2), (0, 0, -2, 0), (0, 7, 3, 3),
]


def planted_tables(table):
    """``table`` with PLANTED_ENTRIES written over its first cells, row by
    row, and with every cell drawn at random from exponents below the root
    order and coefficients in -3..3."""
    ell, order = len(table.labels), table.root_order
    exponents, coefficients = table.exponents.copy(), table.coefficients.copy()
    for k, (e1, e2, c1, c2) in enumerate(PLANTED_ENTRIES):
        cell = divmod(k, ell)
        exponents[cell] = (e1 % order, e2 % order)
        coefficients[cell] = (c1, c2)
    rng = np.random.default_rng(32)
    drawn = (rng.integers(0, order, size=(ell, ell, 2)), rng.integers(-3, 4, size=(ell, ell, 2)))
    return [table._replace(exponents=exponents, coefficients=coefficients),
            table._replace(exponents=drawn[0], coefficients=drawn[1])]


@pytest.mark.parametrize("group", [dihedral([(2, 3)]), C4_C9], ids=["Dih(C8)", "C4xC9"])
def test_exports_of_planted_entries_match_the_references(group):
    head = {"name": group.name}
    for table in planted_tables(character_table(group)):
        assert table.complex_values().tobytes() == complex_values(table).tobytes()
        assert table.to_json(head) == json.dumps({**head, **chartable_json_dict(table)})
        assert table.to_text() == chartable_text(table)
        assert table.to_csv() == chartable_csv(table)
