"""Character tables: counts, known tables, homomorphism and class-constancy
properties, orthogonality, and the fault-injection path."""

import dataclasses
import json

import pytest

from terw import (
    LinearLabel,
    OrthogonalityFailure,
    RootSum,
    TwoDimLabel,
    char_value,
    character_labels,
    character_table,
    conjugacy_classes,
    dihedral,
    g2_group,
    make_abelian,
    make_d2,
    make_involution,
    verify_orthogonality,
)
from terw.conjugacy import COSET


def complex_row(table, r):
    return [v.eval_complex() for v in table.rows[r]]


def test_label_counts(s3, d4, sd16):
    for group, linear, twodim in [(s3, 2, 1), (d4, 4, 1), (sd16, 4, 3)]:
        labels = character_labels(group)
        assert sum(1 for l in labels if isinstance(l, LinearLabel)) == linear
        assert sum(1 for l in labels if isinstance(l, TwoDimLabel)) == twodim
        assert len(labels) == len(conjugacy_classes(group))


def test_degree_identity():
    for group in [dihedral([(2, 1), (3, 1)]), g2_group(9, 8, 0), dihedral([(2, 2), (2, 1)])]:
        labels = character_labels(group)
        assert sum(l.degree**2 for l in labels) == group.order


def test_s3_table_is_standard(s3):
    table = character_table(s3)
    # classes: {e}, {a, a^2}, reflections
    rows = {tuple(round(v.eval_complex().real, 9) for v in row) for row in table.rows}
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
    assert table.value(row, col) == RootSum(d4.root_order, {0: -1})


def test_trivial_character_is_all_ones(s3, d4, q8, sd16):
    for group in (s3, d4, q8, sd16):
        table = character_table(group)
        assert all(v.is_integer() == 1 for v in table.rows[0])
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
                    lhs = table.rows[r][classes.index_of(group.mul(g, h))]
                    rhs = table.rows[r][classes.index_of(g)] * table.rows[r][classes.index_of(h)]
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
            chib = table.rows[r][classes.index_of(b)].eval_complex()
            chiy = table.rows[r][classes.index_of(y)].eval_complex()
            assert abs(chib * chib - chiy) < 1e-9


def test_twodim_vanishes_on_cosets_exactly(sd16):
    table = character_table(sd16)
    for r, label in enumerate(table.labels):
        if isinstance(label, TwoDimLabel):
            for cls in table.classes:
                if cls.kind == COSET:
                    assert table.rows[r][cls.index].is_zero_exact()


def test_values_constant_on_classes():
    group = make_d2(
        make_abelian([(2, 3), (3, 1)]),
        make_involution(make_abelian([(2, 3), (3, 1)]), [3, 2]),
        [4, 0],
    )
    classes = conjugacy_classes(group)
    table = character_table(group)
    # recompute each value from every member of the class, not just the rep
    for r, label in enumerate(table.labels):
        for cls in classes:
            want = table.rows[r][cls.index].eval_complex()
            for g in cls.elements:
                single = type(cls)(
                    kind=cls.kind, rep=g, elements=(g,), index=cls.index
                )
                got = char_value(group, label, single).eval_complex()
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
            assert char_value(group, partner, cls) == table.rows[r][cls.index]


def test_table_multiset_invariant_under_sign_swap(sd16):
    # swapping the two square-root signs permutes rows only
    table = character_table(sd16)
    swapped = {}
    for r, label in enumerate(table.labels):
        if isinstance(label, LinearLabel):
            partner = LinearLabel(i_vec=label.i_vec, sign=3 - label.sign)
            swapped[r] = table.labels.index(partner)
        else:
            swapped[r] = r
    original = sorted(
        tuple(round(v.eval_complex().real, 9) for v in row) for row in table.rows
    )
    permuted = sorted(
        tuple(round(v.eval_complex().real, 9) for v in table.rows[swapped[r]])
        for r in range(len(table.rows))
    )
    assert original == permuted


def test_odd_coordinate_square_needs_doubled_root_order():
    # C4 x C9 with the twist fixing the C9 coordinate and y = (0, 1): the
    # coset values are 18th roots of unity, not 9th
    abelian = make_abelian([(2, 2), (3, 2)])
    group = make_d2(abelian, make_involution(abelian, [3, 1]), [0, 1])
    table = character_table(group)
    verify_orthogonality(table)
    classes = table.classes
    b = (group.abelian.identity, 1)
    y = (group.square, 0)
    for r, label in enumerate(table.labels):
        if isinstance(label, LinearLabel):
            chib = table.rows[r][classes.index_of(b)].eval_complex()
            chiy = table.rows[r][classes.index_of(y)].eval_complex()
            assert abs(chib * chib - chiy) < 1e-9


def test_orthogonality_passes(s3, d4, q8, sd16):
    for group in (s3, d4, q8, sd16):
        report = verify_orthogonality(character_table(group))
        assert report.first_max_deviation < 1e-9
        assert report.second_max_deviation < 1e-9


def test_orthogonality_detects_corruption(d4):
    table = character_table(d4)
    rows = [list(row) for row in table.rows]
    rows[1][2] = -rows[1][2]  # flip one sign
    corrupted = dataclasses.replace(table, rows=tuple(map(tuple, rows)))
    with pytest.raises(OrthogonalityFailure):
        verify_orthogonality(corrupted)
    verify_orthogonality(table)  # the cached table is untouched


def test_exports(d4):
    table = character_table(d4)
    text = table.to_text()
    assert text.count("\n") == len(table.rows)
    csv_body = table.to_csv()
    assert csv_body.splitlines()[0].startswith("character,")
    data = json.loads(json.dumps(table.to_json_dict()))
    assert len(data["characters"]) == len(table.rows)
    assert data["characters"][0]["degree"] == 1
    # terms round-trip to the evaluated complex value
    entry = data["characters"][-1]["values"][0]
    v = RootSum(data["root_order"], {e: c for e, c in entry["terms"]})
    z = v.eval_complex()
    assert abs(z.real - entry["complex"][0]) < 1e-12
    assert abs(z.imag - entry["complex"][1]) < 1e-12
