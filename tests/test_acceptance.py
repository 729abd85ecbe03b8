"""Acceptance suite: every criterion at its stated tolerance, one line each.

The instance corpus: every generalized dihedral group with |A| in 3..16,
every generalized dicyclic group with |A| in {4, 6, 8, 12, 16}, every valid
(n, s, t) cyclic-extension with n <= 16, and 50 seeded random general
instances with |G| <= 48.  Criterion tests share per-instance computations
through a session-scoped cache.
"""

import time
from functools import cached_property

import numpy as np
import pytest
from dense_reference import class_members, table_entry

from terw import (
    character_table,
    conjugacy_classes,
    conjugacy_classes_bruteforce,
    dicyclic,
    dihedral,
    dim_centralizer,
    dim_closed_form,
    dim_t0,
    g2_group,
    multiplicities_char_sum,
    multiplicities_closed_form,
    multiplicities_inner_product,
    terwilliger_closure_dim,
    verify_central_idempotents,
    verify_orthogonality,
    verify_scheme_axioms,
)
from terw.conjugacy import COSET, PAIRED, class_products
from terw.instances import (
    dicyclic_instances,
    dihedral_instances,
    g2_instances,
    random_general_instances,
)


class Bundle:
    """Lazily computed per-instance results, shared across criteria; the
    classes and the character table are cached on the group itself."""

    def __init__(self, group, family):
        self.group = group
        self.family = family

    @cached_property
    def dims(self):
        return {
            "t0": dim_t0(self.group),
            "closed": dim_closed_form(self.group),
            "centralizer": dim_centralizer(self.group),
            "closure": terwilliger_closure_dim(self.group),
        }

    @cached_property
    def multiplicities(self):
        table = character_table(self.group)
        return {
            "closed": multiplicities_closed_form(self.group),
            "char_sum": multiplicities_char_sum(self.group, table),
            "inner": multiplicities_inner_product(self.group, table),
        }


@pytest.fixture(scope="session")
def corpus():
    instances = []
    for group in dihedral_instances(range(3, 17)):
        instances.append(Bundle(group, "dihedral"))
    for group in dicyclic_instances([4, 6, 8, 12, 16]):
        instances.append(Bundle(group, "dicyclic"))
    for group in g2_instances(16):
        instances.append(Bundle(group, "g2"))
    for group in random_general_instances(50, 48, seed=20240801):
        instances.append(Bundle(group, "random"))
    return instances


def brute_centralizer_dim(group):
    """Independent oracle: scan centralizer orders elementwise."""
    elems = list(group.elements())
    total = 0
    for g in elems:
        c = sum(1 for h in elems if group.mul(g, h) == group.mul(h, g))
        total += c * c
    assert total % group.order == 0
    return total // group.order


def _report(criterion, detail):
    print(f"ACCEPTANCE PASS criterion {criterion}: {detail}")


def test_criterion_1_formula_vs_oracles(corpus):
    """Closed form = triple count = centralizer dim = closure dim, exactly."""
    start = time.time()
    families = {"dihedral": 0, "dicyclic": 0, "g2": 0, "random": 0}
    for bundle in corpus:
        group = bundle.group
        dims = bundle.dims
        n, d = group.n, group.d
        want = (3 * n * d + n * n + 4 * d * d) // 2
        assert dims["closed"] == want
        assert dims["t0"] == want, f"{group.name}: triple count {dims['t0']} != {want}"
        assert dims["centralizer"] == want, f"{group.name}: centralizer {dims['centralizer']} != {want}"
        assert dims["closure"] == want, f"{group.name}: closure {dims['closure']} != {want}"
        families[bundle.family] += 1
    elapsed = time.time() - start
    assert families["dihedral"] >= 20
    assert families["dicyclic"] >= 10
    assert families["g2"] >= 20
    assert families["random"] >= 50
    _report(1, f"{len(corpus)} instances {families}, all four paths equal ({elapsed:.1f}s)")


def test_criterion_2_named_dimensions():
    """S3 -> 11, D4 -> 28, Q8 -> 28, the order-16 semidihedral -> 64."""
    named = [
        ("S3", dihedral([(3, 1)]), 11),
        ("D4", dihedral([(2, 2)]), 28),
        ("Q8", dicyclic([(2, 2)], [2]), 28),
        ("G2(8,3,0)", g2_group(8, 3, 0), 64),
    ]
    for name, group, want in named:
        assert brute_centralizer_dim(group) == want, f"{name}: oracle disagrees"
        assert dim_closed_form(group) == want
        assert dim_t0(group) == want
        assert terwilliger_closure_dim(group) == want
    _report(2, "S3=11, D4=28, Q8=28, G2(8,3,0)=64 via centralizer-scan oracle")


def test_criterion_3_family_special_cases(corpus):
    """Dicyclic instances give 2m^2 + 6m + 8 with |A| = 2m; dihedral d = 2^lambda."""
    checked_dic = checked_dih = 0
    for bundle in corpus:
        group = bundle.group
        if bundle.family == "dihedral":
            assert group.d == 2**group.abelian.lam, group.name
            checked_dih += 1
        elif bundle.family == "dicyclic" and group.abelian.lam == 1:
            # the classical dicyclic family presumes a unique involution
            m = group.n // 2
            assert group.d == 2
            assert dim_closed_form(group) == 2 * m * m + 6 * m + 8, group.name
            checked_dic += 1
    assert checked_dih >= 20 and checked_dic >= 5
    _report(3, f"{checked_dic} dicyclic special-case values, {checked_dih} dihedral d=2^lambda")


def test_criterion_4_character_tables(corpus):
    """Row count, degree identity, the exact character certificate, exact coset zeros."""
    for bundle in corpus:
        table = character_table(bundle.group)
        assert len(table.labels) == len(conjugacy_classes(bundle.group))
        assert sum(deg * deg for deg in table.degrees) == bundle.group.order
        assert verify_orthogonality(bundle.group, table)
        for r, label in enumerate(table.labels):
            if label.degree == 2:
                for cls in table.classes:
                    if cls.kind == COSET:
                        assert not table_entry(table, r, cls.index)
    _report(4, f"tables on {len(corpus)} instances: counts, degrees, certificate, coset zeros")


def test_criterion_5_multiplicity_agreement(corpus):
    """Closed form = char sum = inner product; sum d^2 and sum d*deg identities."""
    for bundle in corpus:
        group = bundle.group
        vecs = bundle.multiplicities
        assert vecs["closed"].values == vecs["char_sum"].values == vecs["inner"].values, group.name
        assert vecs["closed"].sum_d_sq == bundle.dims["centralizer"], group.name
        assert vecs["closed"].sum_d_deg() == group.order, group.name

    for group, want in [
        (dihedral([(3, 1)]), (3, 1, 1)),
        (dihedral([(2, 2)]), (5, 1, 1, 1, 0)),
        (dicyclic([(2, 2)], [2]), (5, 1, 1, 1, 0)),
    ]:
        table = character_table(group)
        assert multiplicities_inner_product(group, table).values == want
        assert multiplicities_closed_form(group).values == want
    _report(5, f"three-way agreement on {len(corpus)} instances + named vectors")


def test_criterion_6_idempotent_oracle(corpus):
    """e_j^2 = e_j, pairwise zero, resolution of identity, block dims d_j^2."""
    checked = 0
    for bundle in corpus:
        if bundle.group.order > 32:
            continue
        values = bundle.multiplicities["inner"].values
        block_dims = verify_central_idempotents(bundle.group, character_table(bundle.group), values)
        assert block_dims == tuple(v * v for v in values)
        checked += 1
    assert checked >= 60
    _report(6, f"idempotents verified on {checked} instances with |G| <= 32")


def test_criterion_7_structural_suite(corpus):
    """Scheme axioms; paired-product distinctness; coset-product partition;
    closed-form vs brute-force class partitions."""
    for bundle in corpus:
        group = bundle.group
        classes = conjugacy_classes(group)
        verify_scheme_axioms(group)

        brute = conjugacy_classes_bruteforce(group)
        members = class_members(group, classes)
        assert class_members(group, brute) == members, group.name
        assert [c.kind for c in brute] == [c.kind for c in classes]

        paired = [c for c in classes if c.kind == PAIRED]
        for u in paired:
            for v in paired:
                y_r, y_j = u.rep[0], v.rep[0]
                one = classes.labels[group.index((group.abelian.mul(y_r, y_j), 0))]
                other = classes.labels[
                    group.index((group.abelian.mul(y_r, group.twist.apply(y_j)), 0))
                ]
                assert one != other, group.name
                assert class_products(group, u.index, v.index) == {one, other}

        cosets = [c for c in classes if c.kind == COSET]
        for r in cosets:
            seen: set = set()
            for j in cosets:
                prod = {group.mul(u, v) for u in members[r.index] for v in members[j.index]}
                assert not (seen & prod), group.name
                seen |= prod
            assert len(seen) == group.n
            assert all(beta == 0 for _, beta in seen)
    _report(7, f"axioms + class-product structure on {len(corpus)} instances")


def test_criterion_8_sandwich_monotonicity(corpus):
    """dim T0 <= dim T <= dim of the centralizer algebra, reported by inclusion."""
    for bundle in corpus:
        dims = bundle.dims
        assert dims["t0"] <= dims["closure"], (
            f"{bundle.group.name}: sandwich broke at T0 <= T "
            f"({dims['t0']} > {dims['closure']})"
        )
        assert dims["closure"] <= dims["centralizer"], (
            f"{bundle.group.name}: sandwich broke at T <= centralizer "
            f"({dims['closure']} > {dims['centralizer']})"
        )
    _report(8, f"sandwich inclusions on {len(corpus)} instances")
