"""Family enumeration and reproducible random sampling."""

import json
from math import prod
from pathlib import Path

from terw.instances import (
    abelian_factorizations,
    dicyclic_instances,
    dihedral_instances,
    g2_instances,
    g2_parameter_triples,
    random_general_instances,
)


def test_abelian_counts_by_order():
    # number of abelian groups of order n = product of partition counts
    want = {4: 2, 8: 3, 12: 2, 16: 5, 36: 4}
    for order, count in want.items():
        lists = abelian_factorizations(order)
        assert len(lists) == count
        for factors in lists:
            assert prod(p**e for p, e in factors) == order


def test_dihedral_instances_skip_exponent_two():
    groups = dihedral_instances(range(3, 9))
    names = {g.abelian.describe() for g in groups}
    assert "C2 x C2" not in names
    assert "C2 x C2 x C2" not in names
    assert "C4" in names and "C2 x C4" in names
    # orders 3..8 avec 2 groups at 4 (one excluded), 3 at 8 (one excluded)
    assert len(groups) == 1 + 1 + 1 + 1 + 1 + 2


def test_dicyclic_instances_enumerate_squares():
    groups = dicyclic_instances([4, 8])
    # C4 (1 involution) + C8 (1) + C2xC4 (3); C2^2 and C2^3 have no valid twist
    assert len(groups) == 5
    for g in groups:
        assert g.d == 2 ** g.abelian.lam


def test_g2_triples_satisfy_congruences():
    triples = g2_parameter_triples(12)
    assert (8, 3, 0) in triples and (8, 3, 4) in triples
    assert (3, 2, 0) in triples  # S3
    for n, s, t in triples:
        assert (s * s) % n == 1 and s != 1
        assert (t * (s - 1)) % n == 0
    groups = g2_instances(8)
    assert all(g.order <= 16 for g in groups)


def test_random_instances_reproducible():
    a = random_general_instances(10, 48, seed=5)
    b = random_general_instances(10, 48, seed=5)
    assert [g.name for g in a] == [g.name for g in b]
    assert all(g.order <= 48 for g in a)
    assert all(g.order >= 6 for g in a)
    c = random_general_instances(10, 48, seed=6)
    assert [g.name for g in c] != [g.name for g in a]


def test_seeded_instances_keep_their_names():
    # the names the seeded batches of the tests drew before the twist's d_i
    # came from abelian.fixed_data; the same draws give the same groups
    path = Path(__file__).parent / "data" / "seeded_instance_names.json"
    recorded = json.loads(path.read_text())
    assert len(recorded) == 10
    for batch in recorded:
        groups = random_general_instances(
            batch["count"], batch["max_group_order"], seed=batch["seed"]
        )
        assert [g.name for g in groups] == batch["names"], batch["seed"]
