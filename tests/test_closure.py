"""Algebra-closure oracles: generic flattened path vs orbit-coordinate path."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from dense_reference import (
    FractionBasis,
    conjugate,
    dense_algebra_dimension,
    fraction_closure_rank,
    per_row_orbit_products,
    two_sided_algebra_dimension,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_tables import CENTRALIZER_GROUPS

import terw.closure

from terw import (
    D2Group,
    GuardExceededError,
    OracleMismatch,
    adjacency_matrices,
    algebra_dimension,
    conjugacy_classes,
    conjugation_orbitals,
    dicyclic,
    dihedral,
    dim_centralizer,
    dim_closed_form,
    dim_t0,
    dual_idempotents,
    g2_group,
    make_abelian,
    make_involution,
    terwilliger_closure_dim,
)
from terw.cli import GroupSpec
from terw.closure import (
    BLOCK_ENTRIES,
    SparseRationalBasis,
    closure_dim_in_orbit_coords,
    conjugation_certificate,
    matrix_products,
    orbit_products,
    sandwich_count,
    scatter_index,
    terwilliger_generator_coords,
)
from terw.conjugacy import class_index_table
from terw.groups import conjugations
from terw.instances import random_general_instance, random_general_instances


def test_scalar_algebra():
    assert algebra_dimension([np.eye(5, dtype=np.int64)]) == 1


def test_empty_matrices_span_nothing():
    assert algebra_dimension([np.zeros((0, 0), dtype=np.int64)]) == 0


def test_diagonal_generators_span_diagonals():
    d1 = np.diag([1, 0, 0, 0])
    d2 = np.diag([0, 1, 1, 0])
    d3 = np.diag([0, 0, 0, 1])
    assert algebra_dimension([d1, d2, d3]) == 3


def test_full_matrix_algebra():
    # elementary matrices E12 and E21 generate all of M_2
    e12 = np.array([[0, 1], [0, 0]], dtype=np.int64)
    e21 = np.array([[0, 0], [1, 0]], dtype=np.int64)
    assert algebra_dimension([e12, e21]) == 4


def test_generic_closure_s3(s3):
    gens = adjacency_matrices(s3) + dual_idempotents(s3)
    assert algebra_dimension(gens) == 11


def test_generic_closure_matches_fast_path(s3, d4, q8, sd16):
    for group in (s3, d4, q8, sd16):
        gens = adjacency_matrices(group) + dual_idempotents(group)
        assert algebra_dimension(gens) == terwilliger_closure_dim(group)


def test_generic_closure_matches_fast_path_general_instance():
    abelian = make_abelian([(2, 1), (3, 1)])
    group = D2Group(abelian, make_involution(abelian, [1, 2]), [0, 0])
    gens = adjacency_matrices(group) + dual_idempotents(group)
    assert algebra_dimension(gens) == terwilliger_closure_dim(group)


OVERFLOW_CASES = [
    pytest.param([np.array([[2**40, 1], [0, 2**40]])], 2, id="square-2^80"),
    pytest.param([np.array([[3**40]], dtype=object)], 1, id="1x1-3^40"),
    # the squares 2^64 and 2^66 wrap to 0 in int64, which would drop D^2
    pytest.param([np.diag([2**32, 2**33])], 2, id="squares-wrap-to-0"),
    # the square of the large generator, entries 2^80, times the zero one
    pytest.param(
        [np.zeros((2, 2), dtype=np.int64), np.array([[2**40, 1], [0, 2**40]])], 2,
        id="zero-beside-large",
    ),
    pytest.param([np.array([[2**64, 0], [0, 1]], dtype=object)], 2, id="object-2^64"),
    # repeats and X I = X are skipped before the basis, on both paths
    pytest.param([np.array([[2**40, 1], [0, 2**40]])] * 2, 2, id="repeated-2^40"),
    pytest.param(
        [np.eye(2, dtype=np.int64), np.array([[2**40, 1], [0, 2**40]])], 2,
        id="identity-beside-2^40",
    ),
    pytest.param(
        [np.array([[2**64, 0], [0, 1]], dtype=object)] * 2, 2, id="repeated-object-2^64"
    ),
]


@pytest.mark.parametrize("generators, dim", OVERFLOW_CASES)
def test_products_that_overflow_int64_stay_exact(generators, dim):
    assert algebra_dimension(generators) == two_sided_algebra_dimension(generators) == dim


def flattened(mat):
    """A matrix as a sparse row over the codes i * side + k."""
    return sparse(np.asarray(mat).ravel())


def assert_matrix_products_exact(frontier, gens):
    """The products of ``matrix_products`` are the nonzero flattened X s in
    Python ints, frontier matrix by frontier matrix, generator by
    generator; returns them."""
    products = matrix_products([flattened(g) for g in gens], len(gens[0]))
    got = list(products([flattened(x) for x in frontier]))
    exact = [np.asarray(x, dtype=object) @ np.asarray(g, dtype=object) for x in frontier for g in gens]
    assert listed(got) == listed(prod for x in exact if len((prod := flattened(x))[0]))
    return got


def test_products_at_the_int64_bound_stay_int64_and_exact():
    # 2^63 - 1 = 2028184990993 * 4547599: max|X| times the largest column sum
    # is one below the bound, and entry (0, 0) of X s reaches it
    mat = np.full((2, 2), 2028184990993, dtype=np.int64)
    gens = [np.array([[2273799, 1], [2273800, 0]]), np.eye(2, dtype=np.int64)]
    prods = assert_matrix_products_exact([mat], gens)
    assert all(vals.dtype == np.int64 for _, vals in prods)
    assert prods[0][1][0] == 2**63 - 1


def test_products_past_the_int64_bound_take_python_ints():
    # 2^32 * 2^31 = 2^63 wraps to -2^63 in int64
    prods = assert_matrix_products_exact([np.array([[2**32]])], [np.array([[2**31]])])
    assert [vals.tolist() for _, vals in prods] == [[2**63]]
    assert [vals.dtype for _, vals in prods] == [object]


def test_mixed_matrix_frontier_past_the_int64_bound_stays_exact():
    # a matrix at 2^32 beside a 0/1 one: their block is summed in Python ints
    gens = [np.array([[0, 2**31, 1], [1, 0, 0], [0, 1, 1]]), np.eye(3, dtype=np.int64)]
    big, small = np.diag([2**32, 1, 2**32 - 5]), np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    for frontier in ([big, small], [small, big]):
        prods = assert_matrix_products_exact(frontier, gens)
        assert all(vals.dtype == object for _, vals in prods)


@pytest.mark.parametrize("group", [
    pytest.param(dihedral([(2, 4)]), id="Dih(C16)"),
    pytest.param(g2_group(16, 7, 8), id="G2(16,7,8)"),
])
def test_explicit_closure_at_order_32(group):
    gens = adjacency_matrices(group) + dual_idempotents(group)
    assert algebra_dimension(gens) == terwilliger_closure_dim(group) == dim_closed_form(group)


@pytest.mark.parametrize("group", [
    pytest.param(dihedral([(2, 5)]), id="Dih(C32)"),
    pytest.param(g2_group(32, 15, 16), id="G2(32,15,16)"),
])
def test_explicit_closure_at_the_default_guard(group):
    # |G| = 64: the explicit matrices have side 64, the default matrix guard
    gens = adjacency_matrices(group) + dual_idempotents(group)
    assert algebra_dimension(gens) == terwilliger_closure_dim(group) == dim_closed_form(group) == 616


def test_explicit_closure_peak_memory_on_dih_c16():
    # one block of frontier rows' terms at a time: 3.2 MiB of tracemalloc
    # here, against 10.2 MiB for the dense float64 products
    group = dihedral([(2, 4)])  # |G| = 32, side 32, 184 orbits
    gens = adjacency_matrices(group) + dual_idempotents(group)
    tracemalloc.start()
    try:
        assert algebra_dimension(gens) == 184
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# the |G| <= 16 groups of the subalgebra benchmark under two seeds, and two
# groups of order 32
EXPLICIT_GROUPS = [
    dihedral([(3, 1)]),
    dihedral([(2, 2)]),
    dicyclic([(2, 2)], [2]),
    g2_group(8, 3, 0),
    *(GroupSpec("general", factors=f, s=s, y=y).build() for f, s, y in (
        ([[3, 1], [2, 1]], [2, 1], [0, 0]),
        ([[2, 2], [2, 1]], [3, 1], [2, 1]),
        ([[3, 1], [2, 1]], [2, 1], [0, 1]),
        ([[2, 2], [2, 1]], [3, 1], [0, 0]),
    )),
    dihedral([(2, 4)]),
    g2_group(16, 7, 8),
]


@pytest.mark.parametrize("generators", [
    *(pytest.param(lambda g=g: adjacency_matrices(g) + dual_idempotents(g), id=g.name)
      for g in EXPLICIT_GROUPS),
    *(pytest.param(lambda g=g: adjacency_matrices(g), id=f"{g.name}-scheme")
      for g in EXPLICIT_GROUPS[-2:]),
    *(pytest.param(lambda gens=case.values[0]: gens, id=case.id) for case in OVERFLOW_CASES),
])
def test_explicit_closure_inserts_what_the_dense_reference_inserts(generators, monkeypatch):
    gens = generators()
    library = recorded_inserts(monkeypatch, lambda: algebra_dimension(gens))
    reference = recorded_inserts(monkeypatch, lambda: dense_algebra_dimension(gens), FractionBasis)
    if library[0] < len(gens[0]) ** 2:
        assert library == reference
    else:  # the search stops at the cap side^2, where the reference searches on
        assert library[0] == reference[0]


def test_integral_floats_and_objects_read_as_exact_ints():
    assert algebra_dimension([np.eye(3)]) == 1
    # 2.0^70 is an integer that int64 cannot hold
    assert algebra_dimension([np.array([[2.0**70, 1.0], [0.0, 2.0**70]])]) == 2
    assert algebra_dimension([np.array([[Fraction(4, 2), 0], [0, 1]], dtype=object)]) == 2


@pytest.mark.parametrize("generators, entry", [
    pytest.param([np.array([[0.5]])], r"\(0, 0\) is 0.5", id="half"),
    pytest.param([np.eye(2), np.array([[1.0, np.nan], [0.5, 0.0]])], r"\(0, 1\) is nan", id="nan"),
    pytest.param([np.array([[1, Fraction(1, 3)], [0, 1]], dtype=object)], r"\(0, 1\)",
                 id="fraction"),
])
def test_a_non_integral_entry_raises_before_any_work(generators, entry, basis_inserts):
    with pytest.raises(ValueError, match=entry):
        algebra_dimension(generators)
    assert basis_inserts == []


def test_fixed_inputs_equal_the_two_sided_reference(s3):
    abelian = make_abelian([(2, 1), (3, 1)])
    general = D2Group(abelian, make_involution(abelian, [1, 2]), [0, 0])
    cases = [
        [np.eye(5, dtype=np.int64)],
        [np.diag([1, 0, 0, 0]), np.diag([0, 1, 1, 0]), np.diag([0, 0, 0, 1])],
        [np.array([[0, 1], [0, 0]]), np.array([[0, 0], [1, 0]])],
        *(adjacency_matrices(g) + dual_idempotents(g) for g in (s3, general)),
        *(adjacency_matrices(g) for g in (s3, general)),
    ]
    for gens in cases:
        assert algebra_dimension(gens) == two_sided_algebra_dimension(gens)


@st.composite
def small_matrices(draw):
    side = draw(st.integers(1, 4))
    entries = st.lists(st.integers(-2, 2), min_size=side * side, max_size=side * side)
    count = draw(st.integers(1, 3))
    gens = [np.array(draw(entries), dtype=np.int64).reshape(side, side) for _ in range(count)]
    # a repeated generator or the identity, whose products the closure skips
    extra = draw(st.sampled_from(["none", "copy", "identity"]))
    if extra == "copy":
        gens.append(draw(st.sampled_from(gens)).copy())
    elif extra == "identity":
        gens.append(np.eye(side, dtype=np.int64))
    return gens


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_right_closure_equals_two_sided_reference(generators):
    assert algebra_dimension(generators) == two_sided_algebra_dimension(generators)


def test_guard_on_generic_closure():
    with pytest.raises(GuardExceededError):
        algebra_dimension([np.eye(100, dtype=np.int64)])


@pytest.mark.parametrize("generators", [
    pytest.param([np.eye(2), np.ones((600, 600))], id="two-sides"),
    pytest.param([np.ones((2, 3))], id="not-square"),
])
def test_generators_of_two_sides_or_not_square_raise_before_any_work(generators, basis_inserts):
    with pytest.raises(ValueError):
        algebra_dimension(generators)
    assert basis_inserts == []


def test_adjacency_algebra_alone_is_commutative_span(s3, d4, sd16):
    # scheme matrices close under products already: dimension = class count,
    # strictly below the orbit-count ceiling (exercises the product rounds)
    for group in (s3, d4, sd16):
        classes = conjugacy_classes(group)
        dim = terwilliger_closure_dim(group, include_dual=False)
        assert dim == len(classes)
        gens = adjacency_matrices(group)
        assert algebra_dimension(gens) == dim


def test_dual_algebra_alone(s3, sd16):
    for group in (s3, sd16):
        classes = conjugacy_classes(group)
        dim = terwilliger_closure_dim(group, include_scheme=False)
        assert dim == len(classes)


def test_orbit_count_matches_centralizer_formula(s3, d4, q8, sd16):
    for group in (s3, d4, q8, sd16):
        assert conjugation_orbitals(group).count == dim_centralizer(group)


def test_orbital_labels_partition(d4):
    orb = conjugation_orbitals(d4)
    labels = orb.labels
    assert labels.shape == (8, 8)
    assert labels.min() == 0
    assert labels.max() == orb.count - 1
    # reps really are the first pair of each orbit
    for c, (u, v) in enumerate(orb.reps.T.tolist()):
        assert labels[u, v] == c
    # every orbit is closed under conjugation by every element
    elems = list(d4.elements())
    for u in range(8):
        for v in range(8):
            for h in elems:
                hu = d4.index(conjugate(d4, elems[u], h))
                hv = d4.index(conjugate(d4, elems[v], h))
                assert labels[hu, hv] == labels[u, v]


def sparse(row):
    cols = np.flatnonzero(row)
    return cols, row[cols]


def listed(rows):
    return [(cols.tolist(), vals.tolist()) for cols, vals in rows]


def assert_products_equal_dense(products, x, gens, reps):
    """The sparse products are the nonzero orbit coordinates of x @ gen, in
    the order of gens."""
    expected = [sparse((x @ gen)[tuple(reps)]) for gen in gens]
    assert listed(products) == listed(prod for prod in expected if len(prod[0]))


def test_orbit_operators_multiply_dense_matrices(s3, d4, sd16):
    # generator rows and the batched products by the scheme matrices and the
    # dual idempotents against the dense matrices and their products with an
    # orbit-constant X
    abelian = make_abelian([(2, 1), (3, 1)])
    general = D2Group(abelian, make_involution(abelian, [1, 2]), [0, 0])
    for group in (s3, d4, sd16, general):
        orb = conjugation_orbitals(group)
        x = np.random.default_rng(0).integers(-3, 4, orb.count)[orb.labels]
        scheme, duals = adjacency_matrices(group), dual_idempotents(group)
        rows = terwilliger_generator_coords(group)
        assert listed(rows) == listed(sparse(g[tuple(orb.reps)]) for g in scheme + duals)
        vec = sparse(x[tuple(orb.reps)])
        for products, gens in (
            (orbit_products(group), scheme + duals),
            (orbit_products(group, include_dual=False), scheme),
            (orbit_products(group, include_scheme=False), duals),
        ):
            assert_products_equal_dense(list(products([vec])), x, gens, orb.reps)


def dense_operator(group, gen):
    """The right product by the |G| x |G| matrix gen on orbit vectors (dicts),
    through the dense matrices in Python ints."""
    orb = conjugation_orbitals(group)
    u, v = orb.reps
    gen = gen.astype(object)

    def apply(vec):
        x = np.zeros(orb.count, dtype=object)
        for col, val in vec.items():
            x[col] = val
        prod = (x[orb.labels] @ gen)[u, v]
        return {col: prod[col] for col in np.flatnonzero(prod).tolist()}

    return apply


def test_scheme_products_past_the_int64_bound_stay_exact(s3, sd16):
    # max|X| times the largest class size passes 2^63, so the products are
    # formed in Python ints; int64 sums of the entries near 2^62 would wrap
    for group in (s3, sd16):
        orb = conjugation_orbitals(group)
        assert 2**62 * max(c.size for c in conjugacy_classes(group)) >= 2**63
        big = np.array([2**62 - 7 * c for c in range(orb.count)], dtype=object)
        scheme = adjacency_matrices(group)
        products = orbit_products(group, include_dual=False)
        assert_products_equal_dense(
            list(products([sparse(big)])), big[orb.labels], scheme, orb.reps
        )
        rows = [sparse(big), *terwilliger_generator_coords(group, include_dual=False)]
        vectors = [dict(zip(cols.tolist(), vals.tolist())) for cols, vals in rows]
        expected = fraction_closure_rank(vectors, [dense_operator(group, g) for g in scheme])
        assert closure_dim_in_orbit_coords(rows, products, orb.count) == expected


PRODUCT_GROUPS = [
    dihedral([(3, 1)]),
    dihedral([(2, 2)]),
    dicyclic([(2, 2)], [2]),
    g2_group(16, 7, 8),
    dicyclic([(2, 3), (3, 1)], [4, 0]),
    *random_general_instances(6, 64, seed=3801),
]


def test_product_groups_include_a_square():
    assert any(any(group.square) for group in PRODUCT_GROUPS[5:])


def assert_same_run(products, reference):
    """The same products in the same order: equal int64 columns and equal
    values."""
    products, reference = list(products), list(reference)
    assert len(products) == len(reference)
    for (cols, vals), (ref_cols, ref_vals) in zip(products, reference):
        assert cols.dtype == ref_cols.dtype == np.int64
        assert np.array_equal(cols, ref_cols)
        assert vals.tolist() == ref_vals.tolist()


@pytest.mark.parametrize("group", PRODUCT_GROUPS, ids=lambda g: g.name)
def test_frontier_products_are_the_per_row_gathers(group):
    # frontiers of one row, of several rows and of all rows, of the
    # generators and of their products, for each choice of families
    rows = terwilliger_generator_coords(group)
    for kwargs in ({}, dict(include_dual=False), dict(include_scheme=False)):
        products = orbit_products(group, **kwargs)
        reference = per_row_orbit_products(group, **kwargs)
        round_one = list(reference(rows))
        for frontier in (rows[:1], rows[1:4], rows, round_one[-1:], round_one[::3], round_one):
            assert_same_run(products(frontier), reference(frontier))


def test_mixed_frontier_past_the_int64_bound_stays_exact(s3, sd16):
    # a row near 2^62 beside a 0/1 row: their block is summed in Python
    # ints, and both rows' products are the per-row reference's
    for group in (s3, sd16):
        orb = conjugation_orbitals(group)
        big = sparse(np.array([2**62 - 7 * c for c in range(orb.count)], dtype=object))
        small = terwilliger_generator_coords(group)[1]
        for frontier in ([big, small], [small, big]):
            products = list(orbit_products(group)(frontier))
            assert all(vals.dtype == object for _, vals in products)
            assert_same_run(products, per_row_orbit_products(group)(frontier))


def count_scatters(monkeypatch):
    """The (output size, entry count) of every ``np.add.at`` the closure
    module calls from now on."""
    calls = []

    class Add:
        def __getattr__(self, name):
            return getattr(np.add, name)

        def at(self, out, at, values):
            calls.append((len(out), len(at)))
            return np.add.at(out, at, values)

    class Numpy:
        add = Add()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(terw.closure, "np", Numpy())
    return calls


def test_scheme_products_scatter_once_per_block_of_frontier_rows(monkeypatch):
    group = dihedral([(2, 4)])  # Dih(C16), |G| = 32
    frontiers = []

    def recorded(*args):
        products = orbit_products(*args)
        return lambda frontier: frontiers.append(len(frontier)) or products(frontier)

    scatters = count_scatters(monkeypatch)
    monkeypatch.setattr(terw.closure, "orbit_products", recorded)
    ell = len(conjugacy_classes(group))
    assert terwilliger_closure_dim(group, include_dual=False) == ell
    # each round's frontier fits in one block here
    assert len(scatters) == len(frontiers) >= 1
    assert sum(frontiers) >= ell > len(frontiers)


def test_a_large_frontier_scatters_in_blocks_of_bounded_size(monkeypatch):
    group = dihedral([(2, 5)])  # Dih(C32), |G| = 64
    span = len(conjugacy_classes(group)) * conjugation_orbitals(group).count
    rows = terwilliger_generator_coords(group, include_dual=False)
    frontier = list(per_row_orbit_products(group, include_dual=False)(rows))
    products = orbit_products(group, include_dual=False)
    scatters = count_scatters(monkeypatch)
    assert_same_run(products(frontier), per_row_orbit_products(group, include_dual=False)(frontier))
    assert 1 < len(scatters) < len(frontier)
    # a block holds at most BLOCK_ENTRIES outputs and entries, unless it is one row
    assert all(size + entries <= BLOCK_ENTRIES or size == span for size, entries in scatters)


def recorded_inserts(monkeypatch, closure, basis_type=SparseRationalBasis):
    """The dimension closure() returns and the (column, value) items of
    every vector it offers to a basis of basis_type, in order: a sparse row
    for ``SparseRationalBasis``, a dict for ``FractionBasis``."""
    offered = []
    insert = basis_type.insert

    def recorded(basis, vec):
        if isinstance(vec, dict):
            offered.append(list(vec.items()))
        else:
            offered.append(list(zip(vec[0].tolist(), vec[1].tolist())))
        return insert(basis, vec)

    with monkeypatch.context() as patch:
        patch.setattr(basis_type, "insert", recorded)
        return closure(), offered


@pytest.mark.parametrize("group", [
    pytest.param(dihedral([(2, 4)]), id="Dih(C16)"),
    pytest.param(GroupSpec("general", factors=[[3, 1], [2, 3]], s=[2, 7], y=[0, 4]).build(),
                 id="general-3^1,2^3"),
])
def test_restricted_closures_insert_what_the_per_row_reference_inserts(group, monkeypatch):
    cap = conjugation_orbitals(group).count
    for kwargs in (dict(include_dual=False), dict(include_scheme=False)):
        library = recorded_inserts(
            monkeypatch, lambda: terwilliger_closure_dim(group, guard=group.order, **kwargs)
        )
        reference = recorded_inserts(monkeypatch, lambda: closure_dim_in_orbit_coords(
            terwilliger_generator_coords(group, **kwargs),
            per_row_orbit_products(group, **kwargs),
            cap,
        ))
        assert library == reference
        assert library[0] == len(conjugacy_classes(group))


def test_scheme_coords_lead_the_full_coords(s3):
    rows = listed(terwilliger_generator_coords(s3, include_dual=False))
    assert rows == listed(terwilliger_generator_coords(s3))[: len(rows)]


def test_full_closure_product_rounds_on_real_groups(s3, d4, q8, sd16, monkeypatch):
    # with the count below the cap, the product rounds run with both
    # operator families
    abelian = make_abelian([(2, 1), (3, 1)])
    general = D2Group(abelian, make_involution(abelian, [1, 2]), [0, 0])
    monkeypatch.setattr(terw.closure, "sandwich_count", lambda group: 0)
    for group in (s3, d4, q8, sd16, general):
        dim = terwilliger_closure_dim(group)
        assert dim == conjugation_orbitals(group).count
        assert dim == algebra_dimension(adjacency_matrices(group) + dual_idempotents(group))


def test_closure_without_generators_raises_before_any_work():
    group = dihedral([(2, 3)])
    with pytest.raises(ValueError):
        terwilliger_closure_dim(group, include_scheme=False, include_dual=False)
    assert group._memo == {}


def test_full_closure_never_builds_the_operators(monkeypatch):
    # the sandwiches fill every block in round 0, so no product is formed
    def unused(group):
        raise AssertionError("scatter index built")

    monkeypatch.setattr(scatter_index, "__wrapped__", unused)
    for group in (dihedral([(2, 4)]), *random_general_instances(1, 64, seed=1010)):
        assert terwilliger_closure_dim(group) == conjugation_orbitals(group).count


def test_scheme_closure_builds_the_operators_once(monkeypatch):
    # repeated restricted closures share one scatter index, which only the
    # scheme products read
    built = []
    original = scatter_index.__wrapped__

    def counted(group):
        built.append(group)
        return original(group)

    monkeypatch.setattr(scatter_index, "__wrapped__", counted)
    s3, sd16 = dihedral([(3, 1)]), g2_group(8, 3, 0)  # fresh, so that nothing is built yet
    for group in (s3, sd16):
        ell = len(conjugacy_classes(group))
        assert terwilliger_closure_dim(group, include_scheme=False) == ell
        assert group not in built
        for _ in range(2):
            assert terwilliger_closure_dim(group, include_dual=False) == ell
            assert terwilliger_closure_dim(group, include_scheme=False) == ell
    assert built == [s3, sd16]


def test_closure_peak_memory_on_dih_c128():
    group = dihedral([(2, 7)])  # |G| = 256, 8584 orbits
    for build in (conjugations, conjugation_orbitals, conjugacy_classes, class_index_table):
        build(group)
    tracemalloc.start()
    try:
        assert terwilliger_closure_dim(group, guard=256) == 8584
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_restricted_closure_peak_memory_on_dih_c32():
    # one block of frontier rows' products at a time, never a whole round;
    # a block is at most BLOCK_ENTRIES dense outputs and scatter entries,
    # and the scheme-only closure peaks at 0.58 MiB of tracemalloc here
    group = dihedral([(2, 5)])  # |G| = 64, 616 orbits, 19 classes
    for build in (conjugations, conjugation_orbitals, class_index_table, scatter_index):
        build(group)
    for kwargs, bound in ((dict(include_dual=False), 1.25), (dict(include_scheme=False), 0.2)):
        tracemalloc.start()
        try:
            assert terwilliger_closure_dim(group, guard=64, **kwargs) == 19
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20, kwargs


def test_closure_guard(sd16):
    with pytest.raises(GuardExceededError):
        terwilliger_closure_dim(sd16, guard=8)


def test_orbital_pair_codes_stay_int32(s3):
    # at |G| = 46346 the pair codes u * |G| + v pass 2^31; the check comes
    # before any table is built
    assert 46340**2 < 2**31 <= 46346**2
    with pytest.raises(GuardExceededError):
        conjugation_orbitals(dihedral([(23173, 1)]))
    assert conjugations(s3).dtype == np.int32


def test_conjugation_invariance_failure_is_typed(s3):
    from terw import VerificationFailure
    from test_scheme import planted

    assert conjugation_certificate(s3) is None  # the real table passes
    group, _ = planted(s3, _shift_a)
    with pytest.raises(OracleMismatch, match="conjugation does not preserve") as info:
        terwilliger_closure_dim(group)
    assert isinstance(info.value, VerificationFailure)
    assert conjugation_certificate(group) == 1  # the generator b


def _shift_a(table):
    # conjugation by b moves a to a^-1, so one changed entry breaks invariance
    table[0, 1] = (table[0, 1] + 1) % 3


def no_products(vec):
    return []


def test_vector_that_vanishes_mod_a_prime_has_rank_one():
    assert closure_dim_in_orbit_coords([sparse(np.array([2**31 - 1]))], no_products, cap=1) == 1


def test_int64_entries_whose_products_overflow_keep_the_exact_rank():
    # reducing the second vector computes 0 - 2^32 * 2^32 = -2^64, which is 0
    # in int64 arithmetic; the vectors are independent over Q
    rows = np.array([[1, 2**32, 0], [2**32, 0, 0]], dtype=np.int64)
    assert closure_dim_in_orbit_coords(map(sparse, rows), no_products, cap=3) == 2
    basis = SparseRationalBasis()
    assert all(basis.insert((np.arange(len(row)), row)) for row in rows)


def sparse_row(vec):
    """The {column: value} dict as a sparse row of Python ints, columns
    increasing; zero values stay."""
    cols = sorted(vec)
    return np.array(cols, dtype=np.int64), np.array([vec[col] for col in cols], dtype=object)


def assert_rows_reduced(basis):
    """Every stored row is primitive with a positive pivot at its smallest
    column, holds Python ints and is zero at every other row's pivot."""
    for pivot, row in basis.rows.items():
        assert pivot == min(row)
        assert row[pivot] > 0
        assert math.gcd(*row.values()) == 1
        assert all(type(val) is int and val for val in row.values())
        assert not row.keys() & basis.rows.keys() - {pivot}


def test_stored_rows_are_primitive_with_a_positive_pivot():
    basis = SparseRationalBasis()
    for vec in ({0: -4, 2: 6}, {0: 6, 1: -9, 3: 3}, {1: 2, 2: 8}, {2: -5, 4: 10}):
        assert basis.insert(sparse_row(vec))
    assert_rows_reduced(basis)
    # the reduced echelon form, worked by hand: with r_p the row of pivot p,
    # the vectors are -4 r_0 + 6 r_2, 6 r_0 - 9 r_1 + 3 r_3, 2 r_1 + 8 r_2, -5 r_2
    assert basis.rows == {0: {0: 1, 4: -3}, 1: {1: 1, 4: 8}, 2: {2: 1, 4: -2}, 3: {3: 1, 4: 30}}
    assert basis.dimension == 4
    assert not basis.insert(sparse_row({0: 2, 1: -9, 2: 6, 3: 3}))  # the sum of the first two


@pytest.fixture
def basis_inserts(monkeypatch):
    """Whether each ``SparseRationalBasis.insert`` grew its basis; an insert
    of an empty vector fails the test."""
    grew = []
    insert = SparseRationalBasis.insert

    def recorded(basis, vec):
        assert len(vec[0]), "an empty vector reached the basis"
        grew.append(insert(basis, vec))
        return grew[-1]

    monkeypatch.setattr(SparseRationalBasis, "insert", recorded)
    return grew


def test_only_the_restricted_closure_grows_a_basis(basis_inserts):
    group = dihedral([(2, 4)])
    cap = conjugation_orbitals(group).count
    assert terwilliger_closure_dim(group) == cap
    assert basis_inserts == []  # the sandwich count reaches the cap
    # the scheme matrices alone fill their basis in round 0; every product
    # after that which is not skipped as zero or a repeat reduces to zero
    ell = len(conjugacy_classes(group))
    assert terwilliger_closure_dim(group, include_dual=False) == ell
    assert len(basis_inserts) > ell
    assert all(basis_inserts[:ell]) and not any(basis_inserts[ell:])


def test_zero_and_repeated_products_never_reach_the_basis(s3, basis_inserts):
    # E*_a E*_b is zero for a != b and repeats E*_a for a = b, so the dual
    # closure offers the basis its l generators and no product
    dih_c8 = dihedral([(2, 3)])
    for group in (s3, dih_c8):
        ell = len(conjugacy_classes(group))
        basis_inserts.clear()
        assert terwilliger_closure_dim(group, include_scheme=False) == ell
        assert basis_inserts == [True] * ell
    # offering every product would make l + l^2 = 56 and 910 inserts
    basis_inserts.clear()
    assert terwilliger_closure_dim(dih_c8, include_dual=False) == 7
    assert len(basis_inserts) < 56
    basis_inserts.clear()
    assert algebra_dimension(adjacency_matrices(dih_c8) + dual_idempotents(dih_c8)) == 64
    assert len(basis_inserts) < 910


def round0_rank(group):
    """Rank over Q of the block parts E*_a X E*_b of the generators X, by
    elimination; the orbit with rep (u, v) lies in block (class u, class v)."""
    labels = conjugacy_classes(group).labels
    rep_u, rep_v = conjugation_orbitals(group).reps
    block_of = list(zip(labels[rep_u].tolist(), labels[rep_v].tolist()))
    basis = SparseRationalBasis()
    for cols, vals in terwilliger_generator_coords(group):
        parts = {}
        for col, val in zip(cols.tolist(), vals.tolist()):
            parts.setdefault(block_of[col], {})[col] = val
        for part in parts.values():
            basis.insert(sparse_row(part))
    return basis.dimension


def test_sandwich_count_is_the_rank_of_round_0():
    # the named groups and seeded general groups with y != 0, up to |G| = 384
    for group in CENTRALIZER_GROUPS:
        count = sandwich_count(group)
        assert count == round0_rank(group) == dim_t0(group), group.name
        assert dim_t0(group, strategy="span", guard=group.order) == count, group.name


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_sandwich_count_is_the_rank_of_round_0_on_random_groups(seed):
    group = random_general_instance(random.Random(seed), 48)
    assert sandwich_count(group) == round0_rank(group) == dim_t0(group)


def split_orbitals(orb):
    """``orb`` with the last pair of its first orbit of two or more pairs
    moved to an orbit of its own."""
    labels = orb.labels.copy()
    sizes = np.bincount(labels.ravel(), minlength=orb.count)
    orbit = int(np.flatnonzero(sizes > 1)[0])
    pair = np.flatnonzero(labels.ravel() == orbit)[-1]
    labels.flat[pair] = orb.count
    reps = np.concatenate([orb.reps, np.array(divmod(pair, orb.labels.shape[1]))[:, None]], 1)
    return terw.closure.Orbitals(orb.count + 1, labels, reps.astype(orb.reps.dtype))


def test_a_split_orbit_falls_through_to_the_product_rounds(basis_inserts, monkeypatch):
    # the two halves of the orbit share their sandwich, so the count stays at
    # the true cap, below the planted one; the product rounds then find that
    # every generated vector agrees on both halves
    group = dihedral([(2, 3)])
    real = conjugation_orbitals.__wrapped__
    cap = real(group).count
    monkeypatch.setattr(conjugation_orbitals, "__wrapped__", lambda g: split_orbitals(real(g)))
    assert conjugation_orbitals(group).count == cap + 1
    assert sandwich_count(group) == cap
    assert terwilliger_closure_dim(group) == cap
    assert sum(basis_inserts) == cap < len(basis_inserts)


def test_an_invariance_failure_comes_before_the_count(s3, monkeypatch):
    from test_scheme import planted

    group, _ = planted(s3, _shift_a)
    counted = []
    monkeypatch.setattr(terw.closure, "sandwich_count", counted.append)
    with pytest.raises(OracleMismatch):
        terwilliger_closure_dim(group)
    assert counted == [] and conjugation_orbitals.__wrapped__ not in group._memo


# large entries, including ones that vanish mod 2^31 - 1 and ones above int64
ENTRIES = st.integers(-3, 3) | st.sampled_from(
    [2**31 - 1, -(2**31 - 1), 2 * (2**31 - 1), 2**64 + 1, -(2**64 + 1)]
)


@st.composite
def closure_problems(draw):
    cap = draw(st.integers(1, 6))
    coords = st.integers(0, cap - 1)
    vectors = draw(st.lists(st.dictionaries(coords, ENTRIES, max_size=cap), max_size=5))
    if vectors:  # repeated vectors, which the closure skips
        repeats = draw(st.lists(st.sampled_from(vectors), max_size=2))
        vectors = draw(st.permutations([*vectors, *map(dict, repeats)]))
    matrices = draw(st.lists(
        st.dictionaries(st.tuples(coords, coords), ENTRIES, max_size=2 * cap), max_size=3
    ))
    return vectors, matrices, cap


def sparse_operator(matrix):
    def apply(vec):
        out = {}
        for (row, col), coeff in matrix.items():
            if col in vec:
                out[row] = out.get(row, 0) + coeff * vec[col]
        return {k: v for k, v in out.items() if v}

    return apply


def object_array(entries, shape):
    """The object array of the given shape with the given {index: value}."""
    arr = np.zeros(shape, dtype=object)
    for index, val in entries.items():
        arr[index] = val
    return arr


def batched_products(matrices, cap):
    """The nonzero products M x of each sparse row x of a frontier, row by
    row, in Python ints."""
    dense = [object_array(m, (cap, cap)) for m in matrices]

    def products(frontier):
        xs = [object_array(dict(zip(cols.tolist(), vals.tolist())), cap) for cols, vals in frontier]
        return [prod for x in xs for m in dense if len((prod := sparse(m @ x))[0])]

    return products


@settings(max_examples=300, deadline=None)
@given(closure_problems())
def test_closure_rank_equals_fraction_reference(problem):
    # the coordinates are below the cap, so the rank never exceeds it and the
    # reference may search to exhaustion
    vectors, matrices, cap = problem
    rows = [sparse(object_array(vec, cap)) for vec in vectors]
    rank = closure_dim_in_orbit_coords(rows, batched_products(matrices, cap), cap)
    assert rank == fraction_closure_rank(vectors, [sparse_operator(m) for m in matrices])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 5), ENTRIES, max_size=6), max_size=8))
def test_basis_rank_equals_fraction_reference(vectors):
    basis, reference = SparseRationalBasis(), FractionBasis()
    for vec in vectors:
        assert basis.insert(sparse_row(vec)) == reference.insert(vec)
    assert_rows_reduced(basis)


def offered_vectors(rng, count, width, rank):
    """count seeded integer vectors over width columns, as dicts: each is
    s a + t b for two of rank hidden sparse vectors and the earlier ones,
    with s, t and the hidden entries from values such as 6, 3^41 and -2^64,
    so their span has dimension at most rank < width and a reduced basis of
    it keeps leads other than 1."""
    values = [1, -1, 2, -3, 6, 10, -15, 3**41, -(2**64 + 3), 2**70 * 9]
    hidden = [{col: rng.choice(values) for col in rng.sample(range(width), 3)}
              for _ in range(rank)]
    vectors = []
    for _ in range(count):
        a, b = rng.sample(hidden + vectors, 2)
        s, t = rng.choice(values), rng.choice(values)
        vectors.append({col: s * a.get(col, 0) + t * b.get(col, 0) for col in a.keys() | b.keys()})
    return vectors


@pytest.mark.parametrize("seed", range(6))
def test_non_unit_leads_and_entries_past_int64_keep_the_reduced_form(seed):
    # every basis row of the subalgebra closures holds only +-1 entries, so
    # there the leads are all 1; here they are not, and entries pass 2^63
    basis, reference = SparseRationalBasis(), FractionBasis()
    for vec in offered_vectors(random.Random(seed), 40, 12, 7):
        assert basis.insert(sparse_row(vec)) == reference.insert(vec)
        assert basis.dimension == reference.dimension
        assert_rows_reduced(basis)
    assert any(row[pivot] != 1 for pivot, row in basis.rows.items())
    assert any(abs(val) >= 2**63 for row in basis.rows.values() for val in row.values())


def test_insert_reads_integer_dtypes_drops_zeros_and_leaves_its_arrays_unchanged():
    basis = SparseRationalBasis()
    offered = [
        (np.array([0, 2, 3]), np.array([2, 0, -4], dtype=np.int8)),
        (np.array([0, 1]), np.array([0, 2**64 - 1], dtype=np.uint64)),
        (np.array([1, 4]), np.array([0, -(2**70)], dtype=object)),
        (np.array([0, 5]), np.array([0, 0], dtype=np.int64)),
    ]
    kept = [(cols.copy(), vals.copy()) for cols, vals in offered]
    assert [basis.insert(vec) for vec in offered] == [True, True, True, False]
    assert basis.rows == {0: {0: 1, 3: -2}, 1: {1: 1}, 4: {4: 1}}
    assert_rows_reduced(basis)
    for (cols, vals), (cols0, vals0) in zip(offered, kept):
        assert np.array_equal(cols, cols0) and vals.dtype == vals0.dtype
        assert vals.tolist() == vals0.tolist()
