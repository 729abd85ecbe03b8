"""Rules on the library source itself."""

import ast
from pathlib import Path

import pytest

import terw
from terw.abelian import CyclicFactor, FixedData, Involution
from terw.characters import CharacterTable, LinearLabel, TwoDimLabel
from terw.cli import GroupSpec
from terw.closure import Orbitals
from terw.conjugacy import ConjClass
from terw.scheme import TransitivityReport
from terw.wedderburn import MultiplicityVector, WedderburnReport

SOURCES = sorted(Path(terw.__file__).parent.rglob("*.py"))


def test_no_assert_statements():
    # python -O strips asserts; invariants raise typed VerificationFailures
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the library: {found}"


def test_no_fractions_import():
    # exact ranks stay in integers; the rational reference lives in the tests
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "fractions")
    ]
    assert not found, f"fractions imported in the library: {found}"


def test_no_dataclasses_import():
    # records are collections.namedtuple subclasses or classes with slots:
    # generating a dataclass's methods costs each import of terw about ten
    # times as much, and typing.NamedTuple turns every string annotation
    # into a ForwardRef, more than twice the cost of a namedtuple subclass
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "typing"
            and any(a.name == "NamedTuple" for a in node.names)
        )
        or (isinstance(node, ast.Attribute) and node.attr == "NamedTuple")
    ]
    assert not found, f"dataclasses or typing.NamedTuple in the library: {found}"


RECORDS = {
    CyclicFactor: "p e m",
    Involution: "s moduli",
    FixedData: "d_vec n_vec d",
    LinearLabel: "i_vec sign",
    TwoDimLabel: "j_vec",
    CharacterTable: "order root_order classes labels exponents coefficients",
    GroupSpec: "kind factors s y n t",
    Orbitals: "count labels reps",
    ConjClass: "kind rep size index",
    TransitivityReport: "dim_t0 dim_closed_form dim_centralizer dim_closure triply_transitive",
    MultiplicityVector: "labels values",
    WedderburnReport:
        "group_name order labels closed_form blocks sum_d_sq sum_d_deg centralizer_dim",
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_records_are_slotted_tuples_with_their_fields(record):
    # the CLI, the planted-fault tests and the README read _replace, _fields,
    # _asdict and tuple equality; only GroupSpec has defaults, all None
    fields = tuple(RECORDS[record].split())
    assert issubclass(record, tuple) and record._fields == fields
    assert record._field_defaults == (
        dict.fromkeys(fields[1:]) if record is GroupSpec else {})
    instance = record(*range(len(fields)))
    assert not hasattr(instance, "__dict__")
    replaced = instance._replace(**{fields[-1]: -1})
    assert type(replaced) is record and replaced[:-1] == instance[:-1] and replaced[-1] == -1


def test_integrality_is_decided_without_a_tolerance():
    # integer_values and reduced_sums decide integrality exactly: no call
    # passes is_integer a tolerance, and no is_zero_exact is left
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "is_integer"
            and (node.args or node.keywords)
        )
        or (isinstance(node, ast.Attribute) and node.attr == "is_zero_exact")
        or (isinstance(node, ast.FunctionDef) and node.name == "is_zero_exact")
    ]
    assert not found, f"tolerant integrality or is_zero_exact in the library: {found}"


def test_only_the_command_line_reads_the_environment():
    # run settings arrive as arguments; the library has no hidden configuration
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(a.name in ("environ", "getenv") for a in node.names)
        )
    ]
    assert not found, f"environment read outside cli.py: {found}"


def test_no_float_verdicts():
    # every verdict is exact: no module defines a FLOAT_TOLERANCE, and no
    # function reads a complex_matrix or the unit roots, not even for an
    # error message
    readers = {
        f"{path.name}:{func.name}"
        for path in SOURCES
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(func, ast.FunctionDef)
        and any(
            isinstance(node, (ast.Name, ast.Attribute))
            and getattr(node, "id", getattr(node, "attr", None)) in ("complex_matrix", "unit_roots")
            for node in ast.walk(func)
        )
    }
    assert readers == set()
    tolerances = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and any(
            isinstance(target, ast.Name) and target.id == "FLOAT_TOLERANCE"
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        )
    ]
    assert not tolerances, f"FLOAT_TOLERANCE defined in the library: {tolerances}"


def test_only_the_character_table_reads_its_arrays():
    # the (l, l, 2) exponent and coefficient layout has one owner: other
    # modules read the table through class_sums, complex_values and the exports
    found = [
        f"{path.name}:{node.lineno} {node.attr}"
        for path in SOURCES
        if path.name != "characters.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("exponents", "coefficients")
    ]
    assert not found, f"table arrays read outside characters.py: {found}"


def test_no_tolerance_parameters():
    # no function takes a tolerance: the verdicts are exact
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and any(
            arg.arg == "tol"
            for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        )
    ]
    assert not found, f"functions taking a tol parameter: {found}"


def test_every_per_group_artefact_is_in_the_cached_list():
    # the build-count, read-only and freeing tests in test_tables walk CACHED,
    # so a new @per_group builder must join it
    from test_tables import CACHED

    found = {
        node.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(d, ast.Name) and d.id == "per_group" for d in node.decorator_list)
    }
    assert found == {build.__name__ for build in CACHED}


def test_references_import_no_library_internals():
    # the dense references are written apart from the library; an
    # underscore-prefixed import would tie them to its implementation
    path = Path(__file__).with_name("dense_reference.py")
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.split(".")[0] == "terw"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not found, f"library internals imported by the references: {found}"


def test_no_class_representative_is_indexed_again():
    # ClassList.reps holds the element index of every class representative
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "index"
        and any(isinstance(arg, ast.Attribute) and arg.attr == "rep" for arg in node.args)
    ]
    assert not found, f"class representatives indexed again: {found}"


def test_only_the_explicit_matrix_paths_read_the_full_table():
    # the library reads index_tables over given index sets, the class
    # representatives or the inverses; a call with no set, or with None for
    # both, builds the full |G|^2 block
    def full(call):
        parts = [*call.args[1:], *(k.value for k in call.keywords)]
        return all(isinstance(p, ast.Constant) and p.value is None for p in parts)

    callers = set()
    for path in SOURCES:
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(func, ast.FunctionDef) and any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "index_tables"
                and full(node)
                for node in ast.walk(func)
            ):
                callers.add(func.name)
    assert callers == {"central_idempotent"}


def test_entries_have_one_owner():
    # characters.py alone normalises and evaluates a table entry: no module
    # defines or imports a RootSum or a conjugation_table, and terw exports
    # neither RootSum nor MixedRootOrdersError
    gone = {"RootSum", "conjugation_table", "MixedRootOrdersError"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in gone)
        or (isinstance(node, ast.ImportFrom) and any(a.name in gone for a in node.names))
    ]
    assert not found, f"RootSum, conjugation_table or MixedRootOrdersError in the library: {found}"
    assert not gone & set(dir(terw))


def test_no_module_walks_the_group_element_by_element():
    # the library works on index and coordinate arrays: only groups.py, which
    # defines elements(), and instances.py, which lists the involutions of A
    # for the dicyclic groups, call it
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name not in ("groups.py", "instances.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "elements"
    ]
    assert not found, f"elements() called in the library: {found}"


def test_only_the_text_export_reduces_exactly():
    # the character certificate decides every table in F_p; the exact reduction of its
    # clauses, _exact_certificate, is the reference in tests/dense_reference.py
    def calls_reduced_sums(func):
        return any(
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "reduced_sums"
            for node in ast.walk(func)
        )

    callers, defined = set(), []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for func in top.body if isinstance(top, ast.ClassDef) else [top]:
                if isinstance(func, ast.FunctionDef) and calls_reduced_sums(func):
                    callers.add(f"{top.name}.{func.name}" if func is not top else func.name)
        defined += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_exact_certificate"
        ]
    assert callers == {"CharacterTable.to_text"}, callers
    assert not defined, f"_exact_certificate defined in the library: {defined}"
