"""Rules on the library source itself."""

import ast
from pathlib import Path

import terw

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
