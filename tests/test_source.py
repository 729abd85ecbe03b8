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
