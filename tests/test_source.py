"""Guards on the package source itself."""

import ast
from pathlib import Path

import recmac

SOURCES = sorted(Path(recmac.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no check may rest on one
    assert len(SOURCES) >= 12
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
