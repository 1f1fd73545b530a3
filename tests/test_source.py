"""Guards on the package source and the scripts."""

import ast
from pathlib import Path

import recmac

SOURCES = sorted(Path(recmac.__file__).parent.glob("*.py"))
SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))

# python -O strips assert statements, so no check may rest on one


def assert_statements(paths):
    return [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]


def test_no_assert_statements_in_the_package():
    assert len(SOURCES) >= 12
    assert assert_statements(SOURCES) == []


def test_no_assert_statements_in_the_scripts():
    assert len(SCRIPTS) >= 3
    assert assert_statements(SCRIPTS) == []
