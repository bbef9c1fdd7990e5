import ast
import pathlib

import tropwave

SOURCES = sorted(pathlib.Path(tropwave.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so invariants must raise
    assert SOURCES
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
