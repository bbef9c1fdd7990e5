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


def test_refine_certificates_do_not_sample():
    # refine proves its certificates at vertices; it draws no random points
    path = next(p for p in SOURCES if p.name == "refine.py")
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {alias.name for alias in node.names}
    assert not names & {"random", "sample_interior_points"}
