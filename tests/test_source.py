import ast
from pathlib import Path

import rmcode

SOURCES = sorted(Path(rmcode.__file__).parent.glob("*.py"))


def test_no_assert_statement_in_the_library():
    """``python -O`` strips assert statements, so every check in the
    library raises instead."""
    assert len(SOURCES) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
