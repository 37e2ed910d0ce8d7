import ast
import re
from collections import Counter
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


REPO = Path(__file__).resolve().parents[1]


def _words(text):
    return Counter(re.findall(r"\w+", text))


def test_every_top_level_def_is_used_outside_its_definition():
    """A top-level function or class of the library is named elsewhere in
    ``src/``, in ``perfbench/`` or in the README; one named only by its own
    definition, or only by tests, is dead library code."""
    texts = {path: path.read_text() for path in SOURCES}
    in_src = _words("\n".join(texts.values()))
    outside = _words((REPO / "README.md").read_text())
    for path in sorted((REPO / "perfbench").rglob("*.py")):
        outside.update(_words(path.read_text()))
    unused, defs = [], 0
    for path, text in texts.items():
        lines = text.splitlines()
        for node in ast.parse(text, str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs += 1
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = _words("\n".join(lines[first - 1 : node.end_lineno]))
            if in_src[node.name] == own[node.name] and not outside[node.name]:
                unused.append(f"{path.name}:{node.name}")
    assert defs >= 100
    assert unused == []
