"""Checks on the source text itself, made with ``ast`` alone."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/tropimpl/*.py")) + \
    sorted(ROOT.glob("tests/*.py"))


def unused_imports(path):
    """(line, name) of every name a module imports but never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    assert len(SOURCES) > 10
    found = {f"{path.relative_to(ROOT)}:{line}": name
             for path in SOURCES for line, name in unused_imports(path)}
    assert found == {}
