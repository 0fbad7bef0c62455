"""Static checks on the package source that need no linter."""

import ast
from pathlib import Path

import pytest

import subdecay

SRC = Path(__file__).resolve().parent.parent / "src" / "subdecay"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but never reads; names in __all__ count as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_unused_import_detected():
    tree = ast.parse("import os\nfrom functools import lru_cache\nfrom math import pi\n"
                     "__all__ = ['pi']\nos.getcwd()\n")
    assert unused_imports(tree) == ["lru_cache (line 2)"]


def test_every_export_resolves():
    # a deleted name left in __all__ breaks `from subdecay import *`
    assert [name for name in subdecay.__all__ if not hasattr(subdecay, name)] == []
