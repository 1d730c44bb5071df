"""Every imported name in the package and its tests is used.

A name counts as used when it is referenced anywhere in its module (as a
name, or as the root of an attribute chain) or listed in ``__all__``.
Imports kept for their side effects alone are not used here.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "sparsim").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_honours_all():
    source = "import os\nimport sys as system\nfrom a import b, c\n__all__ = ['c']\nprint(os.sep)\n"
    assert unused_imports(source) == [(2, "system"), (3, "b")]


def test_public_names_resolve_once():
    import sparsim

    assert len(set(sparsim.__all__)) == len(sparsim.__all__)
    missing = [name for name in sparsim.__all__ if not hasattr(sparsim, name)]
    assert missing == []
    namespace = {}
    exec("from sparsim import *", namespace)
    assert set(sparsim.__all__) <= set(namespace)
