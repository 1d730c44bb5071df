"""No general ``linalg.solve`` in the package, and one ``dposv`` caller.

Nothing in ``src/sparsim`` calls ``np.linalg.solve`` or
``scipy.linalg.solve`` (any ``linalg.solve``), and ``ridge.solve`` is the
only function that calls ``lapack.dposv``, so the ridge systems keep one
Cholesky solve path.  Other factorizations are not looked for: the lasso
baseline's active-set Cholesky solves (``cholesky``, ``cho_solve``) are
separate by design.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "sparsim").glob("*.py"))


def _dotted(node):
    """``a.b.c`` for a chain of attribute lookups on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def solve_calls(source: str, module: str):
    """``(kind, module.function)`` for every ``linalg.solve`` and
    ``lapack.dposv`` call in ``source``, by the outermost enclosing function
    (``module.<module>`` for a call outside any function).  A ``solve`` or
    ``dposv`` imported by name from a linalg module counts as a call at the
    import."""
    calls = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and scope == "<module>":
            scope = node.name
        if isinstance(node, ast.Call):
            name = _dotted(node.func) or ""
            for kind in ("linalg.solve", "lapack.dposv"):
                if name == kind or name.endswith("." + kind):
                    calls.append((kind, f"{module}.{scope}"))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in ("linalg", "lapack"):
            for alias in node.names:
                if alias.name in ("solve", "dposv"):
                    kind = "lapack.dposv" if alias.name == "dposv" else "linalg.solve"
                    calls.append((kind, f"{module}.{scope}"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return calls


def test_no_linalg_solve_and_ridge_solve_is_the_only_dposv_caller():
    calls = [c for path in SOURCES for c in solve_calls(path.read_text(), path.stem)]
    assert calls == [("lapack.dposv", "ridge.solve")]


def test_checker_finds_calls_by_outermost_function():
    source = (
        "from numpy.linalg import solve\n"
        "np.linalg.solve(a, b)\n"
        "def f():\n    def g():\n        lapack.dposv(a, b)\n    scipy.linalg.lapack.dposv(a, b)\n"
        "def h():\n    linalg.solve(a, b)\n    cho_solve(c, b)\n    other.solve(a, b)\n"
    )
    assert solve_calls(source, "m") == [
        ("linalg.solve", "m.<module>"),
        ("linalg.solve", "m.<module>"),
        ("lapack.dposv", "m.f"),
        ("lapack.dposv", "m.f"),
        ("linalg.solve", "m.h"),
    ]
