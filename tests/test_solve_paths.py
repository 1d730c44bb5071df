"""No general ``linalg.solve`` in the package, and one caller per LAPACK routine.

Nothing in ``src/sparsim`` calls ``np.linalg.solve`` or
``scipy.linalg.solve`` (any ``linalg.solve``).  Every direct
``lapack.<routine>`` call is found, and each routine has one calling
function: ``ridge.solve`` is the only caller of ``dposv``, so the ridge
systems keep one Cholesky solve path, and ``ridge._cond_estimate`` of
``dlange``, ``dgetrf`` and ``dgecon``, the condition estimate of a failed
system's error message; ``baselines.lasso_similarity``
is the only caller of ``dpotrf``, ``dpotrs`` and ``dtrtrs``, the active-set
Cholesky factor, solves and growth of the lasso homotopy.
"""

import ast
from collections import defaultdict
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


def _kind(name):
    """``linalg.solve`` or ``lapack.<routine>`` for a dotted call name, else None."""
    scope, _, attr = name.rpartition(".")
    module = scope.rpartition(".")[2]
    if module == "linalg" and attr == "solve":
        return "linalg.solve"
    return f"lapack.{attr}" if module == "lapack" else None


def solve_calls(source: str, module: str):
    """``(kind, module.function)`` for every ``linalg.solve`` and
    ``lapack.<routine>`` call in ``source``, by the outermost enclosing
    function (``module.<module>`` for a call outside any function).  A
    ``solve`` or routine imported by name from a linalg or lapack module
    counts as a call at the import."""
    calls = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and scope == "<module>":
            scope = node.name
        if isinstance(node, ast.Call) and _kind(_dotted(node.func) or ""):
            calls.append((_kind(_dotted(node.func)), f"{module}.{scope}"))
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                kind = _kind(f"{node.module}.{alias.name}")
                if kind:
                    calls.append((kind, f"{module}.{scope}"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return calls


def _callers():
    """Each kind found in the package, with the set of functions calling it."""
    callers = defaultdict(set)
    for path in SOURCES:
        for kind, function in solve_calls(path.read_text(), path.stem):
            callers[kind].add(function)
    return dict(callers)


def test_no_linalg_solve_and_ridge_solve_is_the_only_dposv_caller():
    callers = _callers()
    assert "linalg.solve" not in callers
    assert callers["lapack.dposv"] == {"ridge.solve"}


def test_one_calling_function_per_lapack_routine():
    lasso = {"baselines.lasso_similarity"}
    assert _callers() == {
        "lapack.dposv": {"ridge.solve"},
        "lapack.dlange": {"ridge._cond_estimate"},
        "lapack.dgetrf": {"ridge._cond_estimate"},
        "lapack.dgecon": {"ridge._cond_estimate"},
        "lapack.dpotrf": lasso,
        "lapack.dpotrs": lasso,
        "lapack.dtrtrs": lasso,
    }


def test_checker_finds_calls_by_outermost_function():
    source = (
        "from numpy.linalg import solve\n"
        "from scipy.linalg import lapack\n"
        "from scipy.linalg.lapack import dpotrf\n"
        "np.linalg.solve(a, b)\n"
        "def f():\n    def g():\n        lapack.dposv(a, b)\n    scipy.linalg.lapack.dtrtrs(a, b)\n"
        "def h():\n    linalg.solve(a, b)\n    cho_solve(c, b)\n    other.solve(a, b)\n"
        "    lapack_like.dpotrs(c, b)\n"
    )
    assert solve_calls(source, "m") == [
        ("linalg.solve", "m.<module>"),
        ("lapack.dpotrf", "m.<module>"),
        ("linalg.solve", "m.<module>"),
        ("lapack.dposv", "m.f"),
        ("lapack.dtrtrs", "m.f"),
        ("linalg.solve", "m.h"),
    ]
