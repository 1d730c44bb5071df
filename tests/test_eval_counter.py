"""Similarity evaluations are counted in one place: ``sim_matrix``.

Every ``EVAL_COUNTER.add`` call in the package, whether reached as a bare
name or through a module attribute, is located by the function that
encloses it, so a second counting site cannot appear unnoticed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "sparsim").glob("*.py"))


def _is_counter_add(node):
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add"):
        return False
    owner = node.func.value
    return getattr(owner, "id", getattr(owner, "attr", None)) == "EVAL_COUNTER"


def counter_callers(source: str, module: str):
    """``module.function`` for every ``EVAL_COUNTER.add`` call in ``source``
    (``module.<module>`` for a call outside any function)."""
    callers = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if _is_counter_add(node):
            callers.append(f"{module}.{scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return callers


def test_sim_matrix_is_the_only_counting_site():
    callers = [c for path in SOURCES for c in counter_callers(path.read_text(), path.stem)]
    assert callers == ["similarity.sim_matrix"]


def test_checker_finds_calls_by_enclosing_function():
    source = (
        "EVAL_COUNTER.add(1)\n"
        "def f():\n    sim.EVAL_COUNTER.add(2)\n"
        "def g():\n    def h():\n        EVAL_COUNTER.add(3)\n    other.add(4)\n"
    )
    assert counter_callers(source, "m") == ["m.<module>", "m.f", "m.h"]
