"""README's Layout block names exactly the package's modules."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sparsim"


def layout_modules(readme: str):
    """The ``*.py`` file names listed in the README's Layout code block."""
    block = readme.split("## Layout", 1)[1].split("```", 2)[1]
    return set(re.findall(r"^\s+(\w+\.py)\s", block, re.MULTILINE))


def test_layout_names_every_module_and_nothing_else():
    named = layout_modules((ROOT / "README.md").read_text())
    assert sorted(name for name in named if not (PACKAGE / name).is_file()) == []
    modules = {path.name for path in PACKAGE.glob("*.py")} - {"__init__.py", "errors.py"}
    assert sorted(modules - named) == []
