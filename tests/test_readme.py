"""README's library examples run, its Layout block names exactly the
package's modules, and its CLI section exactly the command-line flags."""

import argparse
import re
from pathlib import Path

from sparsim.cli import build_parser

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


def parser_flags():
    """Every option string of every subcommand, less -h/--help."""
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {flag for sub in subcommands.choices.values() for action in sub._actions
            for flag in action.option_strings} - {"-h", "--help"}


def test_cli_section_names_every_flag_and_nothing_else():
    section = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"--[a-z][a-z0-9-]*", section)) == parser_flags()


def test_library_examples_run():
    """The Quick start and the size-selection and distillation blocks run
    in one namespace, as a reader pastes them; the black-box block needs
    the reader's own ``my_match`` and is not run."""
    section = (ROOT / "README.md").read_text().split("## Quick start (library)", 1)[1].split("\n## ", 1)[0]
    quick_start, size_selection, blackbox = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert "my_match" in blackbox
    namespace = {}
    for block in (quick_start, size_selection):
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["trace"].termination in ("converged", "max_sweeps")
    assert namespace["student"].m == 2
