"""numpy is the package's one runtime dependency: every module under
src/permopt imports only the standard library, numpy and permopt itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "permopt").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "permopt"}


def imported_top_levels(path) -> set:
    """Top-level names of the absolute imports in a module; relative imports
    (`from .lp import ...`) stay inside the package and are skipped."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_sources_found():
    assert "subproblems.py" in {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    assert imported_top_levels(path) <= ALLOWED
