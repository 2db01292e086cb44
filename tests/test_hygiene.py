"""Every imported name in the package and the tests is used.

No linter ships with the project, so this reads each module with ``ast``:
a name bound by an import must appear as a name somewhere else in the same
module. ``from __future__ import annotations`` is exempt, and so is
``exturan/__init__.py``, whose imports are its exports.
"""

import ast
from pathlib import Path

import pytest

import exturan

SRC = Path(exturan.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted(
    TESTS.glob("*.py"))


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert unused == [], f"{path.name} imports names it never uses: {', '.join(unused)}"
