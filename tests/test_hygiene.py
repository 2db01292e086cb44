"""Every imported name in the package and the tests is used, and every
module-level definition of the package has a caller outside the tests.

No linter ships with the project, so this reads each module with ``ast``:
a name bound by an import must appear as a name somewhere else in the same
module. ``from __future__ import annotations`` is exempt, and so is
``exturan/__init__.py``, whose imports are its exports. Importing the
package and its CLI loads no module it does not need.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from collections import Counter
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


def _trace_targets():
    path = TESTS.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {attr.partition(".")[0] for _, attr, _ in tracing.TARGETS}


def _referenced(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_every_module_level_definition_has_a_caller():
    """A module-level function or class of the package is referenced somewhere
    in the package outside its own body (an export is imported by
    ``exturan/__init__.py``) or wrapped by the benchmark's tracer; anything
    else only tests reach."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in SRC.glob("*.py")}
    uses = Counter(name for tree in trees.values() for name in _referenced(tree))
    kept = _trace_targets()
    orphans = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = Counter(_referenced(node))
                if node.name not in kept and uses[node.name] - own[node.name] < 1:
                    orphans.append(f"{module}:{node.name} (line {node.lineno})")
    assert orphans == [], "defined but never used in the package: " + ", ".join(orphans)


def test_import_loads_no_process_pool_or_pickle():
    """A parallel search forks its workers itself and reads their results as
    JSON, so neither ``multiprocessing`` nor ``pickle`` is loaded."""
    probe = ("import sys, exturan, exturan.cli; "
             "print(sorted({'multiprocessing', 'pickle'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _package_imports(name):
    """The ``exturan`` modules that the package module ``name`` imports, as
    written in its import statements."""
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    found = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names if alias.name.partition(".")[0] == "exturan"]
    found += [f"{'.' * node.level}{node.module or ''}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)
              and (node.level or (node.module or "").partition(".")[0] == "exturan")]
    return found


def test_value_layer_imports_no_package_module():
    """``hypergraph`` holds the values every other module searches, and no
    search itself, so it imports no other ``exturan`` module."""
    found = _package_imports("hypergraph.py")
    assert found == [], f"hypergraph.py imports {', '.join(found)}"


def test_constructions_import_nothing_from_extremal():
    """The constructions and the exact search are siblings over ``canonical``
    and ``counting``: an lb4 base arrives as a hypergraph, not a record."""
    found = [m for m in _package_imports("constructions.py")
             if m.rpartition(".")[2] == "extremal"]
    assert found == [], f"constructions.py imports {', '.join(found)}"


def test_generated_code_compiles_only_in_compile_kernel():
    """``exec``, ``eval`` and ``compile`` appear in the package only inside
    ``counting.compile_kernel``, so every generated kernel compiles under a
    file name of its own."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inside = {id(sub) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "compile_kernel"
                  and path.name == "counting.py" for sub in ast.walk(node)}
        found += [f"{path.name}:{node.lineno} {node.id}" for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id in {"exec", "eval", "compile"}
                  and id(node) not in inside]
    assert found == [], "code compiled outside compile_kernel: " + ", ".join(found)
