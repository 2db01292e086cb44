"""Every imported name in the package and the tests is used, every
module-level definition of the package has a caller outside the tests and
outside the package's re-exports, and every dataclass field is read.

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
from exturan import canonical, counting
from exturan.hypergraph import BlowupSpec, blowup, complete, complete_partite

SRC = Path(exturan.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
PACKAGE = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MODULES = PACKAGE + sorted(TESTS.glob("*.py"))


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


# Reached only from tests, but kept: acceptance criterion 6
# (tests/test_acceptance.py) states the thinning contract on them.
UNCALLED_BY_CONTRACT = {"thin_cliques", "probability_valid"}


def _parsed(paths):
    return {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}


def test_every_module_level_definition_has_a_caller():
    """A module-level function or class of the package is referenced outside
    its own body by another package module or a script in ``scripts/``, or is
    wrapped by the benchmark's tracer; anything else only tests reach. The
    re-exports of ``exturan/__init__.py`` are not callers."""
    trees = {p.name: tree for p, tree in _parsed(SRC.glob("*.py")).items()}
    callers = [tree for name, tree in trees.items() if name != "__init__.py"]
    callers += _parsed((TESTS.parent / "scripts").glob("*.py")).values()
    uses = Counter(name for tree in callers for name in _referenced(tree))
    kept = _trace_targets() | UNCALLED_BY_CONTRACT
    orphans = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = Counter(_referenced(node))
                if node.name not in kept and uses[node.name] - own[node.name] < 1:
                    orphans.append(f"{module}:{node.name} (line {node.lineno})")
    assert orphans == [], "defined but reached only by tests: " + ", ".join(orphans)


def _scripts_and_benchmark():
    return _parsed([*(TESTS.parent / "scripts").glob("*.py"),
                    *(TESTS.parent / "perfbench").glob("*.py")]).values()


def test_every_method_has_a_caller():
    """A method or property of a package class, other than a dunder, is
    referenced by attribute name outside its own body by a package module,
    a script in ``scripts/`` or the benchmark in ``perfbench/``; anything
    else only tests reach. ``exturan/__init__.py`` is not a caller."""
    trees = _parsed(PACKAGE)
    callers = [*trees.values(), *_scripts_and_benchmark()]
    uses = Counter(sub.attr for tree in callers for sub in ast.walk(tree)
                   if isinstance(sub, ast.Attribute))
    orphans = []
    for path, tree in sorted(trees.items()):
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
                        and node.name not in UNCALLED_BY_CONTRACT):
                    own = Counter(sub.attr for sub in ast.walk(node)
                                  if isinstance(sub, ast.Attribute))
                    if uses[node.name] - own[node.name] < 1:
                        orphans.append(f"{path.name}:{cls.name}.{node.name} (line {node.lineno})")
    assert orphans == [], "defined but reached only by tests: " + ", ".join(orphans)


def _is_dataclass(cls):
    return any(ast.unparse(d).partition("(")[0] == "dataclass" for d in cls.decorator_list)


def test_every_dataclass_field_is_read():
    """A field of a package dataclass, other than an ``InitVar``, is read as
    an attribute somewhere in a package module, a script in ``scripts/`` or
    the benchmark in ``perfbench/``; its declaration is no read. The check
    is by name only, so a field with a name as common as ``host``, ``r`` or
    ``a`` passes on any read of that name, whichever class it belongs to: a
    class whose fields all have such names still needs reading by hand."""
    trees = _parsed(PACKAGE)
    readers = [*trees.values(), *_scripts_and_benchmark()]
    reads = {sub.attr for tree in readers for sub in ast.walk(tree)
             if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    unread = []
    for path, tree in sorted(trees.items()):
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            for node in cls.body:
                if (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                        and "InitVar" not in ast.unparse(node.annotation)
                        and node.target.id not in reads):
                    unread.append(f"{path.name}:{cls.name}.{node.target.id} (line {node.lineno})")
    assert unread == [], "dataclass fields no code reads: " + ", ".join(unread)


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


def test_canonicity_kernels_read_links_without_a_call(monkeypatch):
    """The canonicity kernel reads each link as a subscript of the host's
    link store: the only call in its generated source, for every
    vertex count and uniformity the canonicity test takes, is ``.append``
    on the twin and leaf lists it fills."""
    sources = []
    monkeypatch.setattr(canonical, "compile_kernel",
                        lambda lines, name, tag: sources.append((f"{name} {tag}", lines)))
    sizes = [(n, s) for n in range(canonical.MAX_CANONICAL_VERTICES + 1) for s in range(1, 5)]
    for n, s in sizes:
        canonical._kernel.__wrapped__(n, s)
    assert len(sources) == len(sizes)
    found = Counter()
    for tag, lines in sources:
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.Call) and not (
                    isinstance(node.func, ast.Attribute) and node.func.attr == "append"):
                found[tag] += 1
    assert not found, f"calls in generated canonicity kernels: {dict(found)}"


def test_linkless_graph_step_reads_a_second_neighbourhood(monkeypatch):
    """In the index walk of C4, step 1 completes no edge; its candidate mask
    is the second neighbourhood of step 0's vertex, not every free vertex."""
    sources = []
    monkeypatch.setattr(counting, "compile_kernel",
                        lambda lines, name, tag: sources.append(lines))
    walk = counting._compile(complete_partite(2, (2, 2))[0]).by_index
    for ndom in (0, 1, 2):
        for mode in ("first", "count", "all"):
            counting._kernel.__wrapped__(walk, ndom, mode)
    for lines in sources:
        (step1,) = [line.strip() for line in lines if line.strip().startswith("c1 = ")]
        assert "everyone" not in step1 and step1.startswith("c1 = n0 & "), step1


def _link_reads(node):
    """The link keys that the ``links[...]`` subscripts inside ``node`` read,
    as source, each as often as it is read: keys made of placed vertices'
    bits only, not the running neighbour of a second-neighbourhood loop."""
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                and sub.value.id == "links"
                and all(name.id.startswith("b") for name in ast.walk(sub.slice)
                        if isinstance(name, ast.Name))):
            yield ast.unparse(sub.slice)


def test_embedding_kernels_read_each_link_once(monkeypatch):
    """In the index walk of C4 and in the edge-start walks of the diamond,
    no loop body of a generated embedding kernel reads one link twice: each
    is read into a local at the step that places its last vertex. C4's
    steps 2 and 3 complete edges on the same two placed vertices, and each
    ANDs the two link locals itself."""
    c4 = complete_partite(2, (2, 2))[0]
    diamond = blowup(BlowupSpec(complete(3, 2), (1, 1, 2)))[0]
    starts = counting._edge_starts(diamond)  # runs kernels, so built first
    sources = []
    monkeypatch.setattr(counting, "compile_kernel",
                        lambda lines, name, tag: sources.append(lines))
    counting._kernel.__wrapped__(counting._compile(c4).by_index, 1, "first")
    for walk, _ in starts:
        for mode in ("first", "count"):
            counting._kernel.__wrapped__(walk, diamond.s, mode)
    assert len(sources) > 2
    for lines in sources:
        module = ast.parse("\n".join(lines))
        assert any(_link_reads(module)), "no link read:\n" + "\n".join(lines)
        for node in ast.walk(module):
            if isinstance(node, (ast.For, ast.While)):
                twice = [k for k, n in Counter(_link_reads(node)).items() if n > 1]
                assert twice == [], f"links read twice in one loop: {twice}\n" + "\n".join(lines)
    c4_lines = [line.strip() for line in sources[0]]
    assert "c2 = l0 & l1 & ~u1" in c4_lines and "c3 = l0 & l1 & ~u2" in c4_lines
