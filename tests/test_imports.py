"""Every imported name is used, and every public name of the package is
reached from outside its own definition.

An AST scan of each module in ``src/lqmfg`` (the package ``__init__``, which
imports to re-export, aside) and in ``tests``: a name an import binds must
appear somewhere else in the module. The exceptions are the names that
``perfbench/spans.py`` looks up in a module (its ``WRAPS``), which that
module imports for the benchmark alone.

A second scan keeps the artifact format behind one module: only
``cli.py`` opens a file, and it makes the output directory in one place.
Another keeps numpy the one runtime dependency: a package module imports
only numpy, the standard library and the package itself, and every package
and test module parses at pyproject's ``requires-python`` floor.

A third scan keeps test-only code out of the package: every public
top-level function, class and method in ``src/lqmfg`` must be used by the
package itself (an AST name, attribute or string outside its own
definition and ``__init__``), by README's library quick tour, or by
``perfbench``, ``scripts`` or ``pyproject.toml``. A classmethod counts only
in its ``Class.method`` form, so that another class's method of the same
name does not reach it. What only the tests use belongs in ``tests/``.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import perfbench_module

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "lqmfg").glob("*.py"))
PACKAGE = [p for p in SOURCES if p.name != "__init__.py"]
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
MODULES = PACKAGE + TESTS


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.fixture(scope="module")
def wraps():
    return perfbench_module("spans").WRAPS


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path, wraps):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = f"lqmfg.{path.stem}" if path.parent.name == "lqmfg" else None
    wrapped = {attr for name, attr, _ in wraps if name == module}
    assert sorted(_imported(tree) - used - wrapped) == []


def _calls(tree: ast.Module, name: str) -> int:
    """Calls of `name`, as a bare name (``open(...)``) or an attribute
    (``io.open(...)``, ``path.mkdir(...)``)."""
    return sum(isinstance(node, ast.Call)
               and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
               for node in ast.walk(tree))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_cli_touches_files(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    is_cli = path.name == "cli.py"
    assert (_calls(tree, "open") > 0) == is_cli
    assert _calls(tree, "mkdir") == is_cli
    assert "csv" not in _imported(tree)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    """Relative imports are the package's own."""
    tree = ast.parse(path.read_text(), filename=str(path))
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    assert sorted(roots - set(sys.stdlib_module_names) - {"numpy", "lqmfg"}) == []


def _python_floor() -> tuple[int, int]:
    """pyproject's ``requires-python`` floor as (major, minor)."""
    spec = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                     (ROOT / "pyproject.toml").read_text(), flags=re.M)
    return int(spec[1]), int(spec[2])


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_at_the_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=_python_floor())


def _readme_tour() -> str:
    """The code of README's "Library quick tour"."""
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("\n## Library quick tour\n", 1)[1]
    return re.search(r"```python\n(.*?)```", tour, flags=re.S).group(1)


def _uses(node: ast.AST) -> Counter:
    """Names, attributes and strings under `node`."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def _public_definitions(tree: ast.Module):
    """(qualified name, name, node) of each public top-level function and
    class and each public method of a top-level class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds[:2]) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def _class_attributes(node: ast.AST) -> Counter:
    """``Name.attr`` for each attribute read on a bare name under `node`."""
    return Counter(f"{sub.value.id}.{sub.attr}" for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name))


def _is_classmethod(node: ast.AST) -> bool:
    return any(getattr(dec, "id", None) == "classmethod"
               for dec in getattr(node, "decorator_list", ()))


def test_every_public_name_is_reached():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE}
    src_uses = sum((_uses(tree) for tree in trees.values()), Counter())
    src_attrs = sum((_class_attributes(tree) for tree in trees.values()), Counter())
    outside = [_readme_tour(), (ROOT / "pyproject.toml").read_text()]
    outside += [p.read_text() for d in ("perfbench", "scripts")
                for p in sorted((ROOT / d).glob("*.py"))]
    unreached = []
    for path, tree in trees.items():
        for qualified, name, node in _public_definitions(tree):
            if _is_classmethod(node):
                name, uses, own = qualified, src_attrs, _class_attributes(node)
            else:
                uses, own = src_uses, _uses(node)
            if uses[name] > own[name]:
                continue
            if any(re.search(rf"\b{re.escape(name)}\b", text) for text in outside):
                continue
            unreached.append(f"{path.stem}.{qualified}")
    assert unreached == []


def test_readme_tour_runs():
    """README's quick tour runs as printed, and the gradient it prints at
    the equilibrium is zero to rounding."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", _readme_tour()], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    _, gradient = map(float, done.stdout.split())
    assert gradient <= 1e-12
