"""Every imported name is used in the module that imports it.

An AST scan of each module in ``src/lqmfg`` (the package ``__init__``, which
imports to re-export, aside) and in ``tests``: a name an import binds must
appear somewhere else in the module. The exceptions are the names that
``perfbench/spans.py`` looks up in a module (its ``WRAPS``), which that
module imports for the benchmark alone.
"""

import ast
from pathlib import Path

import pytest

from conftest import perfbench_module

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "lqmfg").glob("*.py") if p.name != "__init__.py")
MODULES += sorted(Path(__file__).resolve().parent.glob("*.py"))


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
