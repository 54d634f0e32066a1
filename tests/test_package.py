"""The package's imports and its public API.

No linter runs on the sources, so an import left behind by a deleted path
is caught here: every name that a module of the package imports is read in
that module. ``pmcperturb.__all__`` lists every public name, and exactly
those.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import pmcperturb

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pmcperturb"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def imported_names(tree: ast.AST) -> set[str]:
    """The names that the imports of ``tree`` bind, ``from __future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = sorted(imported_names(tree) - read)
    assert not unused, f"{module} imports names it never reads: {unused}"


def test_all_names_resolve_and_star_import_binds_them():
    assert len(set(pmcperturb.__all__)) == len(pmcperturb.__all__)
    for name in pmcperturb.__all__:
        assert hasattr(pmcperturb, name), f"pmcperturb.__all__ lists missing {name!r}"
    namespace: dict = {}
    exec("from pmcperturb import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(pmcperturb.__all__)


def test_every_public_name_is_listed():
    public = {name for name, value in vars(pmcperturb).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(pmcperturb.__all__)
