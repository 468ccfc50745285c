"""Checks on the package's modules as source: what each one exports and
what each one imports."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import embcom

MODULES = sorted(m.name for m in pkgutil.iter_modules(embcom.__path__))


@pytest.mark.parametrize("name", [
    m for m in MODULES if hasattr(importlib.import_module(f"embcom.{m}"), "__all__")])
def test_all_lists_exactly_the_public_definitions(name):
    mod = importlib.import_module(f"embcom.{name}")
    defined = {n for n, v in vars(mod).items()
               if not n.startswith("_")
               and (inspect.isfunction(v) or inspect.isclass(v))
               and v.__module__ == mod.__name__}
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert set(mod.__all__) == defined


def unused_imports(source: str) -> list[str]:
    """Names an import in ``source`` binds that no expression reads, in the
    order they are imported; ``from __future__`` imports do not bind."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    return [name for name in bound if name not in read]


def test_unused_imports_finds_an_unread_name():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "from .field import a, b as c\n\ndef f():\n    return a, os.sep\n")
    assert unused_imports(source) == ["math", "c"]


@pytest.mark.parametrize("name", MODULES)
def test_module_reads_every_name_it_imports(name):
    path = Path(embcom.__file__).parent / f"{name}.py"
    assert unused_imports(path.read_text()) == []
