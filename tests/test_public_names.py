"""Every library module that declares `__all__` lists its public API in it,
and every name it exports has a caller outside the tests."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import lifshitzlab

MODULES = [lifshitzlab, *(importlib.import_module(f"lifshitzlab.{m.name}")
                          for m in pkgutil.iter_modules(lifshitzlab.__path__))]
ROOT = Path(__file__).resolve().parents[1]


def _referenced_names():
    """Every Name id, Attribute attr and import alias in the library, scripts and perfbench."""
    names = set()
    for top in ("src/lifshitzlab", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
    return names


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_lists_every_public_definition(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    defined = {name for name, obj in vars(module).items()
               if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert sorted(defined - set(module.__all__)) == []


def test_every_export_has_a_caller_outside_the_tests():
    used = _referenced_names()
    uncalled = [f"{m.__name__}.{name}" for m in MODULES
                for name in getattr(m, "__all__", ()) if name not in used]
    assert not uncalled, f"exported without a caller outside the tests: {uncalled}"
