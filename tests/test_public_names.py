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


def _module_imports(tree):
    """(bound name, line) of each import in the module body, also under a
    top-level if or try; __future__ imports bind nothing to use."""
    stack, found = list(tree.body), []
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ExceptHandler):
            stack.extend(node.body)
        elif isinstance(node, ast.Import):
            found += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found += [(a.asname or a.name, node.lineno) for a in node.names]
    return found


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_module_keeps_an_unused_import():
    dead = []
    for top in ("src/lifshitzlab", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            used |= _exported(tree)
            dead += [f"{path.relative_to(ROOT)}:{line} {name}"
                     for name, line in _module_imports(tree) if name not in used]
    assert not dead, f"module-level imports with no use: {sorted(dead)}"


def test_no_module_binds_a_top_level_definition_twice():
    # a second `def` of one name rebinds it at import, so the first is dead code
    rebound = []
    for top in ("src", "tests", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            seen = set()
            for node in ast.parse(path.read_text(), str(path)).body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if node.name in seen:
                        rebound.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
                    seen.add(node.name)
    assert not rebound, f"top-level names defined twice: {rebound}"
