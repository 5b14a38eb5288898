"""Every library module that declares `__all__` lists its public API in it."""

import importlib
import inspect
import pkgutil

import pytest

import lifshitzlab

MODULES = [lifshitzlab, *(importlib.import_module(f"lifshitzlab.{m.name}")
                          for m in pkgutil.iter_modules(lifshitzlab.__path__))]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_lists_every_public_definition(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    defined = {name for name, obj in vars(module).items()
               if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert sorted(defined - set(module.__all__)) == []
