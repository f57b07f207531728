"""Every ``repro`` module imports and every exported name resolves.

A deletion that leaves a stale name in a package's ``__all__`` or a
dangling import in an ``__init__`` fails here, not in the first caller
that happens to touch it.
"""

import importlib
import pkgutil

import pytest

import repro


def _module_names():
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix=repro.__name__ + "."):
        names.append(info.name)
    return sorted(names)


MODULES = _module_names()


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
