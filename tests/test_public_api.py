"""Every exported name resolves, and no module exports a name twice.

A deletion that leaves its name in an ``__all__`` list breaks
``from esnboost import *`` and nothing else, so it is checked here.
"""

import importlib
import pkgutil

import pytest

import esnboost

# __main__ runs the command line when imported, and exports nothing.
MODULES = ["esnboost"] + [
    f"esnboost.{info.name}" for info in pkgutil.iter_modules(esnboost.__path__)
    if info.name != "__main__"]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve_once(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []

