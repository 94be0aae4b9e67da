"""Every exported name resolves, no module exports a name twice, and no
module imports a name it neither reads nor exports.

A deletion that leaves its name in an ``__all__`` list breaks
``from esnboost import *`` and nothing else, and one that leaves its
import behind breaks nothing, so both are checked here.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

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


SOURCES = sorted(Path(esnboost.__file__).parent.glob("*.py"))

# Imported and never read, but module attributes that the benchmark's traced
# run patches (perfbench/spans.py; ROADMAP item 2 ports it off them).
PATCHED_IMPORTS = {
    "boosting.py": {"ridge_fit"},
    "harness.py": {"train_single_esn", "esn_predict", "boost_predict",
                   "baseline_predict"},
}


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(source):
    tree = ast.parse(source.read_text(encoding="utf-8"))
    imported, read, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
            exported.update(ast.literal_eval(node.value))
    unused = imported - read - exported
    assert unused == PATCHED_IMPORTS.get(source.name, set())
