"""The public API: every exported name exists where it is said to live."""

import ast
import importlib
from pathlib import Path

import pytest

import torusshadow

MODULES = ("geometry", "models", "orbits", "shadowing", "oracles", "stability", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"torusshadow.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_package_reexports_only_public_names():
    # a name imported into the package must be in its module's __all__, or
    # at least defined there when the module declares no __all__
    tree = ast.parse(Path(torusshadow.__file__).read_text())
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        module = importlib.import_module(f"torusshadow.{node.module}")
        public = getattr(module, "__all__", None)
        for alias in node.names:
            assert hasattr(torusshadow, alias.asname or alias.name)
            if public is None:
                assert hasattr(module, alias.name), (node.module, alias.name)
            else:
                assert alias.name in public, (node.module, alias.name)
