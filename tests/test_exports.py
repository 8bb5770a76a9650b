"""Every exported name resolves, so star imports keep working."""

import ast
import importlib
import inspect

import pytest

import diracembed

MODULES = ("_util", "cli", "config", "errors", "floquet", "periodic_core",
           "pruefer", "synth", "verify")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"diracembed.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing
    exec(f"from diracembed.{name} import *", {})


def test_package_root_imports_resolve():
    tree = ast.parse(inspect.getsource(diracembed))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"diracembed.{node.module}")
        for alias in node.names:
            assert getattr(diracembed, alias.name) is getattr(mod, alias.name)
    exec("from diracembed import *", {})
