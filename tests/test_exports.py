"""Every exported name resolves, so star imports keep working, and the
package runs on numpy and the standard library alone."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import diracembed
from diracembed import PeriodicCoefficient, RunConfig

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


def test_no_scipy_module_loads(tmp_path):
    # scipy is only the tests' oracle.  A fresh process imports the package
    # and runs bands and floquet (monodromy, Magnus frame, periodic
    # splines) and the oscillatory sup-scan on a periodic background.
    cfg = tmp_path / "config.json"
    RunConfig(p=PeriodicCoefficient(a0=0.4, cos=(0.3,), sin=(0.1,)),
              q=PeriodicCoefficient(a0=-0.2, cos=(0.15,)), lambdas=[0.9],
              scan_hi=1.5, scan_resolution=0.05,
              out_dir=str(tmp_path)).save(str(cfg))
    code = (
        "import json, sys\n"
        "import diracembed\n"
        "from diracembed import cli\n"
        f"cfg = {str(cfg)!r}\n"
        "rcs = [cli.main(['bands', '--config', cfg]),\n"
        "       cli.main(['floquet', '--config', cfg, '--lam', '0.9']),\n"
        "       cli.main(['oscillatory', '--config', cfg, '--lam', '0.9',\n"
        "                 '--a', '1', '--x0', '10', '--x-max', '100'])]\n"
        "print(json.dumps([rcs, sorted(m for m in sys.modules\n"
        "                              if m.startswith('scipy'))]))\n")
    src = os.path.dirname(os.path.dirname(diracembed.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True)
    rcs, loaded = json.loads(run.stdout.splitlines()[-1])
    assert rcs == [0, 0, 0]
    assert loaded == []
