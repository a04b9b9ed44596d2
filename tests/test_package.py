import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import memtp

MODULES = sorted(f"memtp.{m.name}" for m in pkgutil.iter_modules(memtp.__path__))


def test_cli_import_loads_no_scipy():
    # scipy is imported only inside the closed forms and critical_beta
    code = ("import sys, memtp.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    src = str(Path(memtp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_every_exported_name_resolves():
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"{name}.__all__ names {attr!r}"


def test_package_reexports_only_public_names():
    tree = ast.parse(Path(memtp.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1
        module = importlib.import_module(f"memtp.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (
                f"memtp imports {alias.name!r}, which memtp.{node.module} "
                "does not export")
