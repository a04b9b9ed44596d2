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


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; ``__future__`` is skipped."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_modules_have_no_unused_imports():
    # __init__.py imports only to re-export, so it is left out
    repo = Path(__file__).resolve().parents[1]
    paths = (sorted(Path(memtp.__file__).parent.glob("*.py"))
             + sorted((repo / "tests").glob("*.py"))
             + sorted((repo / "demos").glob("*.py")))
    assert any(p.parent.name == "demos" for p in paths)
    for path in paths:
        if path.name != "__init__.py":
            assert _unused_imports(path.read_text()) == [], path


def test_unused_import_check_sees_a_dead_import():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nfrom .states import spectrum, tensor\n"
              "x = np.zeros(1)\ny = spectrum(x)\n")
    assert _unused_imports(source) == ["line 3: tensor"]
