"""Every exported or re-exported name of the package resolves, and the CLI
imports without scipy."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dimorph

MODULES = sorted(m.name for m in pkgutil.iter_modules(dimorph.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"dimorph.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"dimorph.{name}.__all__ names missing attributes: {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(dimorph.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"dimorph.{module}")
        assert hasattr(source, name), f"dimorph.{module} has no {name}"
        assert getattr(dimorph, name) is getattr(source, name)


def test_cli_import_loads_no_scipy():
    # scipy is only needed to read custom kernel tables from CSV
    src = str(Path(dimorph.__file__).resolve().parents[1])
    code = ("import sys, dimorph.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
