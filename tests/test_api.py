"""Every exported or re-exported name of the package resolves, and each CLI
subcommand imports only the modules it runs (no scipy at all)."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dimorph
from dimorph import cli

MODULES = sorted(m.name for m in pkgutil.iter_modules(dimorph.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"dimorph.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"dimorph.{name}.__all__ names missing attributes: {missing}"


def _fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter on this checkout's package."""
    src = str(Path(dimorph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_package_imports_resolve():
    # the package exports come from one name -> module table, loaded on first use
    exports = dimorph._EXPORTS
    assert exports and dimorph.__all__ == list(exports)
    listed = dir(dimorph)
    for name, module in exports.items():
        source = importlib.import_module(f"dimorph.{module}")
        assert hasattr(source, name), f"dimorph.{module} has no {name}"
        assert getattr(dimorph, name) is getattr(source, name)
        assert name in listed, f"{name} missing from dir(dimorph)"
    with pytest.raises(AttributeError, match="no_such_name"):
        dimorph.no_such_name  # noqa: B018
    # in a new interpreter: `import dimorph` loads no submodule, `import *`
    # binds every export, and `from dimorph import config` gives the submodule
    out = _fresh("import sys, dimorph\n"
                 "print(sorted(m for m in sys.modules if m.startswith('dimorph.')))\n"
                 "ns = {}\n"
                 "exec('from dimorph import *', ns)\n"
                 "print(sorted(set(dimorph.__all__) - set(ns)))\n"
                 "from dimorph import config\n"
                 "print(config is sys.modules['dimorph.config'], config.__name__)\n"
                 "print(dimorph.kernels.__name__)\n").splitlines()
    assert out == ["[]", "[]", "True dimorph.config", "dimorph.kernels"]


def test_cli_deferred_names_resolve_before_any_run():
    # bench/tracing.py and the monkeypatch tests look up and replace these
    # names on `cli` before a runner has bound them
    out = _fresh("import importlib, sys\n"
                 "from dimorph import cli\n"
                 "print(sorted(m for m in cli._DEFERRED.values() if 'dimorph.' + m in sys.modules))\n"
                 "for name, module in sorted(cli._DEFERRED.items()):\n"
                 "    home = importlib.import_module('dimorph.' + module)\n"
                 "    print(name, getattr(cli, name) is getattr(home, name))\n").splitlines()
    assert out[0] == "[]"
    resolved = dict(line.split() for line in out[1:])
    assert {"simulate", "simulate_all", "integrate", "integrate_normalized",
            "coupled_full_run", "fixed_point", "lln_compare"} <= resolved.keys()
    assert set(resolved.values()) == {"True"}, resolved
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name  # noqa: B018


# the bench worker imports its workloads (and with them the modules they run)
# and then dimorph.cli before it installs the tracer; a bare `import
# dimorph.cli` leaves those modules to the tracer, so only cli's names are
# checked after it
@pytest.mark.parametrize("before, checked", [("import workloads", None), ("", "cli")])
def test_bench_tracer_wraps_each_name_once(before, checked):
    bench = Path(__file__).resolve().parents[1] / "bench"
    out = _fresh("import importlib, sys\n"
                 f"sys.path.insert(0, {str(bench)!r})\n"
                 f"{before}\n"
                 "import dimorph.cli\n"
                 "from tracing import TARGETS, Tracer\n"
                 "Tracer().install()\n"
                 "for name, (modules, _hook) in TARGETS.items():\n"
                 "    for mod in modules:\n"
                 "        fn = getattr(importlib.import_module('dimorph.' + mod),\n"
                 "                     name.split('.', 1)[1])\n"
                 "        depth = 0\n"
                 "        while hasattr(fn, '__wrapped__'):\n"
                 "            fn, depth = fn.__wrapped__, depth + 1\n"
                 "        print(mod, name, depth)\n")
    depths = {(mod, name): int(d) for mod, name, d in map(str.split, out.splitlines())}
    assert ("cli", "ibm.simulate") in depths and ("cli", "macro.integrate") in depths
    wrong = {k: d for k, d in depths.items() if d != 1 and checked in (None, k[0])}
    assert not wrong, f"wrapped other than once: {wrong}"


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# shipped config -> the dimorph modules its subcommand must not load; lln and
# acceptance need every runner module, and run here so that a deferred name
# their runner looks up but main left unbound fails in a new interpreter
NOT_LOADED = {
    "totals": ("kernels", "macro", "stability", "ibm", "acceptance"),
    "stationary": ("kernels", "macro", "stability", "ibm", "acceptance"),
    "macro_raw": ("ibm", "acceptance"),
    "macro_normalized": ("ibm", "acceptance"),
    "macro_coupled": ("ibm", "acceptance"),
    "ibm": ("macro", "stability", "acceptance"),
    "fixed_point": ("macro", "ibm", "acceptance"),
    "lln": ("acceptance",),
    "acceptance": (),
}


@pytest.mark.parametrize("config", NOT_LOADED)
def test_subcommand_loads_only_its_modules(tmp_path, config):
    path = CONFIGS / f"{config}.json"
    kind = json.loads(path.read_text())["kind"]
    if kind == "acceptance":  # one quick criterion, not the whole gate
        path = tmp_path / "only_7.json"
        path.write_text(json.dumps({**json.loads((CONFIGS / "acceptance.json").read_text()),
                                    "only": ["7"]}))
    out = _fresh("import contextlib, io, runpy, sys\n"
                 f"sys.argv = ['dimorph', {kind!r}, '--config', {str(path)!r}, "
                 f"'--out', {str(tmp_path)!r}]\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    try:\n"
                 "        runpy.run_module('dimorph', run_name='__main__', alter_sys=True)\n"
                 "    except SystemExit as exc:\n"
                 "        assert exc.code == 0, exc.code\n"
                 "print(' '.join(m for m in sys.modules if m.startswith('dimorph.')))\n")
    loaded = {m.split(".", 1)[1] for m in out.split()}
    assert (tmp_path / "manifest.json").exists()
    assert {"cli", "config", "io"} <= loaded
    unwanted = loaded & set(NOT_LOADED[config])
    assert not unwanted, f"{kind} loaded {sorted(unwanted)}"


def test_no_module_imports_scipy():
    # numpy is the only runtime dependency; scipy is for the tests. Imports
    # at any depth count, a function's own included
    found = []
    for path in sorted(Path(dimorph.__file__).resolve().parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "scipy"]
    assert not found


def test_cli_import_loads_no_scipy():
    out = _fresh("import sys, dimorph.cli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def _custom_macro(tmp_path) -> Path:
    """A raw macro config whose `custom` kernel is a 3 x 3 x 13 CSV table."""
    knots, zs = (-2.0, 0.0, 2.0), np.linspace(-3.0, 3.0, 13)
    rows = ["x,y,z,density"] + [f"{x},{y},{z},{np.exp(-(z - 0.5 * (x + y)) ** 2)}"
                                for x in knots for y in knots for z in zs]
    (tmp_path / "kernel.csv").write_text("\n".join(rows) + "\n")
    cfg = json.loads((CONFIGS / "macro_raw.json").read_text())
    cfg |= {"grid": {"x_min": -2.0, "x_max": 2.0, "n_cells": 16},
            "kernel": {"family": "custom", "table_csv": str(tmp_path / "kernel.csv")},
            "solver": {"dt": 0.01, "t_end": 1.0, "sample_stride": 50}}
    path = tmp_path / "macro_custom.json"
    path.write_text(json.dumps(cfg))
    return path


def test_totals_and_macro_solves_load_no_scipy(tmp_path):
    # the DOP853 tableau and its continuous extension are float literals,
    # and a `custom` kernel interpolates its table without scipy
    code = "import contextlib, io, sys\nfrom dimorph import cli\n"
    runs = (("totals", CONFIGS / "totals.json"), ("macro", CONFIGS / "macro_raw.json"),
            ("macro", _custom_macro(tmp_path)))
    for kind, cfg in runs:
        code += (f"with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    assert cli.main(['{kind}', '--config', {str(cfg)!r},"
                 f" '--out', {str(tmp_path / cfg.stem)!r}]) == 0\n")
    code += "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _fresh(code).strip() == "[]"
    for _, cfg in runs:
        assert (tmp_path / cfg.stem / "manifest.json").exists()


def test_runs_below_the_fft_crossover_load_no_numpy_fft():
    # numpy.fft is imported on first use, by an additive birth at or above
    # the FFT crossover; importing the CLI and smaller births never load it
    out = _fresh("import sys, dimorph.cli\n"
                 "from dimorph import kernels, measures\n"
                 "kernel = kernels.AdditiveNoiseKernel(kernels.GaussianNoise(0.5))\n"
                 "for n in (128, kernels._FFT_MIN_CELLS - 1, kernels._FFT_MIN_CELLS):\n"
                 "    grid = measures.TraitGrid(-8.0, 8.0, n)\n"
                 "    w = measures.gaussian_measure(grid, 0.0, 1.0).weights\n"
                 "    kernels.birth_weights(kernel, w, w, grid)\n"
                 "    print('numpy.fft' in sys.modules)\n")
    assert out.split() == ["False", "False", "True"]
