import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimorph import acceptance as acc
from dimorph import cli
from dimorph.io import csv_text, emit_distribution_csv, trajectory_blocks
from dimorph.measures import GridMeasure, TraitGrid, gaussian_measure


# the src/ directory this package was imported from: a child interpreter
# gets it on PYTHONPATH, so the CLI runs the same checkout, installed or not
SRC = str(Path(cli.__file__).resolve().parents[1])


def read_distribution(path, dtype=None):
    """A distribution CSV's columns by name, read as the README shows."""
    return np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True, dtype=dtype,
                                       encoding=None))


def start_cli(*args, cwd=None):
    return subprocess.Popen([sys.executable, "-m", "dimorph", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd,
                            env={**os.environ, "PYTHONPATH": SRC})


def run_cli(*args, cwd=None):
    proc = start_cli(*args, cwd=cwd)
    stdout, stderr = proc.communicate()
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


TOTALS_CFG = {
    "schema_version": 1,
    "kind": "totals",
    "rates": {"p_f": 2.0, "p_m": 2.0, "D_f": 1.0, "D_m": 1.0,
              "U_ff": 0.25, "U_fm": 0.25, "U_mf": 0.25, "U_mm": 0.25},
    "initial": {"M": 1.0, "F": 1.0},
    "t_end": 60.0,
    "dt": 0.01,
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_totals_scenario(tmp_path):
    cfg = _write(tmp_path, "totals.json", TOTALS_CFG)
    res = run_cli("totals", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["classification"] == "Persistence"
    assert summary["M_bar"] == pytest.approx(2.0, abs=1e-9)
    assert summary["A"] == pytest.approx(1.0)
    assert summary["fit_slope"] < 0.0
    # DOP853 steps, and no mass was clipped from a stepped or a read state
    diag = summary["diagnostics"]
    assert diag == {"accepted_steps": diag["accepted_steps"], "clipped_interpolated_mass": 0.0,
                    "clipped_mass": 0.0, "rejected_steps": diag["rejected_steps"]}
    assert 0 < diag["accepted_steps"] + diag["rejected_steps"] < 100
    assert (tmp_path / "out" / "manifest.json").exists()


def test_invalid_config_names_field(tmp_path):
    bad = dict(TOTALS_CFG)
    bad["rates"] = dict(TOTALS_CFG["rates"], D_f=-1.0)
    cfg = _write(tmp_path, "bad.json", bad)
    res = run_cli("totals", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    assert "D_f" in res.stderr


@pytest.mark.parametrize("section, field, value", [
    ("rates", "D_f", float("nan")), ("rates", "U_mm", float("inf")),
    ("initial", "M", float("-inf")),
], ids=["nan", "inf", "-inf"])
def test_non_finite_number_names_field(tmp_path, capsys, section, field, value):
    # json accepts NaN and Infinity, which no scenario field means
    bad = dict(TOTALS_CFG, **{section: dict(TOTALS_CFG[section], **{field: value})})
    cfg = _write(tmp_path, "bad.json", bad)
    assert cli.main(["totals", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"field {section}.{field} must be finite" in capsys.readouterr().err


def test_schema_version_checked(tmp_path):
    bad = dict(TOTALS_CFG, schema_version=99)
    cfg = _write(tmp_path, "bad.json", bad)
    res = run_cli("totals", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    assert "schema_version" in res.stderr


def test_kind_mismatch_rejected(tmp_path):
    cfg = _write(tmp_path, "totals.json", dict(TOTALS_CFG, kind="ibm"))
    res = run_cli("totals", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    assert "kind" in res.stderr


def test_reruns_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, "ibm.json", {
        "schema_version": 1,
        "kind": "ibm",
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_cells": 64},
        "rates": TOTALS_CFG["rates"],
        "kernel": {"family": "additive", "noise": {"kind": "gaussian", "sigma": 0.5}},
        "N": 100,
        "t_end": 1.0,
        "sample_times": [0.0, 0.5, 1.0],
        "seed": 9,
        "initial_female": {"shape": "gaussian", "mean": 0.0, "sd": 0.5, "count": 100},
        "initial_male": {"shape": "gaussian", "mean": 0.0, "sd": 0.5, "count": 100},
    })
    for d in ("a", "b"):
        res = run_cli("ibm", "--config", str(cfg), "--out", str(tmp_path / d))
        assert res.returncode == 0, res.stderr
    for name in ("distributions.csv", "run.json", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_manifest_hashes_match_contents(tmp_path):
    cfg = _write(tmp_path, "totals.json", TOTALS_CFG)
    out = tmp_path / "out"
    assert run_cli("totals", "--config", str(cfg), "--out", str(out)).returncode == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"]
    for entry in manifest["files"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def test_ibm_scenario_metadata(tmp_path):
    cfg = _write(tmp_path, "ibm.json", {
        "schema_version": 1,
        "kind": "ibm",
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_cells": 64},
        "rates": TOTALS_CFG["rates"],
        "kernel": {"family": "additive", "noise": {"kind": "gaussian", "sigma": 0.5}},
        "N": 200,
        "t_end": 1.0,
        "sample_times": [0.0, 1.0],
        "seed": 5,
        "initial_female": {"shape": "gaussian", "mean": 0.0, "sd": 0.5, "count": 200},
        "initial_male": {"shape": "gaussian", "mean": 0.0, "sd": 0.5, "count": 200},
    })
    out = tmp_path / "out"
    res = run_cli("ibm", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    meta = json.loads((out / "run.json").read_text())
    assert meta["seed"] == 5
    assert meta["births_female"] + meta["births_male"] - meta["deaths"] \
        == meta["final_counts"]["male"] + meta["final_counts"]["female"] - 400
    data = read_distribution(out / "distributions.csv")
    assert set(data["component"]) == {"male", "female"}
    assert len(data) == 2 * 2 * 64


def test_macro_normalized_scenario(tmp_path):
    cfg = _write(tmp_path, "macro.json", {
        "schema_version": 1,
        "kind": "macro",
        "mode": "normalized",
        "grid": {"x_min": -8.0, "x_max": 8.0, "n_cells": 64},
        "kernel": {"family": "additive", "noise": {"kind": "gaussian", "sigma": 0.5}},
        "A": 2.0,
        "initial_male": {"shape": "gaussian", "mean": 1.0, "sd": 0.5},
        "initial_female": {"shape": "gaussian", "mean": 4.0, "sd": 0.5},
        "solver": {"dt": 0.01, "t_end": 2.0, "sample_stride": 50},
    })
    out = tmp_path / "out"
    res = run_cli("macro", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mode"] == "normalized"
    for snap in summary["snapshots"]:
        assert snap["mass_male"] == pytest.approx(1.0, abs=1e-9)


def test_fixed_point_scenario(tmp_path):
    cfg = _write(tmp_path, "fp.json", {
        "schema_version": 1,
        "kind": "fixed-point",
        "grid": {"x_min": -8.0, "x_max": 8.0, "n_cells": 128},
        "kernel": {"family": "additive", "noise": {"kind": "gaussian", "sigma": 0.5}},
        "initial": {"shape": "gaussian", "mean": 0.0, "sd": 1.0},
        "tol": 1e-8,
    })
    out = tmp_path / "out"
    res = run_cli("fixed-point", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["variance"] == pytest.approx(0.5, rel=0.05)
    assert summary["residual"] <= 2e-8


def test_lln_scenario_structure(tmp_path):
    cfg = _write(tmp_path, "lln.json", {
        "schema_version": 1,
        "kind": "lln",
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_cells": 64},
        "rates": TOTALS_CFG["rates"],
        "kernel": {"family": "additive", "noise": {"kind": "gaussian", "sigma": 0.5}},
        "N_list": [50, 200],
        "replicas": 3,
        "checkpoints": [0.5],
        "seed": 0,
        "initial_female": {"shape": "gaussian", "mean": 0.0, "sd": 0.5, "mass": 1.0},
        "initial_male": {"shape": "gaussian", "mean": 0.0, "sd": 0.5, "mass": 1.0},
        "solver": {"dt": 0.005, "t_end": 0.501, "sample_stride": 10},
    })
    out = tmp_path / "out"
    res = run_cli("lln", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "lln_report.json").read_text())
    assert report["N_list"] == [50, 200]
    assert len(report["mean_errors"]) == 2
    assert (out / "lln_errors.csv").exists()


def test_emit_distribution_csv_shape(tmp_path):
    grid = TraitGrid(0.0, 1.0, 4)
    m = gaussian_measure(grid, 0.5, 0.2)
    f = gaussian_measure(grid, 0.4, 0.1)
    path = tmp_path / "d.csv"
    emit_distribution_csv(path, trajectory_blocks([0.0], [(m, f)]))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,component,cell_center,weight"
    assert len(lines) == 1 + 8  # two components, four cells each


def test_distribution_csv_round_trip(tmp_path):
    grid = TraitGrid(-1.0, 1.0, 32)
    rng = np.random.default_rng(0)
    m = GridMeasure(grid, rng.random(32))
    f = GridMeasure(grid, rng.random(32))
    path = tmp_path / "d.csv"
    emit_distribution_csv(path, trajectory_blocks([0.25], [(m, f)]))
    data = read_distribution(path)
    comps, weights = data["component"], data["weight"]
    np.testing.assert_array_equal(weights[comps == "male"], m.weights)
    np.testing.assert_array_equal(weights[comps == "female"], f.weights)


def test_empty_trajectory_gives_header_only(tmp_path):
    path = tmp_path / "d.csv"
    emit_distribution_csv(path, [])
    assert path.read_text() == "time,component,cell_center,weight\n"


def test_csv_text_writes_floats_round_trip_and_the_rest_as_text():
    # one formatter behind the distribution, measure and series CSVs
    assert csv_text("N,x", [(3, 0.1), (10, 1 / 3)]) \
        == "N,x\n3,0.10000000000000001\n10,0.33333333333333331\n"
    assert csv_text("N,x", []) == "N,x\n"


def _reference_field(v):
    # the per-value formatting the CSV artifacts have always had
    return format(float(v), ".17g") if isinstance(v, float) else str(v)


def _reference_csv(header, rows):
    return "\n".join((header, *(",".join(map(_reference_field, row)) for row in rows))) + "\n"


# finite float64 values, the edge cases drawn often
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308, 1.0, -3.0, 2.0**53, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300, allow_subnormal=True),
    st.integers(-2**60, 2**60).map(float))
_WEIGHTS = st.lists(_FLOATS, max_size=12).map(np.array)
_SCALARS = st.one_of(_FLOATS, _FLOATS.map(np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_SCALARS, st.sampled_from(["male", "female", "limit", "a%sb"]),
                          _WEIGHTS), max_size=5))
def test_distribution_csv_matches_the_per_value_format_and_round_trips(tmp_path_factory, drawn):
    blocks = [(t, comp, w[::-1].copy(), w) for t, comp, w in drawn]
    rows = [(t, comp, float(c), float(w)) for t, comp, cs, ws in blocks for c, w in zip(cs, ws)]
    text = csv_text("time,component,cell_center,weight", blocks)
    assert text == _reference_csv("time,component,cell_center,weight", rows)
    path = emit_distribution_csv(tmp_path_factory.getbasetemp() / "drawn.csv", blocks)
    # float columns given: with inferred types, integral values such as -0 read as int
    data = read_distribution(path, dtype=(float, "U8", float, float))
    assert list(data["component"]) == [r[1] for r in rows]
    for i, name in ((0, "time"), (2, "cell_center"), (3, "weight")):
        assert data[name].tobytes() == np.array([r[i] for r in rows], dtype=float).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-10**20, 10**20), st.sampled_from(["x", "50%"]),
                          _FLOATS, _FLOATS.map(np.float64), st.integers(0, 10**6)),
                max_size=8),
       st.integers(1, 10**4))
def test_csv_columns_of_every_kind_match_the_per_value_format(rows, n):
    # integer and string columns as in lln_errors.csv, float64 scalars in a
    # list column, an integer array column and a repeated integer field
    ints, strs, floats, scalars, counts = [list(c) for c in zip(*rows)] or [[]] * 5
    block = (n, ints, strs, np.array(floats), scalars, np.array(counts, dtype=np.int64))
    expected = _reference_csv("N,i,s,x,y,k", [(n, *row) for row in rows])
    assert csv_text("N,i,s,x,y,k", [block]) == expected
    assert csv_text("N,i,s,x,y,k", [(n, *row) for row in rows]) == expected  # one-line blocks


def test_csv_block_columns_must_have_one_length():
    with pytest.raises(ValueError, match="size"):
        csv_text("a,b", [(np.zeros(2), np.zeros(3))])


def test_measure_csv_errors(tmp_path):
    from dimorph.errors import IoError
    from dimorph.io import read_measure_csv, write_measure_csv

    grid = TraitGrid(-1.0, 1.0, 8)
    other = TraitGrid(-1.0, 1.0, 16)
    path = tmp_path / "m.csv"
    write_measure_csv(path, gaussian_measure(grid, 0.0, 0.4))
    with pytest.raises(IoError):
        read_measure_csv(path, other)
    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n1,2\n")
    with pytest.raises(IoError):
        read_measure_csv(bad, grid)


def test_measure_csv_round_trip_and_tabulated_input(tmp_path):
    from dimorph.io import read_measure_csv, write_measure_csv

    grid = TraitGrid(-2.0, 2.0, 32)
    m = gaussian_measure(grid, 0.3, 0.5)
    path = tmp_path / "m.csv"
    write_measure_csv(path, m)
    back = read_measure_csv(path, grid)
    np.testing.assert_array_equal(back.weights, m.weights)

    cfg = _write(tmp_path, "fp.json", {
        "schema_version": 1,
        "kind": "fixed-point",
        "grid": {"x_min": -2.0, "x_max": 2.0, "n_cells": 32},
        "kernel": {"family": "additive", "noise": {"kind": "gaussian", "sigma": 0.2}},
        "initial": {"shape": "tabulated", "path": str(path)},
    })
    res = run_cli("fixed-point", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "out" / "mu_star_measure.csv").exists()

    # a tabulated weight of -1e-15 is refused, not clipped to zero
    weights = m.weights.copy()
    weights[5] = -1e-15
    path.write_text(csv_text("cell_center,weight", zip(grid.centers, weights)))
    res = run_cli("fixed-point", "--config", str(cfg), "--out", str(tmp_path / "refused"))
    assert res.returncode == 2
    assert "field initial: weights must be non-negative, min = -1e-15" in res.stderr


def test_lln_parallel_jobs(tmp_path):
    cfg = _write(tmp_path, "lln.json", {
        "schema_version": 1,
        "kind": "lln",
        "grid": {"x_min": -6.0, "x_max": 6.0, "n_cells": 64},
        "rates": TOTALS_CFG["rates"],
        "kernel": {"family": "additive", "noise": {"kind": "gaussian", "sigma": 0.5}},
        "N_list": [50],
        "replicas": 3,
        "checkpoints": [0.25],
        "seed": 1,
        "initial_female": {"shape": "gaussian", "mean": 0.0, "sd": 0.5},
        "initial_male": {"shape": "gaussian", "mean": 0.0, "sd": 0.5},
        "solver": {"dt": 0.005, "t_end": 0.251, "sample_stride": 10},
    })
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert run_cli("lln", "--config", str(cfg), "--out", str(serial)).returncode == 0
    res = run_cli("lln", "--config", str(cfg), "--out", str(parallel), "--jobs", "2")
    assert res.returncode == 0, res.stderr
    assert (serial / "lln_errors.csv").read_bytes() == (parallel / "lln_errors.csv").read_bytes()


def test_runtime_failure_exits_one(tmp_path):
    cfg = _write(tmp_path, "fp.json", {
        "schema_version": 1,
        "kind": "fixed-point",
        "grid": {"x_min": -8.0, "x_max": 8.0, "n_cells": 64},
        "kernel": {"family": "additive", "noise": {"kind": "gaussian", "sigma": 0.5}},
        "initial": {"shape": "gaussian", "mean": 0.0, "sd": 2.0},
        "tol": 1e-13,
        "max_iter": 2,
    })
    res = run_cli("fixed-point", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 1
    assert "fixed-point failed" in res.stderr


def test_out_dir_env_var(tmp_path):
    cfg = _write(tmp_path, "totals.json", TOTALS_CFG)
    env = dict(os.environ, DIMORPH_OUT=str(tmp_path / "envout"), PYTHONPATH=SRC)
    res = subprocess.run([sys.executable, "-m", "dimorph", "totals",
                          "--config", str(cfg)],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "envout" / "summary.json").exists()


def test_acceptance_subcommand_subset(tmp_path):
    cfg = _write(tmp_path, "acc.json", {
        "schema_version": 1,
        "kind": "acceptance",
        "only": ["1a", "4", "10"],
    })
    out = tmp_path / "out"
    res = run_cli("acceptance", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert "[PASS]" in res.stdout
    report = json.loads((out / "acceptance_report.json").read_text())
    assert [r["id"] for r in report["results"]] == ["1a", "4", "10"]
    assert all(r["passed"] for r in report["results"])


@pytest.mark.parametrize("field, value", [
    ("only", "1b2"),      # a string matched criterion ids as substrings
    ("only", ["99"]),     # no known id left the report empty
    ("only", []),
    ("jobs", "2"),
    ("jobs", 0),
    ("jobs", True),
], ids=["only-string", "only-unknown-id", "only-empty", "jobs-string", "jobs-zero",
        "jobs-bool"])
def test_acceptance_config_rejected(tmp_path, capsys, field, value):
    cfg = _write(tmp_path, "acc.json", {"schema_version": 1, "kind": "acceptance",
                                        field: value})
    assert cli.main(["acceptance", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"field {field} must be" in capsys.readouterr().err
    assert not (tmp_path / "out" / "acceptance_report.json").exists()


@pytest.mark.parametrize("config_jobs, flag, expected", [
    (2, ["--jobs", "1"], 1),
    (2, ["--jobs", "3"], 3),
    (2, [], 2),
    (None, [], 1),
], ids=["flag-1-over-config", "flag-3-over-config", "config", "default"])
def test_acceptance_jobs_flag_wins_over_the_config(tmp_path, monkeypatch, config_jobs, flag,
                                                   expected):
    # as --seed wins over a config's seed
    seen = []

    def run_all(only=None, jobs=1):
        seen.append(jobs)
        return []

    monkeypatch.setattr(cli, "run_all", run_all)
    cfg = {"schema_version": 1, "kind": "acceptance", "only": ["4"]}
    if config_jobs is not None:
        cfg["jobs"] = config_jobs
    path = _write(tmp_path, "acc.json", cfg)
    assert cli.main(["acceptance", "--config", str(path), "--out", str(tmp_path / "out"),
                     *flag]) == 0
    assert seen == [expected]


def test_acceptance_failed_criterion_exits_one(tmp_path, monkeypatch, capsys):
    def ok():
        return acc.CriterionResult("a", "passes", True, "ok: fine", 0.0)

    def fails():
        return acc.CriterionResult("b", "fails", False, "FAIL: off by one", 0.0)

    monkeypatch.setattr(acc, "ALL_CRITERIA", (("a", ok), ("b", fails)))
    out = tmp_path / "out"
    assert cli.main(["acceptance", "--out", str(out)]) == 1
    assert "1 of 2 criteria failed" in capsys.readouterr().err
    report = json.loads((out / "acceptance_report.json").read_text())
    assert [r["passed"] for r in report["results"]] == [True, False]
    assert not report["all_passed"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert [e["path"] for e in manifest["files"]] == ["acceptance_report.json"]


@pytest.mark.parametrize("sample_times", [[0.0, 1.0], []], ids=["last-sample-early", "no-samples"])
def test_ibm_final_counts_are_taken_at_t_end(tmp_path, sample_times):
    # configs/ibm.json at N = 100 runs to t_end = 3, past every sample time
    configs = Path(__file__).resolve().parent.parent / "configs"
    shipped = json.loads((configs / "ibm.json").read_text())
    cfg = _write(tmp_path, "ibm.json", shipped | {
        "N": 100, "sample_times": sample_times,
        "initial_female": shipped["initial_female"] | {"count": 100},
        "initial_male": shipped["initial_male"] | {"count": 100}})
    out = tmp_path / "out"
    assert cli.main(["ibm", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "run.json").read_text())
    assert meta["extinction_time"] is None and meta["events"] > 0
    assert meta["births_female"] + meta["births_male"] - meta["deaths"] \
        == meta["final_counts"]["male"] + meta["final_counts"]["female"] - 200


def test_shipped_configs_run(tmp_path):
    # every example config except the full acceptance gate, run twice at once
    # into two directories: a seeded rerun writes a byte-identical manifest.
    # Of these runs only lln takes --jobs, and the others exit 2 on it
    configs = Path(__file__).resolve().parent.parent / "configs"
    for cfg in sorted(configs.glob("*.json")):
        if cfg.name == "acceptance.json":
            continue
        kind = json.loads(cfg.read_text())["kind"]
        jobs = ["--jobs", "2"] if kind == "lln" else []
        outs = [tmp_path / run / cfg.stem for run in ("first", "second")]
        procs = [start_cli(kind, "--config", str(cfg), "--out", str(out), *jobs) for out in outs]
        errors = [proc.communicate()[1] for proc in procs]
        for proc, stderr in zip(procs, errors):
            assert proc.returncode == 0, f"{cfg.name}: {stderr}"
        first, second = ((out / "manifest.json").read_bytes() for out in outs)
        assert first == second, f"{cfg.name}: the rerun's manifest differs"


FP_CFG = {
    "schema_version": 1,
    "kind": "fixed-point",
    "grid": {"x_min": -8.0, "x_max": 8.0, "n_cells": 64},
    "kernel": {"family": "additive", "noise": {"kind": "gaussian", "sigma": 0.5}},
    "initial": {"shape": "gaussian", "mean": 0.0, "sd": 1.0},
}

LLN_CFG = {
    "schema_version": 1,
    "kind": "lln",
    "grid": {"x_min": -6.0, "x_max": 6.0, "n_cells": 64},
    "rates": TOTALS_CFG["rates"],
    "kernel": {"family": "additive", "noise": {"kind": "gaussian", "sigma": 0.5}},
    "N_list": [50],
    "replicas": 3,
    "checkpoints": [0.25],
    "initial_female": {"shape": "gaussian", "mean": 0.0, "sd": 0.5},
    "initial_male": {"shape": "gaussian", "mean": 0.0, "sd": 0.5},
}


@pytest.mark.parametrize("command, base, change, message", [
    ("totals", TOTALS_CFG, {"dt": -0.01}, "field dt must be positive"),
    ("totals", TOTALS_CFG, {"t_end": 0.0}, "field t_end must be positive"),
    ("totals", TOTALS_CFG, {"initial": {"M": -1.0, "F": 1.0}},
     "field initial.M must be non-negative"),
    ("lln", LLN_CFG, {"checkpoints": []}, "field checkpoints must be a non-empty list"),
    ("lln", LLN_CFG, {"N_list": [50, 0]}, "field N_list must contain positive integers"),
    ("lln", LLN_CFG, {"initial_male": {"shape": "gaussian", "mean": 0.0, "sd": 0.5,
                                       "mass": -1.0}},
     "field initial_male.mass must be positive"),
    ("fixed-point", FP_CFG, {"max_iter": 0}, "field max_iter must be >= 1"),
    ("fixed-point", FP_CFG, {"tol": 0.0}, "field tol must be positive"),
    # Python's json reads NaN, so a tabulated density can carry one
    ("fixed-point", FP_CFG, {"kernel": {"family": "additive", "noise": {
        "kind": "tabulated", "z": [-1.0, 0.0, 1.0], "pdf": [0.0, float("nan"), 0.0]}}},
     "config error: field kernel.noise: z and pdf must be finite"),
], ids=["totals-dt", "totals-t_end", "totals-initial", "lln-checkpoints", "lln-N_list",
        "lln-mass", "fixed-point-max_iter", "fixed-point-tol", "fixed-point-tabulated-nan"])
def test_runner_inputs_name_their_field(tmp_path, capsys, command, base, change, message):
    cfg = _write(tmp_path, "bad.json", dict(base, **change))
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, base, section, field", [
    ("totals", TOTALS_CFG, "rates", "D_f"),
    ("fixed-point", FP_CFG, "grid", "x_max"),
    ("fixed-point", FP_CFG, "initial", "mean"),
], ids=["rate", "grid-bound", "initial-condition"])
def test_integer_beyond_float_range_names_field(tmp_path, capsys, command, base, section, field):
    # json reads an integer of any size; float() of one past 1.8e308 overflows
    bad = dict(base, **{section: dict(base[section], **{field: 10**400})})
    cfg = _write(tmp_path, "bad.json", bad)
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert (f"config error: field {section}.{field} must be finite, got an integer too large "
            "for a float") in capsys.readouterr().err


def test_integer_of_too_many_digits_is_a_config_error(tmp_path, capsys):
    # json refuses to read an integer of more than 4300 digits with a bare ValueError
    text = json.dumps(dict(TOTALS_CFG, rates=dict(TOTALS_CFG["rates"], D_f="D_f")))
    cfg = tmp_path / "bad.json"
    cfg.write_text(text.replace('"D_f": "D_f"', '"D_f": ' + "9" * 5000))
    assert cli.main(["totals", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "is not valid JSON: Exceeds the limit (4300 digits)" in capsys.readouterr().err


def test_zero_mass_tabulated_initial_condition_is_a_config_error(tmp_path, capsys):
    grid = TraitGrid(**FP_CFG["grid"])
    csv = tmp_path / "zero.csv"
    csv.write_text("cell_center,weight\n" + "".join(f"{c!r},0.0\n" for c in grid.centers.tolist()))
    cfg = _write(tmp_path, "fp.json", dict(FP_CFG, initial={"shape": "tabulated", "path": str(csv)}))
    assert cli.main(["fixed-point", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert ("config error: field initial: distribution has no mass inside the grid"
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(tmp_path, capsys, jobs):
    cfg = _write(tmp_path, "lln.json", LLN_CFG)
    with pytest.raises(SystemExit) as exc:
        cli.main(["lln", "--config", str(cfg), "--out", str(tmp_path / "out"), "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bench_tracer_targets_exist():
    # the bench harness replaces these names in the listed dimorph modules;
    # a name moved or renamed there only fails once the traced run starts
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for name, (modules, _hook) in tracing.TARGETS.items():
        layer, attr = name.split(".", 1)
        assert layer in tracing.LAYERS, name
        for mod in modules:
            assert callable(getattr(importlib.import_module(f"dimorph.{mod}"), attr, None)), \
                f"{name} is not in dimorph.{mod}"


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _shipped(name):
    return json.loads((CONFIGS / f"{name}.json").read_text())


def _run_checked(tmp_path, capsys, command, cfg):
    """cli.main on cfg: its exit code and stderr, and whether a manifest was written."""
    path = _write(tmp_path, "cfg.json", cfg)
    code = cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err, (tmp_path / "out" / "manifest.json").exists()


def _never(*args, **kwargs):
    raise AssertionError("ran despite a bad config")


@pytest.mark.parametrize("change, message", [
    ({"t_end": -1.0}, "field t_end must be positive"),
    ({"N": 0}, "field N must be >= 1"),
    ({"sample_times": [5.0]}, "field sample_times must lie within [0, t_end]"),
    ({"sample_times": [2.0, 1.0]}, "field sample_times must be sorted"),
    ({"sample_times": ["a"]}, "field sample_times must contain non-negative numbers"),
    ({"sample_times": [-1.0, 1.0]}, "field sample_times must contain non-negative numbers"),
    ({"seed": -1}, "field seed must be >= 0"),
    ({"N": True}, "field N must be int, got bool"),
    ({"rates": _shipped("ibm")["rates"] | {"D_f": True}}, "field rates.D_f must be int/float"),
], ids=["t_end", "N-zero", "sample_times-late", "sample_times-unsorted", "sample_times-str",
        "sample_times-negative", "seed", "N-bool", "rate-bool"])
def test_ibm_bad_field_exits_two_before_simulating(tmp_path, capsys, monkeypatch, change,
                                                   message):
    monkeypatch.setattr(cli, "simulate", _never)
    code, err, manifest = _run_checked(tmp_path, capsys, "ibm", _shipped("ibm") | change)
    assert (code, manifest) == (2, False), err
    assert message in err


# the flags each subcommand's runner reads
READS = {"totals": (), "stationary": (), "macro": (), "ibm": ("seed",), "fixed-point": (),
         "lln": ("jobs", "seed"), "acceptance": ("jobs",)}


@pytest.mark.parametrize("command", list(READS))
def test_subcommand_takes_only_the_flags_it_reads(tmp_path, capsys, command):
    assert set(READS) == set(cli._RUNNERS)
    for flag in ("jobs", "seed"):
        argv = [command, "--config", "cfg.json", "--out", str(tmp_path / "out"), f"--{flag}", "3"]
        if flag in READS[command]:
            assert getattr(cli.build_parser().parse_args(argv), flag) == 3
            continue
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{flag} 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_seed_flag_wins_over_the_config(tmp_path):
    ibm = _shipped("ibm") | {"N": 100, "t_end": 0.5, "sample_times": [0.5]}
    for name in ("initial_female", "initial_male"):
        ibm[name] = ibm[name] | {"count": 100}
    runs = (("ibm", ibm, [], "run.json"),
            ("lln", LLN_CFG | {"seed": 4}, ["--jobs", "2"], "lln_report.json"))
    for command, cfg, flags, report in runs:
        out = tmp_path / command
        code = cli.main([command, "--config", str(_write(tmp_path, f"{command}.json", cfg)),
                         "--out", str(out), "--seed", "1", *flags])
        assert code == 0
        assert json.loads((out / report).read_text())["seed"] == 1


def test_negative_seed_flag_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "ibm.json", _shipped("ibm"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["ibm", "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "-5"])
    assert exc.value.code == 2
    assert "argument --seed: must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("change, message", [
    ({"replicas": 2}, "field replicas must be >= 3, got 2"),
    ({"replicas": 0}, "field replicas must be >= 3, got 0"),
    ({"replicas": -1}, "field replicas must be >= 3, got -1"),
    ({"replicas": True}, "field replicas must be int, got bool"),
    ({"checkpoints": [-1.0]}, "field checkpoints must contain non-negative numbers"),
    ({"checkpoints": [3.0, 1.0]}, "field checkpoints must be sorted"),
    ({"checkpoints": [1.0, True]}, "field checkpoints must contain non-negative numbers"),
    ({"N_list": []}, "field N_list must be a non-empty list"),
    ({"N_list": [100, 1000, 100]}, "field N_list must not repeat a scale, got [100, 1000, 100]"),
    ({"seed": -2}, "field seed must be >= 0"),
    ({"solver": {"dt": -0.005, "t_end": 3.001}}, "field solver"),
    ({"solver": {"dt": 0.005, "t_end": 0.002}},
     "field solver: t_end = 0.002 is under half a step of dt = 0.005"),
    ({"checkpoints": [1.0, 2.5], "solver": {"dt": 0.005, "t_end": 3.001, "sample_stride": 40}},
     "field checkpoints must lie on the solver's samples (every dt * sample_stride = 0.2 "
     "up to 3), got 2.5; nearest is 2.4"),
    ({"checkpoints": [1.0, 3.0], "solver": {"dt": 0.005, "t_end": 2.0, "sample_stride": 20}},
     "field checkpoints must lie on the solver's samples (every dt * sample_stride = 0.1 "
     "up to 2), got 3.0; nearest is 2"),
], ids=["replicas-2", "replicas-0", "replicas-negative", "replicas-bool", "checkpoints-negative",
        "checkpoints-unsorted", "checkpoints-bool", "N_list-empty", "N_list-repeated", "seed",
        "solver", "solver-no-step", "checkpoints-off-lattice", "checkpoints-beyond-last-sample"])
def test_lln_bad_field_exits_two_before_any_replica(tmp_path, capsys, monkeypatch, change,
                                                   message):
    monkeypatch.setattr(cli, "simulate_all", _never)
    monkeypatch.setattr(cli, "integrate", _never)
    code, err, manifest = _run_checked(tmp_path, capsys, "lln", _shipped("lln") | change)
    assert (code, manifest) == (2, False), err
    assert message in err


@pytest.mark.parametrize("name, solver, message", [
    ("macro_normalized", {"dt": 0.04, "t_end": 0.01},
     "field solver: t_end = 0.01 is under half a step of dt = 0.04"),
    ("macro_raw", {"dt": 0.01, "t_end": 0.004},
     "field solver: t_end = 0.004 is under half a step of dt = 0.01"),
    # every configured solve runs DOP853, so a config names no scheme, not
    # even a known one
    ("macro_raw", {"scheme": "euler"}, "field solver.scheme is not a solver setting"),
    ("macro_coupled", {"scheme": "dopri5"},
     "config error: field solver.scheme is not a solver setting; "
     "the solver takes dt, t_end and sample_stride"),
    ("macro_raw", {"scheme": "rk4"}, "field solver.scheme is not a solver setting"),
    ("macro_normalized", {"scheme": "dop853"}, "field solver.scheme is not a solver setting"),
    # negative weights are always zeroed and reported, so the field that
    # chose between that and rejecting the step is no longer read
    ("macro_raw", {"positivity": "clip"}, "field solver.positivity is not a solver setting"),
], ids=["normalized-short", "raw-short", "euler", "dopri5", "rk4", "dop853", "positivity"])
def test_macro_solver_without_a_step_or_scheme_exits_two(tmp_path, capsys, monkeypatch,
                                                          name, solver, message):
    for runner in ("integrate", "integrate_normalized", "coupled_full_run"):
        monkeypatch.setattr(cli, runner, _never)
    cfg = _shipped(name)
    cfg["solver"] |= solver
    code, err, manifest = _run_checked(tmp_path, capsys, "macro", cfg)
    assert (code, manifest) == (2, False), err
    assert message in err


def test_totals_run_shorter_than_half_a_step_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "integrate_totals", _never)
    code, err, manifest = _run_checked(tmp_path, capsys, "totals",
                                       TOTALS_CFG | {"dt": 0.5, "t_end": 0.2})
    assert (code, manifest) == (2, False), err
    assert "field t_end = 0.2 is under half a step of dt = 0.5" in err


def test_lln_at_the_initial_time_alone_runs_with_the_default_solver(tmp_path, capsys):
    cfg = _shipped("lln") | {"checkpoints": [0.0], "N_list": [20, 50], "replicas": 3}
    del cfg["solver"]
    code, err, manifest = _run_checked(tmp_path, capsys, "lln", cfg)
    assert (code, manifest) == (0, True), err
    report = json.loads((tmp_path / "out" / "lln_report.json").read_text())
    assert report["checkpoints"] == [0.0]


@pytest.mark.parametrize("a_const", [-1.0, 0])
def test_normalized_macro_needs_positive_a(tmp_path, capsys, monkeypatch, a_const):
    monkeypatch.setattr(cli, "integrate_normalized", _never)
    code, err, manifest = _run_checked(tmp_path, capsys, "macro",
                                       _shipped("macro_normalized") | {"A": a_const})
    assert (code, manifest) == (2, False), err
    assert f"field A must be positive, got {a_const}" in err


def _integer_fields(node, path=()):
    """Key paths of every integer value in a config, booleans excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        here = path + (key,)
        if isinstance(value, (dict, list)):
            yield from _integer_fields(value, here)
        elif isinstance(value, int) and not isinstance(value, bool):
            yield here


def _with_true(cfg, keys):
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = True
    return cfg


BOOL_CASES = [(p.stem, keys) for p in sorted(CONFIGS.glob("*.json"))
              for keys in _integer_fields(json.loads(p.read_text()))]


@pytest.mark.parametrize("name, keys", BOOL_CASES,
                         ids=[f"{n}:{'.'.join(map(str, k))}" for n, k in BOOL_CASES])
def test_boolean_in_any_shipped_integer_field_is_rejected(tmp_path, capsys, name, keys):
    cfg = _shipped(name)
    field = ".".join(k for k in keys if isinstance(k, str))
    code, err, manifest = _run_checked(tmp_path, capsys, cfg["kind"], _with_true(cfg, keys))
    assert (code, manifest) == (2, False), err
    assert f"field {field} must" in err


def test_macro_normalized_summary_reports_its_dt_bound(tmp_path):
    # as in raw mode: the bound the run was checked against, 0.1 / max(1, A)
    cfg = _shipped("macro_normalized")
    cfg["solver"]["t_end"] = 0.5
    path = _write(tmp_path, "cfg.json", cfg)
    assert cli.main(["macro", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    diag = json.loads((tmp_path / "out" / "summary.json").read_text())["diagnostics"]
    assert diag["dt_bound"] == pytest.approx(0.1 / max(1.0, cfg["A"]), rel=1e-15)


@pytest.mark.parametrize("mode", ["raw", "normalized", "coupled"])
def test_macro_summary_reports_step_counts(tmp_path, mode):
    cfg = _shipped(f"macro_{mode}")
    path = _write(tmp_path, "cfg.json", cfg)
    assert cli.main(["macro", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    diag = json.loads((tmp_path / "out" / "summary.json").read_text())["diagnostics"]
    fixed_steps = round(cfg["solver"]["t_end"] / cfg["solver"]["dt"])
    assert 0 < diag["accepted_steps"] < fixed_steps / 10
    assert diag["rejected_steps"] == 0
    assert diag["clipped_mass"] == 0.0
