"""Artifact files: distribution CSVs, summary JSON, content manifest.

All numeric CSV fields use 17 significant digits so float64 values
round-trip exactly and reruns with identical seeds produce byte-identical
files. Writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .errors import IoError
from .measures import GridMeasure, TraitGrid

__all__ = [
    "fmt",
    "csv_text",
    "atomic_write_text",
    "write_json",
    "emit_distribution_csv",
    "read_distribution_csv",
    "write_measure_csv",
    "read_measure_csv",
    "write_manifest",
]

CSV_HEADER = "time,component,cell_center,weight"


def fmt(x: float) -> str:
    """Locale-independent float formatting that round-trips float64."""
    return format(float(x), ".17g")


def csv_text(header: str, rows) -> str:
    """The lines of a CSV file: floats through fmt, anything else through str."""
    lines = (",".join(fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows)
    return "\n".join((header, *lines)) + "\n"


def atomic_write_text(path: str | Path, text: str) -> Path:
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def write_json(path: str | Path, payload) -> Path:
    return atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def emit_distribution_csv(path: str | Path, rows) -> Path:
    """Write (time, component, cell_center, weight) rows under the fixed header.

    rows is any iterable of 4-tuples; an empty iterable yields a
    header-only file.
    """
    return atomic_write_text(path, csv_text(CSV_HEADER, rows))


def trajectory_rows(times, measure_pairs, components=("male", "female")):
    """Yield CSV rows for a sequence of (measure, measure) snapshot pairs."""
    for t, pair in zip(times, measure_pairs):
        for component, m in zip(components, pair):
            centers = m.grid.centers
            for c, w in zip(centers, m.weights):
                yield t, component, float(c), float(w)


def read_distribution_csv(path: str | Path):
    """Load a distribution CSV back into numpy columns.

    Returns (times, components, centers, weights) arrays of equal length.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise IoError(f"{path} does not start with the header {CSV_HEADER!r}")
    times, comps, centers, weights = [], [], [], []
    for ln in lines[1:]:
        t, comp, c, w = ln.split(",")
        times.append(float(t))
        comps.append(comp)
        centers.append(float(c))
        weights.append(float(w))
    return (np.array(times), np.array(comps, dtype=object),
            np.array(centers), np.array(weights))


def write_measure_csv(path: str | Path, measure: GridMeasure) -> Path:
    """Write a single measure as cell_center, weight rows.

    The format round-trips through read_measure_csv and doubles as the
    tabulated initial-condition input.
    """
    return atomic_write_text(path, csv_text("cell_center,weight",
                                            zip(measure.grid.centers, measure.weights)))


def read_measure_csv(path: str | Path, grid: TraitGrid) -> GridMeasure:
    """Load a tabulated measure (columns cell_center, weight) onto a grid.

    Cell centers must match the grid within 1e-9 of the cell width.
    """
    path = Path(path)
    try:
        data = np.genfromtxt(path, delimiter=",", names=True)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    names = data.dtype.names or ()
    if "cell_center" not in names or "weight" not in names:
        raise IoError(f"{path} needs columns cell_center, weight")
    centers = np.atleast_1d(data["cell_center"])
    weights = np.atleast_1d(data["weight"])
    if centers.shape != (grid.n_cells,):
        raise IoError(f"{path} has {centers.shape[0]} rows, grid expects {grid.n_cells}")
    if np.max(np.abs(centers - grid.centers)) > 1e-9 * grid.dx + 1e-12:
        raise IoError(f"{path} cell centers do not match the grid")
    return GridMeasure(grid, weights)


def write_manifest(out_dir: str | Path, files) -> Path:
    """Write manifest.json listing every artifact with its SHA-256 hash."""
    out_dir = Path(out_dir)
    entries = []
    for f in sorted(Path(f) for f in files):
        try:
            digest = hashlib.sha256(f.read_bytes()).hexdigest()
            size = f.stat().st_size
        except OSError as exc:
            raise IoError(f"cannot hash {f}: {exc}") from exc
        entries.append({
            "path": str(f.relative_to(out_dir)) if f.is_relative_to(out_dir) else str(f),
            "sha256": digest,
            "bytes": size,
        })
    return write_json(out_dir / "manifest.json", {"files": entries})
