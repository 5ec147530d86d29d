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
    "csv_text",
    "atomic_write_text",
    "write_json",
    "emit_distribution_csv",
    "trajectory_blocks",
    "read_distribution_csv",
    "write_measure_csv",
    "read_measure_csv",
    "write_manifest",
]

CSV_HEADER = "time,component,cell_center,weight"


def _field(v) -> str:
    """A float (numpy float64 included) as %.17g, which round-trips float64;
    anything else through str."""
    return "%.17g" % v if isinstance(v, float) else str(v)


def csv_text(header: str, blocks) -> str:
    """The lines of a CSV file, written block by block.

    A block is a tuple of fields. A field that is a list or a numpy array
    is a column, with one value per line of the block (all columns of a
    block have one length); any other field is repeated on every line. A
    block without columns is one line. Every value is written as _field
    writes it; a float64 array column goes through one %.17g template per
    block, which gives the same bytes.
    """
    lines = [header]
    for block in blocks:
        parts, cols = [], []
        for v in block:
            if isinstance(v, np.ndarray) and v.dtype == np.float64:
                parts.append("%.17g")
                cols.append(v.tolist())
            elif isinstance(v, (list, np.ndarray)):
                parts.append("%s")
                cols.append([_field(x) for x in v])
            else:
                parts.append(_field(v).replace("%", "%%"))
        # one % over the whole block: its lines are one string, not one each
        n, k = (len(cols[0]) if cols else 1), len(cols)
        values = [None] * (n * k)
        for i, col in enumerate(cols):
            values[i::k] = col  # a column of another length raises ValueError
        if n:
            lines.append("\n".join([",".join(parts)] * n) % tuple(values))
    return "\n".join(lines) + "\n"


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


def emit_distribution_csv(path: str | Path, blocks) -> Path:
    """Write (time, component, cell_center, weight) lines under the fixed header.

    blocks is any iterable of csv_text blocks with those four fields, such
    as trajectory_blocks gives; an empty iterable yields a header-only file.
    """
    return atomic_write_text(path, csv_text(CSV_HEADER, blocks))


def trajectory_blocks(times, measure_pairs, components=("male", "female")):
    """Yield one (time, component, cell centers, weights) block per measure
    of a sequence of (measure, measure) snapshot pairs."""
    for t, pair in zip(times, measure_pairs):
        for component, m in zip(components, pair):
            yield t, component, m.grid.centers, m.weights


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
                                            [(measure.grid.centers, measure.weights)]))


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
