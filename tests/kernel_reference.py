"""The exact birth contraction, one kernel row per parent pair: the
reference every cached contraction in `dimorph.kernels` is pinned to. No
test is collected from here.

`tabulate` builds a `TabulatedKernel` from an analytic density, for the
tests that need one.
"""

import numpy as np

from dimorph.errors import DegenerateRow
from dimorph.kernels import DEGENERATE_MASS_TOLERANCE, TabulatedKernel
from dimorph.measures import TraitGrid


def birth_weights_exact(kernel, wa: np.ndarray, wb: np.ndarray, grid: TraitGrid) -> np.ndarray:
    """Direct contraction, one kernel row per parent pair: the reference for
    the cached contractions. Pairs of magnitude at most 1e-12 of
    ||wa||_1 ||wb||_1 are skipped, so signed inputs (solver stages) keep
    their negative pairs."""
    out = np.zeros(grid.n_cells)
    centers = grid.centers
    total = max(np.abs(wa).sum() * np.abs(wb).sum(), 1e-300)
    floor = 1e-12 * total
    dropped = 0.0
    ja = np.nonzero(wa)[0]
    jb = np.nonzero(wb)[0]
    for j in ja:
        acc = np.zeros(grid.n_cells)
        for k in jb:
            pair = abs(wa[j] * wb[k])
            if pair <= floor:
                continue
            try:
                acc += wb[k] * kernel.row_masses(centers[j], centers[k], grid)
            except DegenerateRow:
                dropped += pair
        out += wa[j] * acc
    if dropped > DEGENERATE_MASS_TOLERANCE * total:
        raise DegenerateRow(
            f"parent pairs carrying {dropped / total:.3e} of the mass have no "
            "in-grid offspring mass")
    return out


def tabulate(density, xs, ys, zs, sample_grid=None) -> TabulatedKernel:
    """The kernel of density(x, y, z), a vectorized function, on the knots."""
    x, y, z = np.meshgrid(xs, ys, zs, indexing="ij")
    return TabulatedKernel(xs, ys, zs, density(x, y, z), sample_grid=sample_grid)
