import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimorph.errors import GridMismatch, MassMismatch, ZeroMass
from dimorph.measures import (GridMeasure, TraitGrid, gaussian_measure,
                              measure_from_samples, moment, normalize, point_mass,
                              total_variation, uniform_measure, wasserstein1)


@pytest.fixture
def grid():
    return TraitGrid(0.0, 8.0, 32)


def test_grid_validation():
    with pytest.raises(ValueError):
        TraitGrid(1.0, 1.0, 8)
    with pytest.raises(ValueError):
        TraitGrid(0.0, 1.0, 1)
    g = TraitGrid(-2.0, 2.0, 8)
    assert g.dx == pytest.approx(0.5)
    assert np.all(np.diff(g.centers) > 0)
    assert np.allclose(np.diff(g.centers), g.dx)


@pytest.mark.parametrize("x_min, x_max", [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0),
                                          (0.0, np.nan)])
def test_grid_refuses_non_finite_bounds(x_min, x_max):
    with pytest.raises(ValueError, match="need finite x_min < x_max"):
        TraitGrid(x_min, x_max, 4)


def test_grid_is_hashable_and_frozen():
    a = TraitGrid(0.0, 1.0, 4)
    b = TraitGrid(0.0, 1.0, 4)
    assert a == b and hash(a) == hash(b)
    with pytest.raises(Exception):
        a.x_min = 2.0


def test_measure_weights_immutable(grid):
    m = point_mass(grid, 2.0)
    with pytest.raises(ValueError):
        m.weights[0] = 5.0


def test_measure_rejects_negative_and_nonfinite(grid):
    with pytest.raises(ValueError):
        GridMeasure(grid, -np.ones(grid.n_cells))
    # however small: no construction clips a negative weight away
    w = np.ones(grid.n_cells)
    w[3] = -1e-15
    with pytest.raises(ValueError, match="non-negative, min = -1e-15"):
        GridMeasure(grid, w)
    w = np.ones(grid.n_cells)
    w[3] = np.inf
    with pytest.raises(ValueError):
        GridMeasure(grid, w)


def test_total_mass_examples(grid):
    assert GridMeasure(grid, np.zeros(grid.n_cells)).mass == 0.0
    assert point_mass(grid, 2.0).mass == 1.0
    two = np.zeros(grid.n_cells)
    two[0], two[1] = 0.25, 0.75
    assert GridMeasure(grid, two).mass == pytest.approx(1.0)


def test_moment_point_mass_and_uniform(grid):
    assert moment(point_mass(grid, 3.0), 1) == pytest.approx(3.0, abs=grid.dx)
    u = uniform_measure(grid, 0.0, 1.0)
    assert moment(u, 1) == pytest.approx(0.5, abs=grid.dx)


def test_moment_discretized_normal_second_moment():
    # second moment of the standard normal binned on [-8, 8] at 512 cells;
    # 2^16-cell quadrature oracle gives 1.0 to well below 1e-6
    g = TraitGrid(-8.0, 8.0, 512)
    m = gaussian_measure(g, 0.0, 1.0)
    assert moment(m, 2) == pytest.approx(1.0, abs=1e-3)


def test_wasserstein_point_masses(grid):
    d = wasserstein1(point_mass(grid, 2.0), point_mass(grid, 5.0))
    assert d == pytest.approx(3.0, abs=grid.dx)


def test_wasserstein_identity_and_translation(grid):
    m = gaussian_measure(grid, 3.0, 0.5)
    assert wasserstein1(m, m) == 0.0
    # shift by an exact number of cells
    shift_cells = 4
    w = np.zeros(grid.n_cells)
    w[shift_cells:] = m.weights[:-shift_cells]
    shifted = GridMeasure(grid, w / w.sum())
    c = shift_cells * grid.dx
    assert wasserstein1(m, shifted) == pytest.approx(c, abs=grid.dx)


def test_wasserstein_mass_mismatch(grid):
    with pytest.raises(MassMismatch):
        wasserstein1(point_mass(grid, 1.0, mass=1.0), point_mass(grid, 2.0, mass=1.5))


def test_grid_mismatch(grid):
    other = TraitGrid(0.0, 8.0, 64)
    with pytest.raises(GridMismatch):
        wasserstein1(point_mass(grid, 1.0), point_mass(other, 1.0))
    with pytest.raises(GridMismatch):
        total_variation(point_mass(grid, 1.0), point_mass(other, 1.0))


def test_total_variation_examples(grid):
    m = gaussian_measure(grid, 4.0, 1.0)
    assert total_variation(m, m) == 0.0
    assert total_variation(point_mass(grid, 1.0), point_mass(grid, 2.0)) == pytest.approx(2.0)
    a = np.zeros(grid.n_cells)
    b = np.zeros(grid.n_cells)
    a[0], a[1] = 0.5, 0.5
    b[0] = 1.0
    assert total_variation(GridMeasure(grid, a), GridMeasure(grid, b)) == pytest.approx(1.0)


def test_normalize_examples(grid):
    u = uniform_measure(grid, 1.0, 3.0, mass=2.0)
    prob, mass = normalize(u)
    assert mass == pytest.approx(2.0)
    assert prob.mass == pytest.approx(1.0)
    np.testing.assert_allclose(prob.weights * mass, u.weights, rtol=1e-14)

    d, mass = normalize(point_mass(grid, 2.0, mass=0.5))
    assert mass == 0.5 and d.mass == pytest.approx(1.0)

    with pytest.raises(ZeroMass):
        normalize(GridMeasure(grid, np.zeros(grid.n_cells)))


def test_measure_from_samples(grid):
    xs = np.array([0.1, 0.1, 7.9, 4.0])
    m = measure_from_samples(grid, xs, atom_mass=0.25)
    assert m.mass == pytest.approx(1.0)
    assert m.weights[grid.cell_of(0.1)] == pytest.approx(0.5)


# -- property tests -----------------------------------------------------------

_weights = st.lists(st.floats(0.0, 10.0), min_size=16, max_size=16)


def _prob(grid, ws):
    w = np.asarray(ws)
    total = w.sum()
    if total <= 0:
        w = np.ones_like(w)
        total = w.sum()
    return GridMeasure(grid, w / total)


@settings(max_examples=60, deadline=None)
@given(_weights, _weights, _weights)
def test_wasserstein_is_a_metric(wa, wb, wc):
    grid = TraitGrid(-1.0, 1.0, 16)
    a, b, c = (_prob(grid, w) for w in (wa, wb, wc))
    dab = wasserstein1(a, b)
    dba = wasserstein1(b, a)
    assert dab >= 0.0
    assert dab == pytest.approx(dba, rel=1e-12, abs=1e-15)
    assert dab <= wasserstein1(a, c) + wasserstein1(c, b) + 1e-12
    assert wasserstein1(a, a) == 0.0
    if np.array_equal(a.weights, b.weights):
        assert dab == 0.0
    elif dab == 0.0:
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15))
def test_wasserstein_delta_pairs_exact(i, j):
    grid = TraitGrid(-1.0, 1.0, 16)
    a = point_mass(grid, float(grid.centers[i]))
    b = point_mass(grid, float(grid.centers[j]))
    expected = abs(grid.centers[i] - grid.centers[j])
    assert wasserstein1(a, b) == pytest.approx(expected, abs=grid.dx)


@settings(max_examples=60, deadline=None)
@given(_weights, _weights)
def test_total_variation_bounds(wa, wb):
    grid = TraitGrid(-1.0, 1.0, 16)
    a = GridMeasure(grid, np.asarray(wa))
    b = GridMeasure(grid, np.asarray(wb))
    tv = total_variation(a, b)
    assert tv >= 0.0
    assert tv <= a.mass + b.mass + 1e-12
