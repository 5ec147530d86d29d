import math

import numpy as np
import pytest

from dimorph.errors import DegenerateRow, GridMismatch, UnsupportedKernel
from dimorph.kernels import (AdditiveNoiseKernel, CustomDensityKernel,
                             GaussianNoise, MultiplicativeNoiseKernel, NoiseDensity,
                             SamplerKernel, TabulatedNoise, UniformNoise,
                             _birth_weights_exact, birth_operator, check_hypotheses,
                             condition_i_contribution, tabulated_kernel_from_csv)
from dimorph.measures import (GridMeasure, TraitGrid, gaussian_measure,
                              measure_from_samples, point_mass, wasserstein1)


@pytest.fixture
def grid():
    return TraitGrid(-8.0, 8.0, 256)


@pytest.fixture
def add_kernel():
    return AdditiveNoiseKernel(GaussianNoise(1.0))


@pytest.fixture
def mult_grid():
    return TraitGrid(0.0, 6.0, 256)


@pytest.fixture
def mult_kernel():
    return MultiplicativeNoiseKernel(UniformNoise(0.0, 1.0))


# -- noise densities -----------------------------------------------------------


def test_noise_moments():
    g = GaussianNoise(0.5)
    assert g.mean == 0.0
    assert g.second_moment == pytest.approx(0.25)
    u = UniformNoise(0.0, 1.0)
    assert u.mean == pytest.approx(0.5)
    assert u.second_moment == pytest.approx(1.0 / 3.0)


def test_tabulated_noise_validates_normalization():
    z = np.linspace(0.0, 1.0, 51)
    with pytest.raises(ValueError):
        TabulatedNoise(z, 2.0 * np.ones_like(z))
    tri = np.where(z < 0.5, 4 * z, 4 * (1 - z))  # symmetric triangle, mean 1/2
    noise = TabulatedNoise(z, tri)
    assert noise.mean == pytest.approx(0.5, abs=1e-9)
    rng = np.random.default_rng(0)
    draws = np.array([noise.sample(rng) for _ in range(4000)])
    assert draws.mean() == pytest.approx(0.5, abs=0.02)
    assert draws.min() >= 0.0 and draws.max() <= 1.0


def test_family_constructor_guards():
    with pytest.raises(ValueError):
        AdditiveNoiseKernel(UniformNoise(0.0, 1.0))  # mean 1/2, not centered
    with pytest.raises(ValueError):
        MultiplicativeNoiseKernel(GaussianNoise(1.0))  # support outside [0, 1]
    with pytest.raises(ValueError):
        MultiplicativeNoiseKernel(UniformNoise(0.0, 0.8))  # mean 0.4


# -- density rows ---------------------------------------------------------------


def test_density_row_mean_and_normalization(grid, add_kernel):
    row = add_kernel.density_row(1.0, 3.0, grid)
    assert np.all(row >= 0.0)
    assert row.sum() * grid.dx == pytest.approx(1.0, abs=1e-12)
    mean = float(np.sum(grid.centers * row) * grid.dx)
    assert mean == pytest.approx(2.0, abs=1e-3)


def test_density_row_symmetric_in_parents(grid, add_kernel, mult_grid, mult_kernel):
    np.testing.assert_array_equal(add_kernel.density_row(-1.0, 2.5, grid),
                                  add_kernel.density_row(2.5, -1.0, grid))
    np.testing.assert_array_equal(mult_kernel.density_row(0.5, 2.0, mult_grid),
                                  mult_kernel.density_row(2.0, 0.5, mult_grid))


def test_row_mean_error_bound_inside_safe_window(grid, add_kernel):
    lo, hi = add_kernel.safe_parent_window(grid)
    for x, y in [(lo, lo), (hi, hi), (lo, hi), (0.3, -1.7)]:
        masses = add_kernel.row_masses(x, y, grid)
        err = abs(float(grid.centers @ masses) - 0.5 * (x + y))
        assert err <= 10.0 * grid.dx


def test_multiplicative_zero_parents_delta(mult_grid, mult_kernel):
    masses = mult_kernel.row_masses(0.0, 0.0, mult_grid)
    assert masses[mult_grid.cell_of(0.0)] == pytest.approx(1.0)
    assert masses.sum() == pytest.approx(1.0)


def test_degenerate_row_raises():
    tight = TraitGrid(0.0, 1.0, 16)
    k = AdditiveNoiseKernel(GaussianNoise(0.01))
    with pytest.raises(DegenerateRow):
        k.row_masses(10.0, 10.0, tight)


def test_sampler_kernel_has_no_rows():
    k = SamplerKernel(lambda x, y, rng: 0.5 * (x + y))
    with pytest.raises(UnsupportedKernel):
        k.row_masses(0.0, 0.0, TraitGrid(0.0, 1.0, 8))
    with pytest.raises(UnsupportedKernel):
        check_hypotheses(k, TraitGrid(0.0, 1.0, 8))
    assert k.sample_offspring(1.0, 3.0, None) == 2.0


# -- sampling --------------------------------------------------------------------


def test_multiplicative_sampling_support(mult_kernel):
    rng = np.random.default_rng(1)
    assert all(mult_kernel.sample_offspring(0.0, 0.0, rng) == 0.0 for _ in range(100))
    draws = np.array([mult_kernel.sample_offspring(1.0, 1.0, rng) for _ in range(2000)])
    assert draws.min() >= 0.0 and draws.max() <= 2.0


def test_additive_sampling_mean():
    # Monte-Carlo oracle: mean of 1e5 draws at parents (0, 2), tolerance 5e-3 * sigma
    sigma = 0.7
    k = AdditiveNoiseKernel(GaussianNoise(sigma))
    rng = np.random.default_rng(7)
    draws = np.array([k.sample_offspring(0.0, 2.0, rng) for _ in range(100_000)])
    assert draws.mean() == pytest.approx(1.0, abs=5e-3 * sigma)


def test_sampling_matches_rows_in_wasserstein(grid, add_kernel):
    x, y = -0.5, 1.5
    rng = np.random.default_rng(7)
    n = 100_000
    draws = np.array([add_kernel.sample_offspring(x, y, rng) for _ in range(n)])
    empirical = measure_from_samples(grid, draws, 1.0 / n)
    target = GridMeasure(grid, add_kernel.row_masses(x, y, grid))
    sd = 1.0
    assert wasserstein1(empirical, target) <= 3.0 * grid.dx + 5.0 * sd / math.sqrt(n)


def test_custom_kernel_sampling_requires_grid():
    k = CustomDensityKernel(lambda x, y, z: np.exp(-((z - 0.5 * (x + y)) ** 2)))
    with pytest.raises(UnsupportedKernel):
        k.sample_offspring(0.0, 0.0, np.random.default_rng(0))


# -- birth operator ---------------------------------------------------------------


def test_birth_operator_point_masses(grid, add_kernel):
    a, b = float(grid.centers[100]), float(grid.centers[140])
    out = birth_operator(add_kernel, point_mass(grid, a), point_mass(grid, b))
    np.testing.assert_allclose(out.weights, add_kernel.row_masses(a, b, grid),
                               rtol=0, atol=1e-15)


def test_birth_operator_mass_and_mean(grid, add_kernel):
    mu = gaussian_measure(grid, -1.0, 0.8)
    nu = gaussian_measure(grid, 2.0, 0.5)
    out = birth_operator(add_kernel, mu, nu)
    assert out.mass == pytest.approx(mu.mass * nu.mass, abs=1e-9)
    assert out.mean() == pytest.approx(0.5 * (mu.mean() + nu.mean()), abs=1e-6)


def test_birth_operator_gaussian_variance_oracle():
    # mu = nu = N(0, s^2): the parent average has variance s^2/2, plus noise
    g = TraitGrid(-8.0, 8.0, 256)
    s, sigma = 1.0, 0.5
    k = AdditiveNoiseKernel(GaussianNoise(sigma))
    mu = gaussian_measure(g, 0.0, s)
    out = birth_operator(k, mu, mu)
    expected = s * s / 2.0 + sigma * sigma
    assert out.variance() == pytest.approx(expected, rel=0.02)


def test_birth_operator_bilinear(grid, add_kernel):
    rng = np.random.default_rng(3)
    w1 = rng.random(grid.n_cells)
    w2 = rng.random(grid.n_cells)
    wv = rng.random(grid.n_cells)
    m1, m2, nu = (GridMeasure(grid, w) for w in (w1, w2, wv))
    a, b = 0.6, 1.7
    combo = birth_operator(add_kernel, GridMeasure(grid, a * w1 + b * w2), nu)
    parts = a * birth_operator(add_kernel, m1, nu).weights \
        + b * birth_operator(add_kernel, m2, nu).weights
    np.testing.assert_allclose(combo.weights, parts, rtol=1e-12, atol=1e-15)


def test_birth_operator_symmetry(grid, add_kernel):
    mu = gaussian_measure(grid, -2.0, 0.7)
    nu = gaussian_measure(grid, 1.0, 1.1)
    ab = birth_operator(add_kernel, mu, nu)
    ba = birth_operator(add_kernel, nu, mu)
    np.testing.assert_allclose(ab.weights, ba.weights, rtol=1e-12, atol=1e-16)


def test_birth_operator_fast_matches_exact():
    g = TraitGrid(-8.0, 8.0, 64)
    k = AdditiveNoiseKernel(GaussianNoise(0.5))
    mu = gaussian_measure(g, 1.0, 1.0)
    nu = gaussian_measure(g, -1.0, 0.7)
    fast = birth_operator(k, mu, nu).weights
    exact = _birth_weights_exact(k, mu.weights, nu.weights, g)
    # the reference mode skips pairs below 1e-12 of the product mass, so
    # agreement is absolute at that scale rather than relative in the tails
    np.testing.assert_allclose(fast, exact, rtol=1e-9, atol=1e-11)

    gm = TraitGrid(0.0, 6.0, 48)
    km = MultiplicativeNoiseKernel(UniformNoise(0.0, 1.0))
    mu = gaussian_measure(gm, 1.2, 0.3)
    nu = gaussian_measure(gm, 2.0, 0.4)
    fast = birth_operator(km, mu, nu).weights
    exact = _birth_weights_exact(km, mu.weights, nu.weights, gm)
    np.testing.assert_allclose(fast, exact, rtol=1e-9, atol=1e-11)


# -- the gathered additive row table -----------------------------------------------

_TRI = np.linspace(-1.0, 1.0, 41)
ADDITIVE_NOISES = {
    "gaussian": lambda: GaussianNoise(0.5),
    "uniform": lambda: UniformNoise(-0.5, 0.5),
    "tabulated": lambda: TabulatedNoise(_TRI, 1.0 - np.abs(_TRI)),
}


@pytest.mark.parametrize("noise", list(ADDITIVE_NOISES))
@pytest.mark.parametrize("span", [(-2.0, 2.0), (-1.0, 3.0)], ids=["symmetric", "asymmetric"])
@pytest.mark.parametrize("n", [2, 3, 64, 191])
def test_additive_table_matches_row_by_row_build(n, span, noise):
    # reference: row k evaluates the CDF at its own edges, edges - s_k/2; on
    # spans within |x| <= 3 the rounding of those arguments stays below 1e-15
    # in mass, while a gather off by one cell moves masses by O(dx)
    grid = TraitGrid(*span, n)
    density = ADDITIVE_NOISES[noise]()
    table = AdditiveNoiseKernel(density)._table(grid)
    sums = 2.0 * grid.x_min + (np.arange(2 * n - 1) + 1.0) * grid.dx
    raw = np.array([np.diff(density.cdf(grid.edges - 0.5 * s)) for s in sums])
    inside = raw.sum(axis=1)
    assert table.matrix.shape == (2 * n - 1, n)
    np.testing.assert_allclose(table.matrix, raw / inside[:, None], rtol=0, atol=1e-15)
    np.testing.assert_allclose(table.tails, 1.0 - inside, rtol=0, atol=1e-15)
    assert not table.degenerate.any()


class _CountingNoise(NoiseDensity):
    """Gaussian noise that counts the points its CDF is asked for."""

    def __init__(self):
        self.inner = GaussianNoise(0.5)
        self.mean, self.second_moment = self.inner.mean, self.inner.second_moment
        self.support = self.inner.support
        self.points = 0

    def cdf(self, x):
        x = np.asarray(x)
        self.points += x.size
        return self.inner.cdf(x)


@pytest.mark.parametrize("n", [3, 64, 191])
def test_additive_table_needs_cdf_at_4n_minus_1_points(n):
    noise = _CountingNoise()
    kernel = AdditiveNoiseKernel(noise)
    grid = TraitGrid(-4.0, 4.0, n)
    mu = gaussian_measure(grid, 0.0, 0.3)
    first = birth_operator(kernel, mu, mu).weights
    assert noise.points == 4 * n - 1
    np.testing.assert_array_equal(birth_operator(kernel, mu, mu).weights, first)
    assert noise.points == 4 * n - 1  # the table is cached per grid


def test_additive_table_degenerate_rows():
    # zero-mean noise with all its mass near +-1.5: on [-1, 1] the rows for
    # offspring centers within 0.5 of zero have no in-grid mass
    z = np.array([-1.6, -1.5, -1.4, 1.4, 1.5, 1.6])
    kernel = AdditiveNoiseKernel(TabulatedNoise(z, np.array([0.0, 5.0, 0.0, 0.0, 5.0, 0.0])))
    grid = TraitGrid(-1.0, 1.0, 8)
    table = kernel._table(grid)
    centers = grid.x_min + (np.arange(15) + 1.0) * grid.dx / 2
    bad = table.degenerate == 1.0
    np.testing.assert_array_equal(bad, np.abs(centers) < 0.5)
    assert np.all(table.matrix[bad] == 0.0) and np.all(table.tails[bad] == 0.0)
    np.testing.assert_allclose(table.matrix[~bad].sum(axis=1), 1.0, rtol=0, atol=1e-15)
    edge = point_mass(grid, grid.centers[-1])
    with pytest.warns(UserWarning, match="shed noticeable mass"):
        out = birth_operator(kernel, edge, edge)  # half the row lands above the grid
    np.testing.assert_allclose(out.weights, kernel.row_masses(*grid.centers[[-1, -1]], grid),
                               rtol=0, atol=1e-15)
    middle = point_mass(grid, grid.centers[3])
    with pytest.raises(DegenerateRow):
        birth_operator(kernel, middle, middle)


def test_birth_operator_grid_mismatch(grid, add_kernel):
    other = TraitGrid(-8.0, 8.0, 128)
    with pytest.raises(GridMismatch):
        birth_operator(add_kernel, point_mass(grid, 0.0), point_mass(other, 0.0))


def test_birth_operator_zero_mass_inputs(grid, add_kernel):
    zero = GridMeasure(grid, np.zeros(grid.n_cells))
    out = birth_operator(add_kernel, zero, gaussian_measure(grid, 0.0, 1.0))
    assert out.mass == 0.0


# -- hypothesis checkers ------------------------------------------------------------


def test_condition_i_gaussian_reference_value():
    # quadrature oracle: half the L1 gap of two unit normals 0.5 apart,
    # which is 2*Phi(0.25) - 1 = 0.19741265136584...
    g = TraitGrid(-8.0, 8.0, 512)
    k = AdditiveNoiseKernel(GaussianNoise(1.0))
    val = condition_i_contribution(k, 0.0, 1.0, 0.0, g)
    assert val == pytest.approx(0.19741265136584, abs=2e-3)
    assert val < 1.0


def test_condition_i_identical_arguments_zero(grid, add_kernel):
    assert condition_i_contribution(add_kernel, 0.7, 0.7, -0.4, grid) == pytest.approx(0.0, abs=1e-14)


def test_check_hypotheses_additive(grid, add_kernel):
    rep = check_hypotheses(add_kernel, grid, seed=5)
    assert rep.condition_i_max < 1.0
    # paper-style constants for the Gaussian family: slope 1/2, offset of the
    # form (noise second moment) + (mean bound)^2 / 2
    assert rep.condition_ii.l_est == pytest.approx(0.5, abs=0.02)
    assert 0.0 < rep.condition_ii.c_est <= 1.0 + 8.0**2 / 2
    assert rep.condition_ii.holds
    assert rep.mean_condition_max_error <= 10.0 * grid.dx
    assert rep.symmetry_max_error == 0.0
    assert rep.n_triples == 200


def test_check_hypotheses_multiplicative(mult_grid, mult_kernel):
    rep = check_hypotheses(mult_kernel, mult_grid, seed=5)
    assert rep.condition_i_max < 1.0
    # true slope is twice the noise second moment, 2/3 for uniform h
    assert rep.condition_ii.l_est == pytest.approx(2.0 / 3.0, abs=0.05)
    assert rep.condition_ii.holds
    assert rep.mean_condition_max_error <= 10.0 * mult_grid.dx


def test_check_hypotheses_flags_violating_kernel():
    # offspring centered at the parental SUM: second moments expand with
    # slope about 2 and the derivative gap saturates, so neither condition holds
    def dens(x, y, z):
        return np.exp(-0.5 * ((z - (x + y)) / 0.5) ** 2)

    g = TraitGrid(-8.0, 8.0, 128)
    rep = check_hypotheses(CustomDensityKernel(dens), g, seed=2, parent_window=(-3.0, 3.0))
    assert rep.condition_ii.l_est > 1.0
    assert not rep.condition_ii.holds
    assert rep.mean_condition_max_error > 10.0 * g.dx


# -- tabulated kernels ---------------------------------------------------------------


def test_tabulated_kernel_from_csv(tmp_path):
    xs = np.linspace(-2.0, 2.0, 9)
    zs = np.linspace(-4.0, 4.0, 81)
    sigma = 0.5
    rows = ["x,y,z,density"]
    for x in xs:
        for y in xs:
            c = 0.5 * (x + y)
            dens = np.exp(-0.5 * ((zs - c) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))
            rows.extend(f"{x},{y},{z},{d}" for z, d in zip(zs, dens))
    path = tmp_path / "kernel.csv"
    path.write_text("\n".join(rows) + "\n")

    grid = TraitGrid(-4.0, 4.0, 128)
    k = tabulated_kernel_from_csv(path, sample_grid=grid)
    row = k.row_masses(1.0, -1.0, grid)
    assert float(grid.centers @ row) == pytest.approx(0.0, abs=0.02)
    rng = np.random.default_rng(0)
    assert -4.0 <= k.sample_offspring(1.0, -1.0, rng) <= 4.0


def test_degenerate_rows_with_dust_are_zero_in_the_table():
    # as above, but the noise keeps a density of 1e-14 between its modes, so
    # the degenerate rows hold about 1e-14 of in-grid mass; the table holds
    # zero for them, and the single row raises
    z = np.array([-1.6, -1.5, -1.4, 1.4, 1.5, 1.6])
    kernel = AdditiveNoiseKernel(TabulatedNoise(z, np.array([0.0, 5.0, 1e-14, 1e-14, 5.0, 0.0])))
    grid = TraitGrid(-1.0, 1.0, 8)
    table = kernel._table(grid)
    sums = 2.0 * grid.x_min + (np.arange(15) + 1.0) * grid.dx
    bad = table.degenerate == 1.0
    np.testing.assert_array_equal(bad, np.abs(sums) < 1.0)
    for k, s in enumerate(sums):
        if bad[k]:
            assert 0.0 < np.diff(kernel.noise.cdf(grid.edges - 0.5 * s)).sum() <= 1e-12
            assert np.all(table.matrix[k] == 0.0) and table.tails[k] == 0.0
            with pytest.raises(DegenerateRow):
                kernel.row_masses(0.5 * s, 0.5 * s, grid)
        else:
            np.testing.assert_array_equal(table.matrix[k], kernel.row_masses(0.5 * s, 0.5 * s, grid))


def test_multiplicative_zero_parents_off_grid_degenerate():
    # the row of a zero parent sum is the point mass at 0, which has no
    # in-grid mass once the grid starts above 0
    kernel = MultiplicativeNoiseKernel(UniformNoise(0.0, 1.0))
    with pytest.raises(DegenerateRow):
        kernel.row_masses(0.0, 0.0, TraitGrid(0.5, 3.0, 16))
    np.testing.assert_array_equal(kernel.row_masses(0.0, 0.0, TraitGrid(0.0, 3.0, 16)),
                                  np.eye(16)[0])
