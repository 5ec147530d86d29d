import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from dimorph import kernels
from dimorph.errors import DegenerateRow, GridMismatch, UnsupportedKernel
from dimorph.ibm import BufferedRng
from dimorph.kernels import (AdditiveNoiseKernel, GaussianNoise, MultiplicativeNoiseKernel,
                             NoiseDensity, SamplerKernel, TabulatedKernel, TabulatedNoise,
                             UniformNoise, _NoiseLattice, _SumRowTable, _TrilinearTable,
                             birth_operator, birth_weights, check_hypotheses,
                             condition_i_contribution, tabulated_kernel_from_csv)
from dimorph.measures import (GridMeasure, TraitGrid, gaussian_measure,
                              measure_from_samples, point_mass, wasserstein1)
from kernel_reference import birth_weights_exact, tabulate


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


def test_tabulated_noise_follows_its_linear_density():
    # a zero-mean triangle on [-4/3, 5/3] with its mode at -1/3: moments,
    # CDF and sampler all belong to the linearly interpolated density
    noise = TabulatedNoise(np.array([-4.0 / 3.0, -1.0 / 3.0, 5.0 / 3.0]),
                           np.array([0.0, 2.0 / 3.0, 0.0]))
    AdditiveNoiseKernel(noise)  # refuses noise of non-zero mean
    assert noise.mean == pytest.approx(0.0, abs=1e-15)
    assert noise.second_moment == pytest.approx(7.0 / 18.0, rel=1e-14)
    assert noise.cdf(np.array([-2.0, -1.0 / 3.0, 2.0])).tolist() == pytest.approx([0, 1 / 3, 1])
    x = np.linspace(-4.0 / 3.0, 5.0 / 3.0, 300_001)
    first = np.sum(0.5 * (x[1:] + x[:-1]) * np.diff(noise.cdf(x)))  # the integral of x dF
    assert first == pytest.approx(noise.mean, abs=1e-9)
    rng = np.random.default_rng(5)
    draws = np.array([noise.sample(rng) for _ in range(100_000)])
    assert abs(draws.mean() - noise.mean) < 4.0 * math.sqrt(noise.second_moment / draws.size)
    assert -4.0 / 3.0 <= draws.min() and draws.max() <= 5.0 / 3.0


@pytest.mark.parametrize("make, message", [
    (lambda: GaussianNoise(np.nan), "sigma must be positive and finite, got nan"),
    (lambda: GaussianNoise(np.inf), "sigma must be positive and finite, got inf"),
    (lambda: UniformNoise(0.0, np.inf), r"need finite lo < hi, got \[0.0, inf\]"),
    (lambda: UniformNoise(-np.inf, 0.0), r"need finite lo < hi, got \[-inf, 0.0\]"),
    (lambda: UniformNoise(np.nan, 1.0), r"need finite lo < hi, got \[nan, 1.0\]"),
    (lambda: TabulatedNoise([-1.0, 0.0, 1.0], [0.0, np.nan, 0.0]), "z and pdf must be finite"),
    (lambda: TabulatedNoise([-1.0, np.nan, 1.0], [0.0, 1.0, 0.0]), "z and pdf must be finite"),
    (lambda: TabulatedNoise([-np.inf, 0.0, 1.0], [0.0, 1.0, 0.0]), "z and pdf must be finite"),
], ids=["gaussian-nan", "gaussian-inf", "uniform-inf", "uniform-minus-inf", "uniform-nan",
        "tabulated-nan-pdf", "tabulated-nan-knot", "tabulated-inf-knot"])
def test_noise_refuses_non_finite_parameters(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_family_constructor_guards():
    with pytest.raises(ValueError):
        AdditiveNoiseKernel(UniformNoise(0.0, 1.0))  # mean 1/2, not centered
    with pytest.raises(ValueError):
        MultiplicativeNoiseKernel(GaussianNoise(1.0))  # support outside [0, 1]
    with pytest.raises(ValueError):
        MultiplicativeNoiseKernel(UniformNoise(0.0, 0.8))  # mean 0.4


# -- density rows ---------------------------------------------------------------


def test_row_masses_mean_and_normalization(grid, add_kernel):
    row = add_kernel.row_masses(1.0, 3.0, grid)
    assert np.all(row >= 0.0)
    assert row.sum() == pytest.approx(1.0, abs=1e-12)
    assert float(grid.centers @ row) == pytest.approx(2.0, abs=1e-3)


def test_row_masses_symmetric_in_parents(grid, add_kernel, mult_grid, mult_kernel):
    np.testing.assert_array_equal(add_kernel.row_masses(-1.0, 2.5, grid),
                                  add_kernel.row_masses(2.5, -1.0, grid))
    np.testing.assert_array_equal(mult_kernel.row_masses(0.5, 2.0, mult_grid),
                                  mult_kernel.row_masses(2.0, 0.5, mult_grid))


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


@pytest.mark.parametrize("share, raises", [(1e-8, True), (1e-10, False)],
                         ids=["above-tolerance", "below-tolerance"])
def test_exact_contraction_tolerates_degenerate_parents_up_to_a_mass_share(share, raises):
    # the table ends below the mothers in the top cell, so their rows vanish;
    # they carry `share` of the product mass, each pair above the exact
    # contraction's 1e-12 skip
    def dens(x, y, z):
        return np.exp(-0.5 * ((z - 0.5 * (x + y)) / 0.5) ** 2)

    grid = TraitGrid(-2.0, 2.0, 16)
    kernel = tabulate(dens, np.linspace(-2.0, 1.75, 16), np.linspace(-2.0, 2.0, 17),
                      np.linspace(-4.0, 4.0, 65))
    wa = np.full(16, 1.0 / 15.0)
    wa[-1] = share
    wb = np.full(16, 1.0 / 16.0)
    total = wa.sum()
    if raises:
        for birth in (birth_weights, birth_weights_exact):
            with pytest.raises(DegenerateRow, match="1.000e-08 of the mass"):
                birth(kernel, wa, wb, grid)
        return
    out = birth_weights(kernel, wa, wb, grid)
    # the degenerate pairs add nothing; every other row keeps unit mass
    assert out.sum() == pytest.approx(total - share, rel=1e-12)
    wa[-1] = 0.0
    np.testing.assert_allclose(out, birth_weights_exact(kernel, wa, wb, grid),
                               rtol=0, atol=1e-14 * out.max())


def test_exact_contraction_is_linear_in_signed_weights():
    # a solver stage may carry negative weights; their pairs are terms of
    # the birth, not dust under the exact contraction's 1e-12 skip
    grid = TraitGrid(-2.0, 2.0, 32)
    knots = np.linspace(-2.0, 2.0, 17)
    kernel = tabulate(lambda x, y, z: np.exp(-2.0 * (z - 0.5 * (x + y)) ** 2), knots, knots,
                      np.linspace(-4.0, 4.0, 81))
    a = gaussian_measure(grid, -0.3, 0.6).weights
    b = gaussian_measure(grid, 0.4, 0.5).weights
    d = np.zeros(32)
    d[12] = -1e-3
    with_d, without, of_d = (birth_weights(kernel, w, b, grid) for w in (a + d, a, d))
    np.testing.assert_allclose(with_d, without + of_d, rtol=0, atol=1e-15)
    assert of_d.sum() == pytest.approx(-1e-3, rel=1e-12)
    assert with_d.sum() == pytest.approx(0.999, rel=1e-12)


def test_sampler_kernel_has_no_rows():
    k = SamplerKernel(lambda x, y, rng: 0.5 * (x + y))
    with pytest.raises(UnsupportedKernel):
        k.row_masses(0.0, 0.0, TraitGrid(0.0, 1.0, 8))
    with pytest.raises(UnsupportedKernel):
        check_hypotheses(k, TraitGrid(0.0, 1.0, 8))
    w = np.full(8, 0.125)
    with pytest.raises(UnsupportedKernel, match="SamplerKernel has no density rows"):
        birth_weights(k, w, w, TraitGrid(0.0, 1.0, 8))
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
    k = TabulatedKernel([0.0, 1.0], [0.0, 1.0], [0.0, 1.0], np.ones((2, 2, 2)))
    with pytest.raises(UnsupportedKernel):
        k.sample_offspring(0.0, 0.0, np.random.default_rng(0))


_KNOTS = np.linspace(-1.0, 1.0, 41)
SAMPLED_KERNELS = {
    "additive-gaussian": lambda: AdditiveNoiseKernel(GaussianNoise(0.5)),
    "additive-uniform": lambda: AdditiveNoiseKernel(UniformNoise(-0.5, 0.5)),
    "additive-tabulated": lambda: AdditiveNoiseKernel(TabulatedNoise(_KNOTS, 1.0 - np.abs(_KNOTS))),
    "multiplicative": lambda: MultiplicativeNoiseKernel(UniformNoise(0.25, 0.75)),
    "custom": lambda: tabulate(lambda x, y, z: np.exp(-((z - 0.5 * (x + y)) ** 2)),
                               _KNOTS + 1.0, _KNOTS + 1.0, 4.0 * _KNOTS,
                               sample_grid=TraitGrid(-4.0, 4.0, 64)),
    "sampler": lambda: SamplerKernel(lambda x, y, rng: x + rng.normal(0.0, 0.3) * rng.random()),
}


@pytest.mark.parametrize("make_rng", [BufferedRng, np.random.default_rng],
                         ids=["buffered", "generator"])
@pytest.mark.parametrize("name", list(SAMPLED_KERNELS))
def test_bound_sampler_matches_sample_offspring(name, make_rng):
    # the sampler bound once per run returns sample_offspring's float, bit
    # for bit, and consumes the same variates: every stream's next draw agrees
    kernel = SAMPLED_KERNELS[name]()
    rng, ref = make_rng(3), make_rng(3)
    sampler = kernel._offspring_sampler(rng)
    for x, y in np.random.default_rng(4).uniform(0.0, 2.0, (200, 2)).tolist():
        assert float(sampler(x, y)).hex() == float(kernel.sample_offspring(x, y, ref)).hex()
    for draw in ("random", "standard_normal", "standard_exponential"):
        assert getattr(rng, draw)() == getattr(ref, draw)()


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
    exact = birth_weights_exact(k, mu.weights, nu.weights, g)
    # the reference mode skips pairs below 1e-12 of the product mass, so
    # agreement is absolute at that scale rather than relative in the tails
    np.testing.assert_allclose(fast, exact, rtol=1e-9, atol=1e-11)

    gm = TraitGrid(0.0, 6.0, 48)
    km = MultiplicativeNoiseKernel(UniformNoise(0.0, 1.0))
    mu = gaussian_measure(gm, 1.2, 0.3)
    nu = gaussian_measure(gm, 2.0, 0.4)
    fast = birth_operator(km, mu, nu).weights
    exact = birth_weights_exact(km, mu.weights, nu.weights, gm)
    np.testing.assert_allclose(fast, exact, rtol=1e-9, atol=1e-11)


# -- the gathered additive row table, the reference of the table-free paths -------


class _TableKernel(AdditiveNoiseKernel):
    """An additive kernel whose births run through the (2n - 1) x n row table.

    Edge i sits at offset (2i - k - 1) dx/2 from the center of row k, so row
    k, cell j holds g[2j - k + 2n - 2], the noise mass between the half-cell
    offsets 2j - k - 2 and 2j - k (counted from 1 - 2n).
    """

    def _contraction(self, grid):
        table = self._tables.get(grid)
        if table is None:
            c = self._offset_cdf(grid)
            g = c[2:] - c[:-2]
            raw = sliding_window_view(g, 2 * grid.n_cells - 1)[::-1, ::2]
            table = self._tables[grid] = _SumRowTable(raw)
        return table


def _reference_table(noise, grid):
    return _TableKernel(noise)._contraction(grid)


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
    table = _reference_table(density, grid)
    sums = 2.0 * grid.x_min + (np.arange(2 * n - 1) + 1.0) * grid.dx
    raw = np.array([np.diff(density.cdf(grid.edges - 0.5 * s)) for s in sums])
    inside = raw.sum(axis=1)
    assert table.matrix.shape == (2 * n - 1, n)
    np.testing.assert_allclose(table.matrix, raw / inside[:, None], rtol=0, atol=1e-15)
    np.testing.assert_allclose(table.checks[:, 1], 1.0 - inside, rtol=0, atol=1e-15)
    assert not table.checks[:, 0].any()


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
    table = _reference_table(kernel.noise, grid)
    centers = grid.x_min + (np.arange(15) + 1.0) * grid.dx / 2
    bad = table.checks[:, 0] == 1.0
    np.testing.assert_array_equal(bad, np.abs(centers) < 0.5)
    assert np.all(table.matrix[bad] == 0.0) and np.all(table.checks[bad, 1] == 0.0)
    np.testing.assert_allclose(table.matrix[~bad].sum(axis=1), 1.0, rtol=0, atol=1e-15)
    edge = point_mass(grid, grid.centers[-1])
    with pytest.warns(UserWarning, match="shed noticeable mass"):
        out = birth_operator(kernel, edge, edge)  # half the row lands above the grid
    np.testing.assert_allclose(out.weights, kernel.row_masses(*grid.centers[[-1, -1]], grid),
                               rtol=0, atol=1e-15)
    middle = point_mass(grid, grid.centers[3])
    with pytest.raises(DegenerateRow):
        birth_operator(kernel, middle, middle)


# -- the FFT birth path of additive kernels ----------------------------------------


@pytest.fixture
def fft_everywhere(monkeypatch):
    """Additive kernels take the FFT birth path on every grid."""
    monkeypatch.setattr(kernels, "_FFT_MIN_CELLS", 1)


def _by_table(noise, wa, wb, grid):
    """The row-table product, from a kernel of its own."""
    return np.convolve(wa, wb) @ _reference_table(noise, grid).matrix


@pytest.mark.filterwarnings("ignore:inheritance rows shed noticeable mass")
@pytest.mark.parametrize("noise", list(ADDITIVE_NOISES))
@pytest.mark.parametrize("span", [(-2.0, 2.0), (-1.0, 3.0)], ids=["symmetric", "asymmetric"])
@pytest.mark.parametrize("n", [2, 3, 64, 191])
def test_fft_birth_matches_table_and_exact_contraction(n, span, noise, fft_everywhere):
    grid = TraitGrid(*span, n)
    density = ADDITIVE_NOISES[noise]()
    kernel = AdditiveNoiseKernel(density)
    rng = np.random.default_rng(n)
    wa, wb = rng.uniform(0.05, 1.0, (2, n))
    total = wa.sum() * wb.sum()
    fft = birth_weights(kernel, wa, wb, grid)
    spectrum = kernel._tables[grid]
    assert isinstance(spectrum, _NoiseLattice) and spectrum.g_hat is not None
    np.testing.assert_allclose(fft, _by_table(density, wa, wb, grid), rtol=0, atol=1e-15 * total)
    if n <= 64:  # the exact contraction evaluates n^2 rows
        np.testing.assert_allclose(fft, birth_weights_exact(kernel, wa, wb, grid),
                                   rtol=0, atol=1e-15 * total)
    # the O(n) row vectors are the table's
    table = _reference_table(density, grid)
    assert not table.checks[:, 0].any()
    np.testing.assert_array_equal(spectrum.checks[:, 0], table.checks[:, 0])
    np.testing.assert_allclose(spectrum.checks[:, 1], table.checks[:, 1], rtol=0, atol=1e-15)
    np.testing.assert_allclose(spectrum.inv_inside[:-1] * (1.0 - table.checks[:, 1]), 1.0,
                               rtol=1e-15)


_WEIGHT = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


@pytest.mark.filterwarnings("ignore:inheritance rows shed noticeable mass")
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(wa=st.lists(_WEIGHT, min_size=16, max_size=16),
       wb=st.lists(_WEIGHT, min_size=16, max_size=16))
def test_fft_birth_matches_both_references_on_drawn_weights(fft_everywhere, wa, wb):
    # weights are 0 or >= 1e-3, so no pair falls under the exact
    # contraction's 1e-12 skip
    grid = TraitGrid(-3.0, 3.0, 16)
    noise = GaussianNoise(0.5)
    kernel = AdditiveNoiseKernel(noise)
    wa, wb = np.array(wa), np.array(wb)
    total = wa.sum() * wb.sum()
    fft = birth_weights(kernel, wa, wb, grid)
    assert fft.min() >= 0.0
    np.testing.assert_allclose(fft, _by_table(noise, wa, wb, grid), rtol=0, atol=1e-15 * total)
    np.testing.assert_allclose(fft, birth_weights_exact(kernel, wa, wb, grid),
                               rtol=0, atol=1e-15 * total)


def _outcome(kernel, wa, wb, grid):
    """('degenerate', None), ('shed', weights) or ('clean', weights)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = birth_weights(kernel, wa, wb, grid)
        except DegenerateRow:
            return "degenerate", None
    return ("shed" if caught else "clean"), out


@pytest.mark.parametrize("between", [0.0, 1e-14], ids=["empty", "dust"])
def test_fft_birth_flags_degenerate_rows_and_shed_mass_as_the_table_does(monkeypatch, between):
    # the bimodal noise of the degenerate-row tests: offspring centred within
    # 0.5 of zero have no in-grid mass, every other row sheds half of it
    z = np.array([-1.6, -1.5, -1.4, 1.4, 1.5, 1.6])
    noise = TabulatedNoise(z, np.array([0.0, 5.0, between, between, 5.0, 0.0]))
    grid = TraitGrid(-1.0, 1.0, 8)
    table_kernel = _TableKernel(noise)
    direct_kernel, fft_kernel = AdditiveNoiseKernel(noise), AdditiveNoiseKernel(noise)
    seen = set()
    inputs = [(point_mass(grid, a).weights, point_mass(grid, b).weights)
              for a in grid.centers for b in grid.centers]
    inputs.append((np.full(8, 0.125), np.full(8, 0.125)))
    for wa, wb in inputs:
        kind, want = _outcome(table_kernel, wa, wb, grid)
        for kernel, crossover in ((direct_kernel, 10**9), (fft_kernel, 1)):
            monkeypatch.setattr(kernels, "_FFT_MIN_CELLS", crossover)
            got_kind, got = _outcome(kernel, wa, wb, grid)
            assert got_kind == kind
            if want is not None:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        seen.add(kind)
    assert isinstance(table_kernel._tables[grid], _SumRowTable)
    assert direct_kernel._tables[grid].g_hat is None
    assert fft_kernel._tables[grid].g_hat is not None
    assert seen == {"degenerate", "shed"}


def test_fft_round_off_below_zero_is_zeroed_within_its_bound(fft_everywhere, monkeypatch):
    # narrow parents leave FFT round-off of about 1e-18 where the table's
    # weights underflow to zero; it lies far inside the stated bound
    grid = TraitGrid(-8.0, 8.0, 256)
    noise = GaussianNoise(0.5)
    wa = gaussian_measure(grid, 0.5, 0.3).weights
    wb = gaussian_measure(grid, -1.0, 0.3).weights
    out = birth_weights(AdditiveNoiseKernel(noise), wa, wb, grid)
    assert out.min() == 0.0
    np.testing.assert_allclose(out, _by_table(noise, wa, wb, grid), rtol=0, atol=1e-15)
    # with a zero bound the same dust is an error for non-negative inputs
    monkeypatch.setattr(kernels, "_FFT_ROUNDOFF", 0.0)
    with pytest.raises(FloatingPointError, match="below its round-off bound"):
        birth_weights(AdditiveNoiseKernel(noise), wa, wb, grid)
    # while inputs with negative weights give a signed product, kept as is
    signed = wa.copy()
    signed[100] = -1e-3
    out = birth_weights(AdditiveNoiseKernel(noise), signed, wb, grid)
    assert out.min() < -1e-7
    np.testing.assert_allclose(out, _by_table(noise, signed, wb, grid), rtol=0, atol=1e-15)


def test_fft_cache_is_linear_in_n_and_never_pickled():
    # below the crossover the cache keeps g's parity halves, from it their
    # spectra, never both
    for n in (512, kernels._FFT_MIN_CELLS):
        grid = TraitGrid(-8.0, 8.0, n)
        kernel = AdditiveNoiseKernel(GaussianNoise(0.5))
        mu = gaussian_measure(grid, 0.0, 1.0)
        first = birth_operator(kernel, mu, mu).weights
        (cache,) = kernel._tables.values()
        assert isinstance(cache, _NoiseLattice)
        direct = n < kernels._FFT_MIN_CELLS
        assert (cache.g_hat is None) == direct
        assert hasattr(cache, "g_even") == hasattr(cache, "g_odd") == direct
        arrays = [v for v in vars(cache).values() if isinstance(v, np.ndarray)]
        assert max(a.size for a in arrays) <= 4 * n
        assert sum(a.nbytes for a in arrays) <= 100 * n  # the table takes 16 n^2 bytes
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone._tables == {}
        np.testing.assert_array_equal(birth_operator(clone, mu, mu).weights, first)


# -- the direct birth path of additive kernels below the FFT crossover ------------


def _bilinear_exact(kernel, wa, wb, grid):
    """The exact contraction of signed weights, summed over their positive and
    negative parts, so that it sees non-negative weights only."""
    out = np.zeros(grid.n_cells)
    for sa, a in ((1.0, np.clip(wa, 0.0, None)), (-1.0, np.clip(-wa, 0.0, None))):
        for sb, b in ((1.0, np.clip(wb, 0.0, None)), (-1.0, np.clip(-wb, 0.0, None))):
            if a.any() and b.any():
                out += sa * sb * birth_weights_exact(kernel, a, b, grid)
    return out


@pytest.mark.filterwarnings("ignore:inheritance rows shed noticeable mass")
@pytest.mark.parametrize("noise", list(ADDITIVE_NOISES))
@pytest.mark.parametrize("span", [(-2.0, 2.0), (-1.0, 3.0)], ids=["symmetric", "asymmetric"])
@pytest.mark.parametrize("n", [2, 3, 64, 191])
def test_direct_birth_matches_table_and_exact_contraction(n, span, noise):
    grid = TraitGrid(*span, n)
    density = ADDITIVE_NOISES[noise]()
    kernel = AdditiveNoiseKernel(density)
    rng = np.random.default_rng(n)
    wa, wb = rng.uniform(0.05, 1.0, (2, n))
    total = wa.sum() * wb.sum()
    out = birth_weights(kernel, wa, wb, grid)
    lattice = kernel._tables[grid]
    assert isinstance(lattice, _NoiseLattice) and lattice.g_hat is None
    assert out.min() >= 0.0  # a sum of non-negative products
    np.testing.assert_allclose(out, _by_table(density, wa, wb, grid), rtol=0, atol=1e-15 * total)
    if n <= 64:  # the exact contraction evaluates n^2 rows
        np.testing.assert_allclose(out, birth_weights_exact(kernel, wa, wb, grid),
                                   rtol=0, atol=1e-15 * total)
    table = _reference_table(density, grid)
    np.testing.assert_array_equal(lattice.checks[:, 0], table.checks[:, 0])
    np.testing.assert_allclose(lattice.checks[:, 1], table.checks[:, 1], rtol=0, atol=1e-15)
    # Runge-Kutta stages can carry negative weights; the product stays bilinear
    signed = wa - 0.6
    scale = np.abs(signed).sum() * wb.sum()
    out = birth_weights(kernel, signed, wb, grid)
    np.testing.assert_allclose(out, _by_table(density, signed, wb, grid), rtol=0,
                               atol=1e-15 * scale)
    if n <= 64:
        np.testing.assert_allclose(out, _bilinear_exact(kernel, signed, wb, grid), rtol=0,
                                   atol=1e-15 * scale)


_SIGNED_WEIGHT = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))


@pytest.mark.filterwarnings("ignore:inheritance rows shed noticeable mass")
@settings(max_examples=60, deadline=None)
@given(wa=st.lists(_SIGNED_WEIGHT, min_size=16, max_size=16),
       wb=st.lists(_SIGNED_WEIGHT, min_size=16, max_size=16))
def test_direct_birth_matches_both_references_on_drawn_signed_weights(wa, wb):
    # weights are 0 or at least 1e-3 in size, so no pair falls under the
    # exact contraction's 1e-12 skip
    grid = TraitGrid(-3.0, 3.0, 16)
    noise = GaussianNoise(0.5)
    kernel = AdditiveNoiseKernel(noise)
    wa, wb = np.array(wa), np.array(wb)
    scale = np.abs(wa).sum() * np.abs(wb).sum()
    out = birth_weights(kernel, wa, wb, grid)
    if wa.min() >= 0.0 and wb.min() >= 0.0:
        assert out.min() >= 0.0
    np.testing.assert_allclose(out, _by_table(noise, wa, wb, grid), rtol=0, atol=1e-15 * scale)
    np.testing.assert_allclose(out, _bilinear_exact(kernel, wa, wb, grid),
                               rtol=0, atol=1e-15 * scale)


@pytest.mark.parametrize("n", [kernels._FFT_MIN_CELLS - 1, kernels._FFT_MIN_CELLS])
def test_both_sides_of_the_fft_crossover_match_the_table(n):
    grid = TraitGrid(-8.0, 8.0, n)
    noise = GaussianNoise(0.5)
    kernel = AdditiveNoiseKernel(noise)
    wa = gaussian_measure(grid, 0.5, 1.0).weights
    wb = gaussian_measure(grid, -1.0, 1.5).weights
    out = birth_weights(kernel, wa, wb, grid)
    assert (kernel._tables[grid].g_hat is None) == (n < kernels._FFT_MIN_CELLS)
    assert out.min() >= 0.0
    np.testing.assert_allclose(out, _by_table(noise, wa, wb, grid), rtol=0, atol=1e-15)


def test_first_additive_birth_below_the_crossover_builds_no_row_table():
    # the (2n - 1) x n row table alone would take 4.2 MB at n = 512
    grid = TraitGrid(-8.0, 8.0, 512)
    kernel = AdditiveNoiseKernel(GaussianNoise(0.5))
    mu = gaussian_measure(grid, 0.0, 1.0).weights
    tracemalloc.start()
    try:
        birth_weights(kernel, mu, mu, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


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
    knots = np.linspace(-8.0, 8.0, 65)
    kernel = tabulate(dens, knots, knots, np.linspace(-8.0, 8.0, 257))
    rep = check_hypotheses(kernel, g, seed=2, parent_window=(-3.0, 3.0))
    assert rep.condition_ii.l_est > 1.0
    assert not rep.condition_ii.holds
    assert rep.mean_condition_max_error > 10.0 * g.dx
    with pytest.raises(ValueError, match="parent window is empty"):
        check_hypotheses(kernel, g, parent_window=(1.0, 1.0))


# -- tabulated kernels ---------------------------------------------------------------


def test_tabulated_kernel_from_csv(tmp_path):
    xs = np.linspace(-2.0, 2.0, 9)
    zs = np.linspace(-4.0, 4.0, 81)
    sigma = 0.5
    x, y, z = np.meshgrid(xs, xs, zs, indexing="ij")
    cube = np.exp(-0.5 * ((z - 0.5 * (x + y)) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))
    rows = ["x,y,z,density"]
    rows.extend(f"{a},{b},{c},{d}" for a, b, c, d in zip(x.flat, y.flat, z.flat, cube.flat))
    path = tmp_path / "kernel.csv"
    path.write_text("\n".join(rows) + "\n")

    grid = TraitGrid(-4.0, 4.0, 128)
    k = tabulated_kernel_from_csv(path, sample_grid=grid)
    assert isinstance(k, TabulatedKernel)
    row = k.row_masses(1.0, -1.0, grid)
    assert float(grid.centers @ row) == pytest.approx(0.0, abs=0.02)
    rng = np.random.default_rng(0)
    assert -4.0 <= k.sample_offspring(1.0, -1.0, rng) <= 4.0
    # the rows are scipy's trilinear interpolation, zero outside the table:
    # inside, on its edges, and with either parent just off it
    from scipy.interpolate import RegularGridInterpolator
    interp = RegularGridInterpolator((xs, xs, zs), cube, bounds_error=False, fill_value=0.0)
    for a, b in [(1.0, -1.0), (0.3, 1.7), (2.0, -2.0), (-1.1, 2.0), (2.01, 0.0), (0.0, -2.01)]:
        want = interp(np.column_stack([np.full(128, a), np.full(128, b), grid.centers])) * grid.dx
        np.testing.assert_allclose(k._raw_row(a, b, grid), want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("knots, cube, message", [
    (([0.0], [0.0, 1.0], [0.0, 1.0]), np.ones((1, 2, 2)), "x knots must be at least 2"),
    (([0.0, 1.0], [1.0, 0.0], [0.0, 1.0]), np.ones((2, 2, 2)), "y knots must be at least 2"),
    (([0.0, 1.0], [0.0, 1.0], [0.0, np.nan]), np.ones((2, 2, 2)), "z knots must be at least 2"),
    (([0.0, 1.0], [0.0, 1.0], [0.0, 1.0]), np.ones((2, 2, 3)),
     r"density table has shape \(2, 2, 3\), its knots need \(2, 2, 2\)"),
    (([0.0, 1.0], [0.0, 1.0], [0.0, 1.0]), np.full((2, 2, 2), np.inf), "finite and non-negative"),
    (([0.0, 1.0], [0.0, 1.0], [0.0, 1.0]), np.full((2, 2, 2), -1e-300), "finite and non-negative"),
], ids=["one-knot", "decreasing", "nan-knot", "shape", "inf-density", "negative-density"])
def test_tabulated_kernel_checks_its_table(knots, cube, message):
    with pytest.raises(ValueError, match=message):
        TabulatedKernel(*knots, cube)


def _drawn_table(rng):
    """Random densities on uneven knots: asymmetric in the parents, reaching
    past the grid [-2, 2] in x and y, and with rows that run off it in z."""
    xs = np.concatenate(([-2.1], np.sort(rng.uniform(-2.0, 2.0, 5)), [2.2]))
    return TabulatedKernel(xs, np.linspace(-2.3, 2.1, 9), np.linspace(-3.0, 3.0, 23),
                           rng.uniform(0.0, 1.0, (7, 9, 23)))


@pytest.mark.parametrize("n", [32, 64, 128])
def test_tabulated_birth_matches_exact_contraction(n):
    # weights at least 0.05 in size, so no pair falls under the exact
    # contraction's 1e-12 skip; the signed ones are solver stages
    rng = np.random.default_rng(n)
    kernel = _drawn_table(rng)
    grid = TraitGrid(-2.0, 2.0, n)
    wa, wb = rng.uniform(0.05, 1.0, (2, n))
    for a in (wa, wa * rng.choice([-1.0, 1.0], n)):
        want = birth_weights_exact(kernel, a, wb, grid)
        np.testing.assert_allclose(birth_weights(kernel, a, wb, grid), want,
                                   rtol=0, atol=1e-14 * np.abs(want).max())
    assert isinstance(kernel._tables[grid], _TrilinearTable)


def test_degenerate_rows_with_dust_are_zero_in_the_table():
    # as above, but the noise keeps a density of 1e-14 between its modes, so
    # the degenerate rows hold about 1e-14 of in-grid mass; the table holds
    # zero for them, and the single row raises
    z = np.array([-1.6, -1.5, -1.4, 1.4, 1.5, 1.6])
    kernel = AdditiveNoiseKernel(TabulatedNoise(z, np.array([0.0, 5.0, 1e-14, 1e-14, 5.0, 0.0])))
    grid = TraitGrid(-1.0, 1.0, 8)
    table = _reference_table(kernel.noise, grid)
    sums = 2.0 * grid.x_min + (np.arange(15) + 1.0) * grid.dx
    bad = table.checks[:, 0] == 1.0
    np.testing.assert_array_equal(bad, np.abs(sums) < 1.0)
    for k, s in enumerate(sums):
        if bad[k]:
            assert 0.0 < np.diff(kernel.noise.cdf(grid.edges - 0.5 * s)).sum() <= 1e-12
            assert np.all(table.matrix[k] == 0.0) and table.checks[k, 1] == 0.0
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
