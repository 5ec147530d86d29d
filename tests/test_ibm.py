import dataclasses
import signal
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import ibm_reference as reference
from dimorph import config, ibm
from dimorph.ibm import BufferedRng, IbmParams, simulate
from dimorph.kernels import (AdditiveNoiseKernel, GaussianNoise,
                             MultiplicativeNoiseKernel, SamplerKernel, UniformNoise)
from dimorph.measures import TraitGrid
from dimorph.totals import RateSet

GRID = TraitGrid(-6.0, 6.0, 192)
KERNEL = AdditiveNoiseKernel(GaussianNoise(0.5))
PERSIST = RateSet.constant(p_f=2.0, p_m=2.0, D_f=1.0, D_m=1.0, U=0.25)


def _zero_u(x, y):
    return 0.0 * (x + y)


def _params(rates, females, males, N=1, t_end=1.0, sample_times=(), seed=0, kernel=KERNEL):
    return IbmParams(grid=GRID, rates=rates, kernel=kernel, N=N, t_end=t_end,
                     sample_times=sample_times, seed=seed, initial_female=np.array(females),
                     initial_male=np.array(males))


def _reference_rates(params) -> tuple:
    """(mating, female death, male death) totals of the reference at the start."""
    state = reference.start(params)
    (_, _, init_f, death_f), (_, _, init_m, death_m) = (
        reference.sex_rates(params, state, s) for s in "fm")
    both = state[0]["f"] and state[0]["m"]
    return (init_f + init_m if both else 0.0), death_f, death_m


def test_event_rates_one_pair_unit_rates():
    # one female and one male, p = 1, D = 1, no competition, N = 1:
    # two mating initiations plus two unit deaths
    rates = RateSet(p_f=1.0, p_m=1.0, D_f=1.0, D_m=1.0,
                    U_ff=_zero_u, U_fm=_zero_u, U_mf=_zero_u, U_mm=_zero_u)
    mating, death_f, death_m = _reference_rates(_params(rates, [0.0], [0.5]))
    assert mating == pytest.approx(2.0)
    assert death_f + death_m == pytest.approx(2.0)


def test_event_rates_single_sex_no_mating():
    # two females and no male never mate: simulate sees only their deaths
    traj = simulate(_params(PERSIST, [0.0, 1.0], [], t_end=100.0))
    assert (traj.births, traj.deaths) == (0, 2)
    assert traj.extinction_time is not None


def test_event_rates_competition_includes_self():
    # two males, U = u everywhere, no natural death or male mating:
    # each male dies at rate 2u (self term included), total 4u
    u = 0.3
    rates = RateSet(p_f=1.0, p_m=0.0, D_f=lambda x: 0.0 * x, D_m=lambda x: 0.0 * x,
                    U_ff=lambda x, y: u + 0 * (x + y), U_fm=lambda x, y: u + 0 * (x + y),
                    U_mf=lambda x, y: u + 0 * (x + y), U_mm=lambda x, y: u + 0 * (x + y))
    mating, _death_f, death_m = _reference_rates(_params(rates, [], [0.0, 1.0]))
    assert death_m == pytest.approx(4.0 * u)
    assert mating == 0.0


def test_negative_trait_rate_rejected():
    # p_f(x) = x is negative for the female at -2, D_m(x) = 0.5 - x for a male at 1
    rates = RateSet(p_f=lambda x: x, p_m=1.0, D_f=1.0, D_m=lambda x: 0.5 - x,
                    U_ff=0.25, U_fm=0.25, U_mf=0.25, U_mm=0.25)
    with pytest.raises(ValueError, match=r"p_f must be non-negative, got -2\.0 at trait -2\.0"):
        simulate(_params(rates, [-2.0, 1.0], [0.0]))
    # every newborn lands at -0.5, where a daughter's p_f is negative, or at
    # 1, where a son's D_m is; 20 of each sex give birth long before dying out
    for child, name in ((-0.5, "p_f"), (1.0, "D_m")):
        params = _params(rates, [1.0] * 20, [0.0] * 20, N=20, t_end=50.0,
                         kernel=SamplerKernel(lambda x, y, rng, c=child: c))
        with pytest.raises(ValueError, match=rf"{name} must be non-negative, got -0\.5 "
                                             rf"at trait {child}"):
            simulate(params)


def test_negative_competition_kernel_rejected():
    # U_ff(x, y) = 0.25 - 0.5|x - y| is negative between traits more than
    # 0.5 apart; simulate bounds each kernel over the grid before any jump,
    # so it refuses the kernel whatever the population
    rates = RateSet(p_f=1.0, p_m=1.0, D_f=1.0, D_m=1.0,
                    U_ff=lambda x, y: 0.25 - 0.5 * np.abs(x - y), U_fm=0.25,
                    U_mf=0.25, U_mm=0.25)
    with pytest.raises(ValueError, match=r"U_ff must be non-negative, got -0\.125 at traits "
                                         r"\(-1\.375, -0\.625\)"):
        simulate(dataclasses.replace(_params(rates, [0.0], [0.0]), grid=_SMALL))
    # a kernel that ignores its second trait does not give one value per pair
    flat = RateSet(p_f=1.0, p_m=1.0, D_f=1.0, D_m=1.0, U_ff=0.25, U_fm=0.25,
                   U_mf=lambda y, z: 0.1 + 0.1 * np.abs(y), U_mm=0.25)
    with pytest.raises(ValueError, match="U_mf must map its traits"):
        simulate(_params(flat, [0.0, 1.0], [0.0]))


def test_buffered_rng_streams_are_generator_batches():
    # every seeded artifact rests on this order: one batch each of random,
    # standard_normal and standard_exponential, then each stream refills
    # from the shared generator when it runs out
    rng, gen = BufferedRng(9), np.random.default_rng(9)
    size = ibm._BATCH
    assert [rng.random() for _ in range(size)] == gen.random(size).tolist()
    assert [rng.normal() for _ in range(size)] == gen.standard_normal(size).tolist()
    assert [rng.exponential() for _ in range(size)] == gen.standard_exponential(size).tolist()
    assert rng.random() == gen.random(size)[0]
    # `simulate` reads the normal and exponential streams directly; a stream
    # read past its first batch refills from the shared generator
    rng, gen = BufferedRng(9), np.random.default_rng(9)
    first = gen.random(size), gen.standard_normal(size), gen.standard_exponential(size)
    assert [rng.standard_exponential() for _ in range(size + 1)] == \
        first[2].tolist() + [gen.standard_exponential(size)[0]]
    assert [rng.standard_normal() for _ in range(size + 1)] == \
        first[1].tolist() + [gen.standard_normal(size)[0]]


def test_infinite_trait_rate_rejected():
    # p_f = inf above trait 1 is no event rate: it would make the total rate
    # infinite, every waiting time 0 and every jump a death
    rates = RateSet(p_f=lambda x: np.where(x > 1.0, np.inf, 1.0), p_m=1.0, D_f=1e-3, D_m=1e-3,
                    U_ff=2.5e-4, U_fm=2.5e-4, U_mf=2.5e-4, U_mm=2.5e-4)
    with pytest.raises(ValueError, match=r"p_f must be finite, got inf at trait 1\.5"):
        rates.at("p_f", np.array([0.5, 1.5]))
    with pytest.raises(ValueError, match=r"p_f must be finite, got inf at trait 1\.5"):
        simulate(IbmParams(grid=GRID, rates=rates, kernel=KERNEL, N=2, t_end=1.0,
                           sample_times=(), seed=0, initial_female=np.array([0.5, 1.5]),
                           initial_male=np.array([0.0, 1.0])))
    # a newborn at 1.5, as in the negative-capability test below
    both = dataclasses.replace(rates, p_m=rates.p_f)
    with pytest.raises(ValueError, match=r"p_[fm] must be finite, got inf at trait 1\.5"):
        simulate(IbmParams(grid=GRID, rates=both, kernel=_PairCells(), N=1, t_end=50.0,
                           sample_times=(), seed=2, initial_female=np.array([0.5]),
                           initial_male=np.array([0.0])))


def test_step_single_male_death_only():
    # a lone male cannot mate: his death is the one jump, and it ends the run
    rates = RateSet.constant(p_f=5.0, p_m=5.0, D_f=1.0, D_m=1.0, U=0.25)
    traj = simulate(_params(rates, [], [0.3], t_end=50.0))
    assert (traj.births, traj.deaths, traj.final_n_female, traj.final_n_male) == (0, 1, 0, 0)
    assert 0.0 < traj.extinction_time < 50.0


def test_events_change_count_by_one():
    # deaths are counted where they happen, so births - deaths = the change
    # in size is a check on the loop, with constant and with thinned rates
    rng0 = np.random.default_rng(5)
    females, males = rng0.normal(0, 0.5, 40), rng0.normal(0, 0.5, 40)
    for rates in (PERSIST, CRITERION_9):
        traj = simulate(_params(rates, females, males, N=80, t_end=3.0, seed=5))
        assert traj.n_events >= 500
        assert traj.births - traj.deaths == traj.final_n_female + traj.final_n_male - 80


def test_fisher_sex_ratio():
    rng0 = np.random.default_rng(11)
    params = IbmParams(grid=GRID, rates=PERSIST, kernel=KERNEL, N=2000, t_end=3.0,
                       sample_times=(3.0,), seed=11,
                       initial_female=rng0.normal(0, 0.5, 2000),
                       initial_male=rng0.normal(0, 0.5, 2000))
    traj = simulate(params)
    births = traj.births
    assert births > 10_000
    ratio = traj.births_female / births
    assert abs(ratio - 0.5) <= 4.0 * np.sqrt(0.25 / births)


def test_interevent_times_are_exponential():
    # frozen-size probe: the reference's first jump from a fresh pair
    rates = RateSet(p_f=1.5, p_m=1.5, D_f=lambda x: 0.0 * x, D_m=lambda x: 0.0 * x,
                    U_ff=_zero_u, U_fm=_zero_u, U_mf=_zero_u, U_mm=_zero_u)
    params = _params(rates, [0.0], [0.0])
    rng = BufferedRng(13)
    waits = []
    for _ in range(1000):
        dt, event = reference.jump(params, reference.start(params), rng)
        event()
        waits.append(dt)
    # total initiation rate is 3.0
    res = stats.kstest(waits, "expon", args=(0.0, 1.0 / 3.0))
    assert res.pvalue > 0.01


def test_seed_replay_bit_identical():
    rng0 = np.random.default_rng(21)
    params = IbmParams(grid=GRID, rates=PERSIST, kernel=KERNEL, N=300, t_end=2.0,
                       sample_times=(0.0, 1.0, 2.0), seed=21,
                       initial_female=rng0.normal(0, 0.5, 300),
                       initial_male=rng0.normal(0, 0.5, 300))
    a = simulate(params)
    b = simulate(params)
    assert a.n_events == b.n_events
    assert a.births_female == b.births_female
    for sa, sb in zip(a.snapshots, b.snapshots):
        np.testing.assert_array_equal(sa.male.weights, sb.male.weights)
        np.testing.assert_array_equal(sa.female.weights, sb.female.weights)


def test_simulate_all_matches_simulate_in_order_with_a_pool():
    runs = _case(PERSIST, 50, 50, 50, 0.5, (0.0, 0.5))
    serial, pooled = ibm.simulate_all(runs), ibm.simulate_all(runs, jobs=2)
    assert [t.seed for t in pooled] == [0, 1, 2]
    assert [t.n_events for t in pooled] == [t.n_events for t in serial] \
        == [simulate(p).n_events for p in runs]
    for a, b in zip(serial, pooled):
        np.testing.assert_array_equal(a.snapshots[-1].male.weights, b.snapshots[-1].male.weights)


def test_simulate_all_starts_no_more_workers_than_runs(monkeypatch):
    # a pool that records its size and maps in this process, so no worker starts
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    runs = _case(PERSIST, 20, 20, 20, 0.1, (0.1,))
    pooled = ibm.simulate_all(runs, jobs=64)
    assert sizes == [3]
    assert [t.n_events for t in pooled] == [simulate(p).n_events for p in runs]
    ibm.simulate_all(runs[:1], jobs=64)
    assert sizes == [3]  # one run takes no pool


def test_frozen_population_stays_constant():
    # all rates vanish: the generator is zero and nothing ever happens
    zero = lambda x: 0.0 * x
    rates = RateSet(p_f=zero, p_m=zero, D_f=zero, D_m=zero,
                    U_ff=_zero_u, U_fm=_zero_u, U_mf=_zero_u, U_mm=_zero_u)
    params = IbmParams(grid=GRID, rates=rates, kernel=KERNEL, N=10, t_end=5.0,
                       sample_times=(0.0, 2.5, 5.0), seed=3,
                       initial_female=np.array([0.5, 1.0]),
                       initial_male=np.array([-0.5]))
    traj = simulate(params)
    assert traj.extinction_time is None
    assert traj.n_events == 0
    for snap in traj.snapshots:
        assert snap.n_female == 2 and snap.n_male == 1
        assert snap.female.mass == pytest.approx(0.2)


def test_subcritical_population_goes_extinct():
    rates = RateSet.constant(p_f=0.2, p_m=0.2, D_f=2.0, D_m=2.0, U=0.25)
    for seed in range(5):
        rng0 = np.random.default_rng(seed)
        params = IbmParams(grid=GRID, rates=rates, kernel=KERNEL, N=20, t_end=50.0,
                           sample_times=(50.0,), seed=seed,
                           initial_female=rng0.normal(0, 0.5, 20),
                           initial_male=rng0.normal(0, 0.5, 20))
        traj = simulate(params)
        assert traj.extinction_time is not None
        assert traj.snapshots[-1].n_male == 0
        assert traj.snapshots[-1].n_female == 0


def test_cache_consistency_both_modes():
    rng0 = np.random.default_rng(31)
    const = simulate(_params(PERSIST, rng0.normal(0, 0.5, 100), rng0.normal(0, 0.5, 100),
                             N=200, t_end=3.5, seed=31))
    assert const.n_events >= 2000
    assert const.cache_error < 1e-9

    trait_rates = RateSet(p_f=lambda x: 2.0 + 0.1 * np.sin(x), p_m=2.0,
                          D_f=1.0, D_m=lambda x: 1.0 + 0.02 * x * x,
                          U_ff=lambda x, y: 0.2 + 0.01 * np.abs(x - y),
                          U_fm=0.25, U_mf=0.25, U_mm=0.25)
    trait = simulate(_params(trait_rates, rng0.normal(0, 0.5, 60), rng0.normal(0, 0.5, 60),
                             N=120, t_end=6.0, seed=32))
    assert trait.n_events >= 2000
    assert trait.cache_error < 1e-9


def test_cache_error_sees_a_drifted_sum_and_a_misplaced_rate():
    males = ibm._SexState(STEEP, "m", "f", np.array([-1.0, 0.0, 1.0]), GRID)
    assert ibm._cache_error(STEEP, "m", males) == 0.0
    exact = males.sum_p  # e^-1 + 1 + e, above the unit floor
    males.sum_p += 1e-3
    assert ibm._cache_error(STEEP, "m", males) == pytest.approx(1e-3 / exact, rel=1e-6)
    males.sum_p = exact
    males.D[0], males.D[1] = males.D[1], males.D[0]  # D_m is 1 at -1 and 0.5 at 0
    assert ibm._cache_error(STEEP, "m", males) == pytest.approx(0.5)


def test_newborns_clamped_to_grid():
    tight = TraitGrid(-0.5, 0.5, 16)
    wild = AdditiveNoiseKernel(GaussianNoise(2.0))
    rates = RateSet.constant(p_f=5.0, p_m=5.0, D_f=0.1, D_m=0.1, U=0.01)
    params = IbmParams(grid=tight, rates=rates, kernel=wild, N=50, t_end=1.0,
                       sample_times=(1.0,), seed=4,
                       initial_female=np.zeros(50), initial_male=np.zeros(50))
    traj = simulate(params)
    assert traj.clamped_births > 0
    snap = traj.snapshots[-1]
    assert snap.male.mass + snap.female.mass > 0


def test_empirical_measure_scaling():
    traj = simulate(_params(PERSIST, [0.0, 0.1], [0.2], N=4, sample_times=(0.0,)))
    male, female = traj.measures_at(0.0)
    assert female.mass == pytest.approx(0.5)  # 2 atoms of mass 1/4
    assert male.mass == pytest.approx(0.25)


def test_masses_track_the_planar_system():
    # persistence regime: empirical masses stay within CLT-scale bands of
    # the deterministic solution
    from dimorph.totals import TotalsState, integrate_totals

    n_scale = 2000
    rng0 = np.random.default_rng(17)
    params = IbmParams(grid=GRID, rates=PERSIST, kernel=KERNEL, N=n_scale, t_end=2.001,
                       sample_times=(1.0, 2.0), seed=17,
                       initial_female=np.clip(rng0.normal(0, 0.5, n_scale), -6, 6),
                       initial_male=np.clip(rng0.normal(0, 0.5, n_scale), -6, 6))
    traj = simulate(params)
    series = integrate_totals(TotalsState(1.0, 1.0), PERSIST, t_end=2.0, dt=0.005)
    for snap in traj.snapshots:
        idx = int(round(snap.time / 0.005))
        band = 5.0 * np.sqrt(series.M[idx] / n_scale)
        assert abs(snap.male.mass - series.M[idx]) <= band
        assert abs(snap.female.mass - series.F[idx]) <= band


def test_params_validation():
    with pytest.raises(ValueError):
        IbmParams(grid=GRID, rates=PERSIST, kernel=KERNEL, N=0, t_end=1.0,
                  sample_times=(0.5,), seed=0,
                  initial_female=np.array([0.0]), initial_male=np.array([0.0]))
    with pytest.raises(ValueError):
        IbmParams(grid=GRID, rates=PERSIST, kernel=KERNEL, N=1, t_end=1.0,
                  sample_times=(2.0,), seed=0,
                  initial_female=np.array([0.0]), initial_male=np.array([0.0]))
    with pytest.raises(ValueError):
        IbmParams(grid=GRID, rates=PERSIST, kernel=KERNEL, N=1, t_end=1.0,
                  sample_times=(0.5,), seed=0,
                  initial_female=np.array([99.0]), initial_male=np.array([0.0]))
    with pytest.raises(ValueError, match="sorted"):
        IbmParams(grid=GRID, rates=PERSIST, kernel=KERNEL, N=1, t_end=1.0,
                  sample_times=(0.5, 0.2), seed=0,
                  initial_female=np.array([0.0]), initial_male=np.array([0.0]))
    empty = IbmParams(grid=GRID, rates=PERSIST, kernel=KERNEL, N=1, t_end=1.0,
                      sample_times=(0.5,), seed=0,
                      initial_female=np.array([]), initial_male=np.array([]))
    with pytest.raises(ValueError, match="nonempty"):
        simulate(empty)


@pytest.mark.parametrize("field, value", [
    ("t_end", np.nan), ("t_end", np.inf), ("sample_times", (np.nan,)),
    ("initial_female", np.array([np.nan])), ("initial_male", np.array([0.0, np.inf])),
], ids=["t_end-nan", "t_end-inf", "sample-nan", "female-nan", "male-inf"])
def test_params_reject_non_finite(field, value):
    # a NaN horizon would keep `simulate` running for ever on a persistent population
    kwargs = dict(grid=GRID, rates=PERSIST, kernel=KERNEL, N=1, t_end=1.0,
                  sample_times=(0.5,), seed=0,
                  initial_female=np.array([0.0]), initial_male=np.array([0.0]))
    with pytest.raises(ValueError, match=field):
        IbmParams(**(kwargs | {field: value}))


# -- generator conformance ------------------------------------------------------

LAW_FEMALES = (-0.5, 0.5)
LAW_MALES = (-1.0, 0.0, 1.0)
LAW_N = 2
LAW_DRAWS = 20_000

UNEQUAL = RateSet(p_f=0.7, p_m=1.3, D_f=0.45, D_m=0.6,
                  U_ff=0.15, U_fm=0.35, U_mf=0.2, U_mm=0.3)
CRITERION_9 = RateSet(
    p_f=lambda x: 2.0 + 0.2 * np.tanh(x), p_m=2.0,
    D_f=1.0, D_m=lambda x: 1.0 + 0.05 * x**2,
    U_ff=lambda x, y: 0.2 + 0.02 * np.abs(x - y), U_fm=0.25,
    U_mf=0.25, U_mm=lambda x, y: 0.25 + 0.01 * np.cos(x - y))
# capabilities spread by a factor 2.3 (females) and 7.4 (males), so a
# partner picked uniformly instead of by capability moves whole cells; the
# female capability is held at zero below -1.25, where newborns can land
STEEP = RateSet(
    p_f=lambda x: np.maximum(1.0 + 0.8 * x, 0.0), p_m=lambda y: np.exp(y),
    D_f=0.5, D_m=lambda y: 0.5 + 0.5 * y**2,
    U_ff=lambda x, z: 0.3 + 0.2 * (x - z) ** 2, U_fm=0.2,
    U_mf=lambda y, z: 0.1 + 0.1 * np.abs(y) + 0.0 * z, U_mm=0.25)


def _val(entry, *traits) -> float:
    return float(entry(*traits)) if callable(entry) else float(entry)


def _one_step_law(rates: RateSet, females, males, n_scale: int) -> dict:
    """Rate of every possible next jump, written from the model definition.

    Female i initiates at p_f(x_i) and picks male j with probability
    proportional to p_m(y_j), and the other way round; the child's sex is
    a fair coin. Individual k dies at D(x_k) + (1/N) sum_l U(x_k, z_l),
    self included.
    """
    pf = [_val(rates.p_f, x) for x in females]
    pm = [_val(rates.p_m, y) for y in males]
    law = {}
    for i, x in enumerate(females):
        for j, y in enumerate(males):
            pair = pf[i] * pm[j] / sum(pm) + pm[j] * pf[i] / sum(pf)
            for sex in "fm":
                law[("birth", x, y, sex)] = 0.5 * pair
    for x in females:
        law[("death", "f", x)] = _val(rates.D_f, x) + (
            sum(_val(rates.U_ff, x, z) for z in females)
            + sum(_val(rates.U_fm, x, z) for z in males)) / n_scale
    for y in males:
        law[("death", "m", y)] = _val(rates.D_m, y) + (
            sum(_val(rates.U_mm, y, z) for z in males)
            + sum(_val(rates.U_mf, y, z) for z in females)) / n_scale
    return law


@pytest.mark.parametrize("rates", [UNEQUAL, CRITERION_9, STEEP],
                         ids=["unequal-constant", "criterion-9", "steep-capability"])
def test_one_step_law_matches_generator(rates):
    # 2 * 3 * 2 birth cells plus 5 death cells; each draw is the reference's
    # first jump from a fresh copy of the same population; a birth's cell
    # leaves out whether the child was clamped
    law = _one_step_law(rates, LAW_FEMALES, LAW_MALES, LAW_N)
    total = sum(law.values())
    cells = {key: k for k, key in enumerate(law)}
    counts = np.zeros(len(law))
    waits = np.empty(LAW_DRAWS)
    params = _params(rates, LAW_FEMALES, LAW_MALES, N=LAW_N)
    rng = BufferedRng(2024)
    for k in range(LAW_DRAWS):
        waits[k], event = reference.jump(params, reference.start(params), rng)
        counts[cells[event()[:4]]] += 1
    expected = LAW_DRAWS * np.array(list(law.values())) / total
    assert expected.min() > 100
    assert stats.chisquare(counts, expected).pvalue > 1e-3
    assert stats.kstest(waits, "expon", args=(0.0, 1.0 / total)).pvalue > 1e-3


# -- the constant-rate loop against the direct method (ibm_reference) ----------

def _lln_config_replicas():
    # the replicas `dimorph lln` runs for configs/lln.json at its smallest N,
    # plus the first replica at the next N
    cfg = config.load_config(Path(__file__).resolve().parent.parent / "configs" / "lln.json")
    grid = config.parse_grid(cfg["grid"])
    rates = config.parse_rates(cfg["rates"])
    kernel = config.parse_kernel(cfg["kernel"], sample_grid=grid)
    checkpoints = tuple(float(t) for t in cfg["checkpoints"])
    runs = [(0, cfg["N_list"][0], r) for r in range(cfg["replicas"])] + [(1, cfg["N_list"][1], 0)]
    out = []
    for i, n, r in runs:
        seed = cfg["seed"] + 10_000 * (i + 1) + r
        rng = np.random.default_rng(seed)
        out.append(IbmParams(
            grid=grid, rates=rates, kernel=kernel, N=n, t_end=max(checkpoints) + 1e-3,
            sample_times=checkpoints, seed=seed,
            initial_female=config.sample_traits(cfg["initial_female"], n, grid, rng, ""),
            initial_male=config.sample_traits(cfg["initial_male"], n, grid, rng, "")))
    return out


def _case(rates, n_females, n_males, N, t_end, sample_times, kernel=KERNEL, grid=GRID,
          mean=0.0):
    out = []
    for seed in range(3):
        rng0 = np.random.default_rng(seed)
        traits = [np.clip(rng0.normal(mean, 0.5, n), grid.x_min, grid.x_max)
                  for n in (n_females, n_males)]
        out.append(IbmParams(grid=grid, rates=rates, kernel=kernel, N=N, t_end=t_end,
                             sample_times=sample_times, seed=seed,
                             initial_female=traits[0], initial_male=traits[1]))
    return out


class _DuckKernel:
    """Not an InheritanceKernel: the midpoint plus a uniform and a normal variate."""

    def sample_offspring(self, x, y, rng):
        return 0.5 * (x + y) + rng.uniform(-0.2, 0.2) + rng.normal(0.0, 0.2)


_TIGHT = TraitGrid(-0.5, 0.5, 16)
PINNED_CASES = {
    "lln-config": _lln_config_replicas,
    "subcritical-extinct": lambda: _case(
        RateSet.constant(p_f=0.2, p_m=0.2, D_f=2.0, D_m=2.0, U=0.25), 20, 20, 20, 50.0, (1.0, 50.0)),
    "clamped-births": lambda: _case(
        RateSet.constant(p_f=5.0, p_m=5.0, D_f=0.1, D_m=0.1, U=0.01), 50, 50, 50, 1.0, (0.5, 1.0),
        kernel=AdditiveNoiseKernel(GaussianNoise(2.0)), grid=_TIGHT),
    "one-male": lambda: _case(PERSIST, 50, 1, 50, 2.0, (0.0, 2.0)),
    "uniform-noise": lambda: _case(PERSIST, 100, 100, 100, 2.0, (1.0, 2.0),
                                   kernel=AdditiveNoiseKernel(UniformNoise(-0.4, 0.4))),
    "multiplicative": lambda: _case(PERSIST, 100, 100, 100, 2.0, (1.0, 2.0),
                                    kernel=MultiplicativeNoiseKernel(UniformNoise(0.25, 0.75)),
                                    grid=TraitGrid(0.0, 4.0, 64), mean=1.0),
    # p_f = 0.3 and U_fm = 0.3 are not dyadic: the incremental capability
    # sums drift from p * n, and both must drift alike; the run dies
    # out, so the extinction time pins every waiting time to the last bit
    "unequal-rates": lambda: _case(
        RateSet(p_f=0.3, p_m=2.1, D_f=1.3, D_m=1.7, U_ff=0.1, U_fm=0.3, U_mf=0.2, U_mm=0.15),
        150, 120, 150, 50.0, (0.7, 2.0, 50.0)),
    # kernels whose bound offspring sampler falls back to sample_offspring
    "sampler-kernel": lambda: _case(
        PERSIST, 100, 100, 100, 2.0, (1.0, 2.0),
        kernel=SamplerKernel(lambda x, y, rng: y + rng.normal(0.0, 0.3) * rng.random())),
    "duck-typed-kernel": lambda: _case(PERSIST, 100, 100, 100, 2.0, (1.0, 2.0),
                                       kernel=_DuckKernel()),
}


@pytest.mark.parametrize("case", list(PINNED_CASES))
def test_constant_loop_matches_direct_engine(case):
    trajs = []
    for params in PINNED_CASES[case]():
        assert params.rates.is_constant
        fast, ref = simulate(params), reference.run(params)
        assert (fast.births_female, fast.births_male, fast.deaths, fast.clamped_births,
                fast.n_events, fast.extinction_time, fast.final_n_female, fast.final_n_male) == \
            (ref.births_female, ref.births_male, ref.deaths, ref.clamped_births,
             ref.n_events, ref.extinction_time, ref.final_n_female, ref.final_n_male)
        assert len(fast.snapshots) == len(ref.snapshots)
        for a, b in zip(fast.snapshots, ref.snapshots):
            assert (a.time, a.n_female, a.n_male) == (b.time, b.n_female, b.n_male)
            np.testing.assert_array_equal(a.female.weights, b.female.weights)
            np.testing.assert_array_equal(a.male.weights, b.male.weights)
        trajs.append(fast)
    # each case must reach the regime it is named for
    if case in ("subcritical-extinct", "unequal-rates"):
        assert all(t.extinction_time is not None for t in trajs)
    if case == "clamped-births":
        assert all(t.clamped_births > 0 for t in trajs)


# -- the partner pick when the partner sex has no capability --------------------

# one female at 0 mates with one of three males, none of which can initiate
NO_MALE_CAPABILITY = RateSet(p_f=1.0, p_m=lambda y: 0.0 * y, D_f=lambda x: 0.0 * x,
                             D_m=lambda y: 0.0 * y, U_ff=_zero_u, U_fm=_zero_u,
                             U_mf=_zero_u, U_mm=_zero_u)
FATHERS = (-1.0, 0.5, 1.0)
_SMALL = TraitGrid(-1.5, 1.5, 12)


class _RecordingKernel:
    """The child takes the mother's trait; every father's trait is kept."""

    def __init__(self):
        self.fathers = []

    def sample_offspring(self, x_mother, x_father, rng):
        self.fathers.append(x_father)
        return x_mother


def _uniform_over_fathers(fathers) -> float:
    counts = np.array([sum(f == y for f in fathers) for y in FATHERS])
    assert counts.sum() >= 300
    return stats.chisquare(counts).pvalue


def test_zero_capability_partner_is_uniform_in_step():
    # every jump is a female-initiated mating; the solver picks the father
    # uniformly when no male has capability, and so must the reference
    params = _params(NO_MALE_CAPABILITY, [0.0], FATHERS)
    rng = BufferedRng(7)
    fathers = []
    for _ in range(900):
        _dt, event = reference.jump(params, reference.start(params), rng)
        fathers.append(event()[2])
    assert _uniform_over_fathers(fathers) > 1e-3


def test_zero_capability_partner_is_uniform_in_simulate():
    # no deaths, so the three first males stay and every father among them
    # is a uniform pick among all males; newborns carry the mother's trait 0
    fathers = []
    for seed in range(400):
        kernel = _RecordingKernel()
        simulate(IbmParams(grid=_SMALL, rates=NO_MALE_CAPABILITY, kernel=kernel, N=1, t_end=2.0,
                           sample_times=(2.0,), seed=seed, initial_female=np.array([0.0]),
                           initial_male=np.array(FATHERS)))
        fathers += [f for f in kernel.fathers if f in FATHERS]
    assert _uniform_over_fathers(fathers) > 1e-3


# -- the thinning engine ------------------------------------------------------

def test_proposal_counts():
    const = simulate(PINNED_CASES["one-male"]()[0])
    assert const.n_proposals == const.n_events > 0
    trait = IbmParams(grid=GRID, rates=CRITERION_9, kernel=KERNEL, N=100, t_end=1.0,
                      sample_times=(1.0,), seed=4, initial_female=np.zeros(100),
                      initial_male=np.zeros(100))
    thinned = simulate(trait)
    assert thinned.n_proposals > thinned.n_events > 0


def test_thinned_seed_replay_bit_identical():
    rng0 = np.random.default_rng(23)
    params = IbmParams(grid=GRID, rates=STEEP, kernel=KERNEL, N=200, t_end=2.0,
                       sample_times=(0.0, 0.5, 1.0), seed=23,
                       initial_female=rng0.normal(0, 0.5, 200),
                       initial_male=rng0.normal(0, 0.5, 200))
    a, b = simulate(params), simulate(params)
    assert a.n_events > 1000
    assert (a.n_events, a.n_proposals, a.births_female, a.births_male, a.deaths,
            a.final_n_female, a.final_n_male) == \
        (b.n_events, b.n_proposals, b.births_female, b.births_male, b.deaths,
         b.final_n_female, b.final_n_male)
    for sa, sb in zip(a.snapshots, b.snapshots, strict=True):
        assert sa.male.weights.tobytes() == sb.male.weights.tobytes()
        assert sa.female.weights.tobytes() == sb.female.weights.tobytes()


def test_competition_above_its_grid_bound_raises():
    # U_ff spikes at trait distance 1/16, which no pair of the grid points
    # (spaced 1/8 apart) reaches; the two females are that far apart
    spiky = RateSet(p_f=1.0, p_m=1.0, D_f=0.1, D_m=0.1,
                    U_ff=lambda x, z: 0.2 + 10.0 * (abs(abs(x - z) - 0.0625) < 1e-3),
                    U_fm=0.25, U_mf=0.25, U_mm=0.25)
    params = IbmParams(grid=_SMALL, rates=spiky, kernel=KERNEL, N=1,
                       t_end=50.0, sample_times=(), seed=1,
                       initial_female=np.array([0.0, 0.0, 0.0, 0.0625, 0.0625, 0.0625]),
                       initial_male=np.array([0.0]))
    with pytest.raises(ValueError, match=r"U_ff = 10\.2 at traits \((0\.0625, 0\.0|0\.0, 0\.0625)\)"
                                         r" lies outside \[0, 0\.21"):
        simulate(params)


def test_other_sex_competitor_comes_from_the_other_sex():
    # U_fm and U_mf vanish between equal traits and are 1 between the sexes,
    # so every death here is from a competitor of the other sex; no law case
    # has an other-sex kernel that depends on the competitor's trait
    zero = lambda x: 0.0 * x
    apart = lambda x, z: np.abs(x - z)
    rates = RateSet(p_f=zero, p_m=zero, D_f=1e-9, D_m=1e-9, U_ff=1e-9, U_fm=apart,
                    U_mf=apart, U_mm=1e-9)
    for seed in range(3):
        traj = simulate(IbmParams(grid=_SMALL, rates=rates, kernel=KERNEL, N=1, t_end=20.0,
                                  sample_times=(), seed=seed, initial_female=np.zeros(2),
                                  initial_male=np.ones(2)))
        assert traj.deaths >= 2 and min(traj.final_n_female, traj.final_n_male) == 0


class _PairCells:
    """Deterministic inheritance: 3 x_mother + x_father, held in [-2.5, 2.5].

    Each (mother, father) pair of the law population has its child in a
    unit cell of its own, at -2.5, -1.5, -0.5, 0.5, 1.5 or 2.5.
    """

    def sample_offspring(self, x_mother, x_father, rng):
        return min(max(3.0 * x_mother + x_father, -2.5), 2.5)


def test_negative_newborn_capability_raises_through_simulate():
    # the pair (0.5, 0) has a child at 1.5, where p_f(1.5) = p_m(1.5) = -0.5;
    # deaths are rare, so every path reaches that birth first
    rates = RateSet(p_f=lambda x: 1.0 - x, p_m=lambda y: 1.0 - y, D_f=1e-3, D_m=1e-3,
                    U_ff=2.5e-4, U_fm=2.5e-4, U_mf=2.5e-4, U_mm=2.5e-4)
    params = IbmParams(grid=GRID, rates=rates, kernel=_PairCells(), N=1, t_end=50.0,
                       sample_times=(), seed=2, initial_female=np.array([0.5]),
                       initial_male=np.array([0.0]))
    with pytest.raises(ValueError, match=r"p_[fm] must be non-negative, got -0\.5 at trait 1\.5"):
        simulate(params)


# p̄_m stays 1 after the male at 0, its holder, dies fast (D_m = 50 there);
# the males left at 2 have p_m = 3e-70, so a rejection-only pick of the
# father would take about 1e70 tries
LONE_BOUND = RateSet(p_f=1.0, p_m=lambda y: np.exp(-40.0 * y**2), D_f=1e-3,
                     D_m=lambda y: 1e-3 + 50.0 * np.exp(-40.0 * y**2),
                     U_ff=1e-3, U_fm=1e-3, U_mf=1e-3, U_mm=1e-3)


def _timeout(signum, frame):
    raise TimeoutError("simulate did not return")


def test_capability_pick_returns_after_its_bound_holder_dies():
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(10)
    try:
        for seed in range(10):
            traj = simulate(IbmParams(grid=GRID, rates=LONE_BOUND, kernel=KERNEL, N=1,
                                      t_end=2.0, sample_times=(2.0,), seed=seed,
                                      initial_female=np.array([0.0]),
                                      initial_male=np.array([0.0, 2.0, 2.0])))
            assert traj.births - traj.deaths == traj.final_n_female + traj.final_n_male - 4
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_capability_pick_fallback_is_proportional():
    # p̄ = 1, as after the holder of that capability died: each rejection try
    # accepts with probability below 1e-69, so every pick ends in the fallback
    rates = RateSet(p_f=1.0, p_m=lambda y: 1e-70 * (1.0 + (y > 0.0)), D_f=1.0, D_m=1.0,
                    U_ff=0.25, U_fm=0.25, U_mf=0.25, U_mm=0.25)
    males = ibm._SexState(rates, "m", "f", np.array([-1.0, -0.5, 1.0]), GRID)
    males.pbar = 1.0
    random = BufferedRng(3).random
    counts = np.bincount([ibm._pick_capable(males, random) for _ in range(4000)], minlength=3)
    assert stats.chisquare(counts, [1000.0, 1000.0, 2000.0]).pvalue > 1e-3


LAW_RUNS = 4000
UNEQUAL_CALLABLE = RateSet(**{name: (lambda *t, v=getattr(UNEQUAL, name): v + 0.0 * sum(t))
                              for name in ("p_f", "p_m", "D_f", "D_m",
                                           "U_ff", "U_fm", "U_mf", "U_mm")})
# the female rates are all constant, so the female class keeps no rate
# caches and draws no acceptance uniforms, while the male class is thinned
MALE_CALLABLE = RateSet(p_f=1.1, p_m=lambda y: np.exp(y), D_f=0.5,
                        D_m=lambda y: 0.2 + 2.0 * y**2, U_ff=0.3, U_fm=0.2,
                        U_mf=lambda y, z: 0.1 + 0.1 * np.abs(y) + 0.0 * z,
                        U_mm=lambda y, z: 0.25 + 0.1 * (y - z) ** 2)
# (rates, grid, N). Every parent and every first child has a unit cell of
# its own within its sex. On the wide grid the criterion-9 bound on U_ff
# is 8.6 times its largest value on the population, and N = 1 weighs
# competition up, so a wrong competitor pick moves the law.
LAW_CASES = {
    "criterion-9": (CRITERION_9, TraitGrid(-40.0, 40.0, 80), 1),
    "steep-capability": (STEEP, TraitGrid(-6.0, 6.0, 12), LAW_N),
    "unequal-callable": (UNEQUAL_CALLABLE, TraitGrid(-6.0, 6.0, 12), LAW_N),
    "male-callable": (MALE_CALLABLE, TraitGrid(-6.0, 6.0, 12), LAW_N),
}


def _states_at_horizon(engine, case: str, seeds) -> list:
    rates, grid, n_scale = LAW_CASES[case]
    tau = 1.0 / sum(_one_step_law(rates, LAW_FEMALES, LAW_MALES, n_scale).values())
    out = []
    for seed in seeds:
        traj = engine(IbmParams(grid=grid, rates=rates, kernel=_PairCells(), N=n_scale,
                                t_end=tau, sample_times=(tau,), seed=seed,
                                initial_female=np.array(LAW_FEMALES),
                                initial_male=np.array(LAW_MALES)))
        snap = traj.snapshots[-1]
        out.append((snap.female.weights.tobytes(), snap.male.weights.tobytes()))
    return out


def _two_sample_pvalue(a: list, b: list) -> float:
    """Chi-square homogeneity of two equal-size categorical samples, with the
    categories of expected count below 5 pooled into one."""
    counts = Counter(a), Counter(b)
    keys = sorted(counts[0].keys() | counts[1].keys())
    table = np.array([[c[k] for k in keys] for c in counts], dtype=float)
    rare = table.sum(axis=0) / 2 < 5
    table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    return stats.chi2_contingency(table).pvalue


@pytest.mark.parametrize("case", list(LAW_CASES))
def test_thinned_engine_matches_direct_engine_in_law(case):
    # the state at a horizon of about one expected jump, from the law
    # population; disjoint seeds keep the two samples independent
    thinned = _states_at_horizon(simulate, case, range(LAW_RUNS))
    direct = _states_at_horizon(reference.run, case, range(LAW_RUNS, 2 * LAW_RUNS))
    assert _two_sample_pvalue(thinned, direct) > 1e-3
