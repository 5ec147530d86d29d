from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from dimorph import config, ibm
from dimorph.errors import ExtinctPopulation
from dimorph.ibm import (BufferedRng, IbmParams, DeathEvent, MatingEvent,
                         ScaledPopulation, Sex, event_rates, simulate, step)
from dimorph.kernels import (AdditiveNoiseKernel, GaussianNoise,
                             MultiplicativeNoiseKernel, UniformNoise)
from dimorph.measures import TraitGrid
from dimorph.totals import RateSet

GRID = TraitGrid(-6.0, 6.0, 192)
KERNEL = AdditiveNoiseKernel(GaussianNoise(0.5))
PERSIST = RateSet.constant(p_f=2.0, p_m=2.0, D_f=1.0, D_m=1.0, U=0.25)


def _zero_u(x, y):
    return 0.0 * (x + y)


def test_event_rates_one_pair_unit_rates():
    # one female and one male, p = 1, D = 1, no competition, N = 1:
    # two mating initiations plus two unit deaths
    rates = RateSet(p_f=1.0, p_m=1.0, D_f=1.0, D_m=1.0,
                    U_ff=_zero_u, U_fm=_zero_u, U_mf=_zero_u, U_mm=_zero_u)
    pop = ScaledPopulation(np.array([0.0]), np.array([0.5]), 1, rates, GRID)
    s = event_rates(pop)
    assert s.mating_total == pytest.approx(2.0)
    assert s.death_total == pytest.approx(2.0)
    assert s.total == pytest.approx(4.0)


def test_event_rates_single_sex_no_mating():
    pop = ScaledPopulation(np.array([0.0, 1.0]), np.array([]), 1, PERSIST, GRID)
    s = event_rates(pop)
    assert s.mating_total == 0.0
    assert s.death_total > 0.0


def test_event_rates_competition_includes_self():
    # two males, U = u everywhere, no natural death or male mating:
    # each male dies at rate 2u (self term included), total 4u
    u = 0.3
    rates = RateSet(p_f=1.0, p_m=0.0, D_f=lambda x: 0.0 * x, D_m=lambda x: 0.0 * x,
                    U_ff=lambda x, y: u + 0 * (x + y), U_fm=lambda x, y: u + 0 * (x + y),
                    U_mf=lambda x, y: u + 0 * (x + y), U_mm=lambda x, y: u + 0 * (x + y))
    pop = ScaledPopulation(np.array([]), np.array([0.0, 1.0]), 1, rates, GRID)
    s = event_rates(pop)
    assert s.death_male == pytest.approx(4.0 * u)
    assert s.mating_total == 0.0


def test_negative_trait_rate_rejected():
    # p_f(x) = x is negative for the female at -2, D_m(x) = 0.5 - x for a male at 1
    rates = RateSet(p_f=lambda x: x, p_m=1.0, D_f=1.0, D_m=lambda x: 0.5 - x,
                    U_ff=0.25, U_fm=0.25, U_mf=0.25, U_mm=0.25)
    with pytest.raises(ValueError, match=r"p_f must be non-negative, got -2\.0 at trait -2\.0"):
        ScaledPopulation(np.array([-2.0, 1.0]), np.array([0.0]), 1, rates, GRID)
    pop = ScaledPopulation(np.array([1.0]), np.array([0.0]), 1, rates, GRID)
    with pytest.raises(ValueError, match="p_f must be non-negative"):
        pop.add(-0.5, Sex.FEMALE)
    with pytest.raises(ValueError, match="D_m must be non-negative"):
        pop.add(1.0, Sex.MALE)
    assert pop.size == 2 and pop.births_female == pop.births_male == 0


def test_negative_competition_kernel_rejected():
    # U_ff(x, y) = 0.25 - 0.5|x - y| gives the females at -2, 0, 2 the loads
    # -2, -1, -2; a newborn 3 units from the resident female is rejected too
    rates = RateSet(p_f=1.0, p_m=1.0, D_f=1.0, D_m=1.0,
                    U_ff=lambda x, y: 0.25 - 0.5 * np.abs(x - y), U_fm=0.25,
                    U_mf=0.25, U_mm=0.25)
    with pytest.raises(ValueError, match=r"U_ff must be non-negative, got -0\.75 at traits \(-2\.0, 0\.0\)"):
        ScaledPopulation(np.array([-2.0, 0.0, 2.0]), np.array([0.0]), 1, rates, GRID)
    pop = ScaledPopulation(np.array([0.0]), np.array([0.0]), 1, rates, GRID)
    before = pop.cached_values()
    with pytest.raises(ValueError, match="U_ff must be non-negative"):
        pop.add(3.0, Sex.FEMALE)
    assert pop.size == 2 and pop.births_female == 0 and pop.cached_values() == before
    # a kernel that ignores its second trait does not give one value per pair
    flat = RateSet(p_f=1.0, p_m=1.0, D_f=1.0, D_m=1.0, U_ff=0.25, U_fm=0.25,
                   U_mf=lambda y, z: 0.1 + 0.1 * np.abs(y), U_mm=0.25)
    with pytest.raises(ValueError, match="U_mf must map its traits"):
        ScaledPopulation(np.array([0.0, 1.0]), np.array([0.0]), 1, flat, GRID)


def test_step_single_male_death_only():
    rates = RateSet.constant(p_f=5.0, p_m=5.0, D_f=1.0, D_m=1.0, U=0.25)
    pop = ScaledPopulation(np.array([]), np.array([0.3]), 1, rates, GRID)
    rng = BufferedRng(0)
    dt, event = step(pop, KERNEL, rng)
    assert isinstance(event, DeathEvent)
    assert pop.size == 0
    with pytest.raises(ExtinctPopulation):
        step(pop, KERNEL, rng)


def test_events_change_count_by_one():
    rng0 = np.random.default_rng(5)
    pop = ScaledPopulation(rng0.normal(0, 0.5, 40), rng0.normal(0, 0.5, 40),
                           80, PERSIST, GRID)
    rng = BufferedRng(5)
    for _ in range(500):
        before = pop.size
        _dt, event = step(pop, KERNEL, rng)
        if isinstance(event, MatingEvent):
            assert pop.size == before + 1
        else:
            assert pop.size == before - 1
    assert (pop.births_female + pop.births_male) - pop.deaths == pop.size - 80


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
    # frozen-size probe: fresh two-individual populations, first waiting time
    rates = RateSet(p_f=1.5, p_m=1.5, D_f=lambda x: 0.0 * x, D_m=lambda x: 0.0 * x,
                    U_ff=_zero_u, U_fm=_zero_u, U_mf=_zero_u, U_mm=_zero_u)
    rng = BufferedRng(13)
    waits = []
    for _ in range(1000):
        pop = ScaledPopulation(np.array([0.0]), np.array([0.0]), 1, rates, GRID)
        dt, _event = step(pop, KERNEL, rng)
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
    pop = ScaledPopulation(rng0.normal(0, 0.5, 100), rng0.normal(0, 0.5, 100),
                           200, PERSIST, GRID)
    rng = BufferedRng(31)
    for _ in range(2000):
        step(pop, KERNEL, rng)
    assert pop.cache_consistency() < 1e-9

    trait_rates = RateSet(p_f=lambda x: 2.0 + 0.1 * np.sin(x), p_m=2.0,
                          D_f=1.0, D_m=lambda x: 1.0 + 0.02 * x * x,
                          U_ff=lambda x, y: 0.2 + 0.01 * np.abs(x - y),
                          U_fm=0.25, U_mf=0.25, U_mm=0.25)
    popg = ScaledPopulation(rng0.normal(0, 0.5, 60), rng0.normal(0, 0.5, 60),
                            120, trait_rates, GRID)
    rngg = BufferedRng(32)
    for _ in range(2000):
        step(popg, KERNEL, rngg)
    assert popg.cache_consistency() < 1e-9


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
    pop = ScaledPopulation(np.array([0.0, 0.1]), np.array([0.2]), 4, PERSIST, GRID)
    male, female = pop.empirical_measures()
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
            for sex in Sex:
                law[("birth", x, y, sex)] = 0.5 * pair
    for x in females:
        law[("death", Sex.FEMALE, x)] = _val(rates.D_f, x) + (
            sum(_val(rates.U_ff, x, z) for z in females)
            + sum(_val(rates.U_fm, x, z) for z in males)) / n_scale
    for y in males:
        law[("death", Sex.MALE, y)] = _val(rates.D_m, y) + (
            sum(_val(rates.U_mm, y, z) for z in males)
            + sum(_val(rates.U_mf, y, z) for z in females)) / n_scale
    return law


def _cell(event) -> tuple:
    if isinstance(event, MatingEvent):
        return ("birth", event.mother_trait, event.father_trait, event.child_sex)
    return ("death", event.sex, event.trait)


@pytest.mark.parametrize("rates", [UNEQUAL, CRITERION_9, STEEP],
                         ids=["unequal-constant", "criterion-9", "steep-capability"])
def test_one_step_law_matches_generator(rates):
    # 2 * 3 * 2 birth cells plus 5 death cells; each draw is one step() of
    # a fresh copy of the same population
    law = _one_step_law(rates, LAW_FEMALES, LAW_MALES, LAW_N)
    total = sum(law.values())
    cells = {key: k for k, key in enumerate(law)}
    counts = np.zeros(len(law))
    waits = np.empty(LAW_DRAWS)
    females, males = np.array(LAW_FEMALES), np.array(LAW_MALES)
    rng = BufferedRng(2024)
    for k in range(LAW_DRAWS):
        pop = ScaledPopulation(females, males, LAW_N, rates, GRID)
        waits[k], event = step(pop, KERNEL, rng)
        counts[cells[_cell(event)]] += 1
    expected = LAW_DRAWS * np.array(list(law.values())) / total
    assert expected.min() > 100
    assert stats.chisquare(counts, expected).pvalue > 1e-3
    assert stats.kstest(waits, "expon", args=(0.0, 1.0 / total)).pvalue > 1e-3


# -- the constant-rate loop against the direct engine ---------------------------

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
    # sums drift from p * n, and both engines must drift alike; the run dies
    # out, so the extinction time pins every waiting time to the last bit
    "unequal-rates": lambda: _case(
        RateSet(p_f=0.3, p_m=2.1, D_f=1.3, D_m=1.7, U_ff=0.1, U_fm=0.3, U_mf=0.2, U_mm=0.15),
        150, 120, 150, 50.0, (0.7, 2.0, 50.0)),
}


@pytest.mark.parametrize("case", list(PINNED_CASES))
def test_constant_loop_matches_direct_engine(case):
    trajs = []
    for params in PINNED_CASES[case]():
        assert params.rates.is_constant
        fast, ref = simulate(params), ibm._simulate_direct(params)
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
