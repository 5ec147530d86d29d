"""Exact stochastic simulation of the finite two-sex population.

Continuous-time jump process over discrete individuals: every individual
initiates mating at its capability rate and picks an opposite-sex
partner with probability proportional to the partner's capability; each
birth is male or female with a fair coin; individuals die naturally and
through pairwise competition rescaled by the population scale N.

`simulate` runs constant rates through a specialised loop on local state
only: the rates as floats, one `array("d")` of traits per sex with
swap-remove and the incremental capability sum of each sex, with no
per-event objects or method dispatch. Every other rate set runs the direct engine
(`_simulate_direct`): a `ScaledPopulation` with vectorized categorical
sampling and incrementally maintained per-individual competition loads,
advanced by the same event code as `step`. The direct engine also accepts
constant rates and is the reference for the specialised loop: both draw
the same variates in the same order and evaluate the same float
expressions, so a seeded run gives a bit-identical trajectory on either.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ExtinctPopulation
from .kernels import InheritanceKernel
from .measures import GridMeasure, TraitGrid, measure_from_samples
from .totals import RateSet

__all__ = [
    "Sex",
    "BufferedRng",
    "IbmParams",
    "ScaledPopulation",
    "RateSummary",
    "MatingEvent",
    "DeathEvent",
    "IbmSnapshot",
    "IbmTrajectory",
    "event_rates",
    "step",
    "simulate",
]

# Draws per refill of each BufferedRng stream.
_BATCH = 8192


class Sex(enum.Enum):
    FEMALE = "female"
    MALE = "male"


class BufferedRng:
    """Scalar draws served from refilled numpy batches.

    Mirrors the Generator methods the kernels use, so it can stand in for
    numpy Generator wherever single variates are consumed in a tight loop.
    Batches are copied into `array("d")` buffers, whose items index as
    plain floats: no numpy scalar is boxed per draw, and a batch keeps the
    8 bytes per double of the numpy array. Fully deterministic for a fixed
    seed.
    """

    def __init__(self, seed: int):
        self._gen = np.random.default_rng(seed)
        self._uni = self._refill(self._gen.random)
        self._nrm = self._refill(self._gen.standard_normal)
        self._exp = self._refill(self._gen.standard_exponential)
        self._iu = 0
        self._in = 0
        self._ie = 0

    def _refill(self, draw) -> array:
        return array("d", draw(_BATCH).tobytes())

    def random(self) -> float:
        i = self._iu
        if i == _BATCH:
            self._uni = self._refill(self._gen.random)
            i = 0
        self._iu = i + 1
        return self._uni[i]

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        i = self._in
        if i == _BATCH:
            self._nrm = self._refill(self._gen.standard_normal)
            i = 0
        self._in = i + 1
        return loc + scale * self._nrm[i]

    def exponential(self, scale: float = 1.0) -> float:
        i = self._ie
        if i == _BATCH:
            self._exp = self._refill(self._gen.standard_exponential)
            i = 0
        self._ie = i + 1
        return scale * self._exp[i]

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * self.random()


@dataclass(frozen=True)
class IbmParams:
    """Scale, horizon and ingredients of one stochastic run."""

    grid: TraitGrid
    rates: RateSet
    kernel: InheritanceKernel
    N: int
    t_end: float
    sample_times: tuple[float, ...]
    seed: int
    initial_female: np.ndarray
    initial_male: np.ndarray

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        st = np.asarray(self.sample_times, dtype=float)
        if np.any(np.diff(st) < 0):
            raise ValueError("sample_times must be sorted")
        if st.size and (st[0] < 0 or st[-1] > self.t_end):
            raise ValueError("sample_times must lie within [0, t_end]")
        for name in ("initial_female", "initial_male"):
            traits = np.asarray(getattr(self, name), dtype=float)
            if traits.size and (traits.min() < self.grid.x_min or traits.max() > self.grid.x_max):
                raise ValueError(f"{name} contains traits outside the grid")
            object.__setattr__(self, name, traits)


@dataclass(frozen=True)
class RateSummary:
    """Aggregate jump rates of the current population."""

    female_initiation: float
    male_initiation: float
    death_female: float
    death_male: float

    @property
    def mating_total(self) -> float:
        return self.female_initiation + self.male_initiation

    @property
    def death_total(self) -> float:
        return self.death_female + self.death_male

    @property
    def total(self) -> float:
        return self.mating_total + self.death_total


@dataclass(frozen=True)
class MatingEvent:
    mother_trait: float
    father_trait: float
    child_trait: float
    child_sex: Sex
    clamped: bool


@dataclass(frozen=True)
class DeathEvent:
    sex: Sex
    trait: float


class _SexClass:
    """Struct-of-arrays store with swap-remove and incremental caches."""

    __slots__ = ("traits", "n", "p", "d", "load", "sum_p", "sum_d", "sum_load")

    def __init__(self, traits: np.ndarray, capacity: int):
        self.n = len(traits)
        cap = max(capacity, 2 * self.n, 64)
        self.traits = np.zeros(cap)
        self.traits[: self.n] = traits
        self.p = np.zeros(cap)
        self.d = np.zeros(cap)
        self.load = np.zeros(cap)
        self.sum_p = 0.0
        self.sum_d = 0.0
        self.sum_load = 0.0

    def active(self, arr: np.ndarray) -> np.ndarray:
        return arr[: self.n]

    def grow_if_full(self) -> None:
        if self.n == len(self.traits):
            for name in ("traits", "p", "d", "load"):
                old = getattr(self, name)
                new = np.zeros(2 * len(old))
                new[: self.n] = old
                setattr(self, name, new)


class ScaledPopulation:
    """Explicit population of (trait, sex) individuals at scale N.

    The empirical measure assigns mass 1/N to every individual. Mating
    capability sums and per-individual competition loads are maintained
    incrementally after every event; recompute_caches() rebuilds them
    from scratch for consistency checks.
    """

    def __init__(self, females: np.ndarray, males: np.ndarray, N: int,
                 rates: RateSet, grid: TraitGrid):
        self.N = int(N)
        self.grid = grid
        self.rates = rates
        self.constant_rates = rates.is_constant
        females = np.asarray(females, dtype=float)
        males = np.asarray(males, dtype=float)
        self.f = _SexClass(females, 2 * len(females))
        self.m = _SexClass(males, 2 * len(males))
        self.births_female = 0
        self.births_male = 0
        self.deaths = 0
        self.clamped_births = 0
        if self.constant_rates:
            self.f.sum_p = rates.p_f * self.f.n
            self.m.sum_p = rates.p_m * self.m.n
        else:
            self._init_general()

    # -- generic helpers ----------------------------------------------------

    def _sex_class(self, sex: Sex) -> _SexClass:
        return self.f if sex is Sex.FEMALE else self.m

    @property
    def size(self) -> int:
        return self.f.n + self.m.n

    def empirical_measures(self) -> tuple[GridMeasure, GridMeasure]:
        """(male, female) empirical measures, one atom of mass 1/N each."""
        male = measure_from_samples(self.grid, self.m.active(self.m.traits), 1.0 / self.N)
        female = measure_from_samples(self.grid, self.f.active(self.f.traits), 1.0 / self.N)
        return male, female

    # -- trait-dependent machinery -------------------------------------------

    def _init_general(self) -> None:
        r = self.rates
        for cls, p_name, d_name in ((self.f, "p_f", "D_f"), (self.m, "p_m", "D_m")):
            t = cls.active(cls.traits)
            cls.p[: cls.n] = r.at(p_name, t)
            cls.d[: cls.n] = r.at(d_name, t)
        self.f.load[: self.f.n], self.m.load[: self.m.n] = self._loads()
        for cls in (self.f, self.m):
            cls.sum_p = float(cls.active(cls.p).sum())
            cls.sum_d = float(cls.active(cls.d).sum())
            cls.sum_load = float(cls.active(cls.load).sum())

    def _loads(self) -> tuple[np.ndarray, np.ndarray]:
        """(female, male) loads (1/N) sum_j U(x_i, w_j) over the whole
        population, self included."""
        u = self.rates.at
        tf = self.f.active(self.f.traits)[:, None]
        tm = self.m.active(self.m.traits)[:, None]
        return ((u("U_ff", tf, tf.T).sum(axis=1) + u("U_fm", tf, tm.T).sum(axis=1)) / self.N,
                (u("U_mm", tm, tm.T).sum(axis=1) + u("U_mf", tm, tf.T).sum(axis=1)) / self.N)

    # -- event application ----------------------------------------------------

    def add(self, trait: float, sex: Sex) -> None:
        cls = self._sex_class(sex)
        cls.grow_if_full()
        r = self.rates
        if self.constant_rates:
            cls.traits[cls.n] = trait
            cls.n += 1
            cls.sum_p += r.p_f if sex is Sex.FEMALE else r.p_m
        else:
            tf = self.f.active(self.f.traits)
            tm = self.m.active(self.m.traits)
            # U_ab is what a sex-a individual suffers from a sex-b one
            s, o, same, other = ("f", "m", tf, tm) if sex is Sex.FEMALE else ("m", "f", tm, tf)
            u = r.at
            own = (u(f"U_{s}{s}", trait, same).sum() + u(f"U_{s}{s}", trait, trait)
                   + u(f"U_{s}{o}", trait, other).sum()) / self.N
            inc_f = u(f"U_f{s}", tf, trait) / self.N
            inc_m = u(f"U_m{s}", tm, trait) / self.N
            p_new = float(r.at(f"p_{s}", np.array([trait]))[0])
            d_new = float(r.at(f"D_{s}", np.array([trait]))[0])
            self.f.load[: self.f.n] += inc_f
            self.f.sum_load += float(inc_f.sum())
            self.m.load[: self.m.n] += inc_m
            self.m.sum_load += float(inc_m.sum())
            cls.traits[cls.n] = trait
            cls.p[cls.n] = p_new
            cls.d[cls.n] = d_new
            cls.load[cls.n] = own
            cls.n += 1
            cls.sum_p += p_new
            cls.sum_d += d_new
            cls.sum_load += own
        if sex is Sex.FEMALE:
            self.births_female += 1
        else:
            self.births_male += 1

    def remove(self, sex: Sex, index: int) -> float:
        cls = self._sex_class(sex)
        if not 0 <= index < cls.n:
            raise IndexError(f"no {sex.value} individual at index {index}")
        trait = float(cls.traits[index])
        self.deaths += 1
        if self.constant_rates:
            cls.traits[index] = cls.traits[cls.n - 1]
            cls.n -= 1
            cls.sum_p -= self.rates.p_f if sex is Sex.FEMALE else self.rates.p_m
            return trait
        cls.sum_p -= float(cls.p[index])
        cls.sum_d -= float(cls.d[index])
        cls.sum_load -= float(cls.load[index])
        for name in ("traits", "p", "d", "load"):
            arr = getattr(cls, name)
            arr[index] = arr[cls.n - 1]
        cls.n -= 1
        tf = self.f.active(self.f.traits)
        tm = self.m.active(self.m.traits)
        s = "f" if sex is Sex.FEMALE else "m"
        # every pair here was checked, in this argument order, when the
        # population was built or when one of the two was born
        dec_f = self.rates._evaluate(f"U_f{s}", tf, trait) / self.N
        dec_m = self.rates._evaluate(f"U_m{s}", tm, trait) / self.N
        self.f.load[: self.f.n] -= dec_f
        self.f.sum_load -= float(dec_f.sum())
        self.m.load[: self.m.n] -= dec_m
        self.m.sum_load -= float(dec_m.sum())
        return trait

    # -- cache auditing --------------------------------------------------------

    def recompute_caches(self) -> dict[str, float]:
        """Exact cache values rebuilt from the raw population state."""
        r = self.rates
        if self.constant_rates:
            return {
                "sum_p_female": r.p_f * self.f.n,
                "sum_p_male": r.p_m * self.m.n,
                "sum_load_female": (r.U_ff * self.f.n + r.U_fm * self.m.n) * self.f.n / self.N,
                "sum_load_male": (r.U_mm * self.m.n + r.U_mf * self.f.n) * self.m.n / self.N,
            }
        lf, lm = self._loads()
        return {
            "sum_p_female": float(r.at("p_f", self.f.active(self.f.traits)).sum()),
            "sum_p_male": float(r.at("p_m", self.m.active(self.m.traits)).sum()),
            "sum_load_female": float(lf.sum()),
            "sum_load_male": float(lm.sum()),
        }

    def cached_values(self) -> dict[str, float]:
        if self.constant_rates:
            r = self.rates
            return {
                "sum_p_female": self.f.sum_p,
                "sum_p_male": self.m.sum_p,
                "sum_load_female": (r.U_ff * self.f.n + r.U_fm * self.m.n) * self.f.n / self.N,
                "sum_load_male": (r.U_mm * self.m.n + r.U_mf * self.f.n) * self.m.n / self.N,
            }
        return {
            "sum_p_female": self.f.sum_p,
            "sum_p_male": self.m.sum_p,
            "sum_load_female": self.f.sum_load,
            "sum_load_male": self.m.sum_load,
        }

    def cache_consistency(self) -> float:
        """Largest cache error against a full recomputation, relative with a
        unit floor so empty-class float residue does not dominate."""
        exact = self.recompute_caches()
        cached = self.cached_values()
        worst = 0.0
        for key, val in exact.items():
            scale = max(abs(val), 1.0)
            worst = max(worst, abs(cached[key] - val) / scale)
        return worst

    # -- aggregate rates --------------------------------------------------------

    def death_totals(self) -> tuple[float, float]:
        """(female, male) total death rates including competition.

        An empty class reports exactly zero even when incremental float
        residue lingers in its sums.
        """
        r = self.rates
        if self.constant_rates:
            load_f = (r.U_ff * self.f.n + r.U_fm * self.m.n) / self.N
            load_m = (r.U_mm * self.m.n + r.U_mf * self.f.n) / self.N
            return self.f.n * (r.D_f + load_f), self.m.n * (r.D_m + load_m)
        death_f = (self.f.sum_d + self.f.sum_load) if self.f.n else 0.0
        death_m = (self.m.sum_d + self.m.sum_load) if self.m.n else 0.0
        return max(death_f, 0.0), max(death_m, 0.0)


def event_rates(pop: ScaledPopulation) -> RateSummary:
    """Aggregate jump rates; mating requires both sexes to be present."""
    both = pop.f.n > 0 and pop.m.n > 0
    death_f, death_m = pop.death_totals()
    return RateSummary(
        female_initiation=pop.f.sum_p if both else 0.0,
        male_initiation=pop.m.sum_p if both else 0.0,
        death_female=death_f,
        death_male=death_m,
    )


def _pick_weighted(cls: _SexClass, weights: np.ndarray, rng) -> int:
    cum = np.cumsum(weights[: cls.n])
    return min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")), cls.n - 1)


def _pick_by_capability(pop: ScaledPopulation, sex: Sex, rng) -> int:
    cls = pop._sex_class(sex)
    if pop.constant_rates:
        return int(rng.random() * cls.n)
    return _pick_weighted(cls, cls.p, rng)


def _pick_victim(pop: ScaledPopulation, sex: Sex, rng) -> int:
    cls = pop._sex_class(sex)
    if pop.constant_rates:
        return int(rng.random() * cls.n)
    return _pick_weighted(cls, cls.d[: cls.n] + cls.load[: cls.n], rng)


def _apply_event(pop: ScaledPopulation, summary: RateSummary,
                 kernel: InheritanceKernel, rng) -> MatingEvent | DeathEvent:
    """Draw the event category and actors, mutate the population."""
    u = rng.random() * summary.total
    if u < summary.mating_total:
        if u < summary.female_initiation:
            mother = _pick_by_capability(pop, Sex.FEMALE, rng)
            father = _pick_by_capability(pop, Sex.MALE, rng)
        else:
            father = _pick_by_capability(pop, Sex.MALE, rng)
            mother = _pick_by_capability(pop, Sex.FEMALE, rng)
        x_mother = float(pop.f.traits[mother])
        x_father = float(pop.m.traits[father])
        child = kernel.sample_offspring(x_mother, x_father, rng)
        clamped = False
        if child < pop.grid.x_min:
            child, clamped = pop.grid.x_min, True
        elif child > pop.grid.x_max:
            child, clamped = pop.grid.x_max, True
        if clamped:
            pop.clamped_births += 1
        sex = Sex.FEMALE if rng.random() < 0.5 else Sex.MALE
        pop.add(child, sex)
        return MatingEvent(x_mother, x_father, child, sex, clamped)
    u -= summary.mating_total
    sex = Sex.FEMALE if u < summary.death_female else Sex.MALE
    victim = _pick_victim(pop, sex, rng)
    trait = pop.remove(sex, victim)
    return DeathEvent(sex, trait)


def step(pop: ScaledPopulation, kernel: InheritanceKernel, rng):
    """Advance the population by one jump; returns (waiting time, event).

    Raises ExtinctPopulation when the total rate is zero.
    """
    summary = event_rates(pop)
    if summary.total <= 0.0:
        raise ExtinctPopulation("total event rate is zero")
    dt = rng.exponential(1.0 / summary.total)
    return dt, _apply_event(pop, summary, kernel, rng)


@dataclass(frozen=True)
class IbmSnapshot:
    time: float
    male: GridMeasure
    female: GridMeasure
    n_male: int
    n_female: int


@dataclass(frozen=True)
class IbmTrajectory:
    """Snapshots plus run accounting for one stochastic realization."""

    snapshots: tuple[IbmSnapshot, ...]
    births_female: int
    births_male: int
    deaths: int
    clamped_births: int
    n_events: int
    extinction_time: float | None
    seed: int
    final_n_female: int  # class sizes at t_end, whatever the sample times
    final_n_male: int

    @property
    def births(self) -> int:
        return self.births_female + self.births_male

    def measures_at(self, t: float) -> tuple[GridMeasure, GridMeasure]:
        """(male, female) empirical measures at sample time t."""
        for snap in self.snapshots:
            if abs(snap.time - t) <= 1e-9 + 1e-9 * abs(t):
                return snap.male, snap.female
        raise KeyError(f"no snapshot at t = {t}")


def simulate(params: IbmParams) -> IbmTrajectory:
    """Run one realization, sampling empirical measures at the given times.

    Deterministic for a fixed seed. If the population dies out the
    remaining snapshots are empty and the extinction time is recorded;
    a population with zero total rate but surviving members simply stops
    changing. Constant rates take the specialised loop, which gives the
    same trajectory as the direct engine.
    """
    if len(params.initial_female) + len(params.initial_male) == 0:
        raise ValueError("initial population must be nonempty")
    if params.rates.is_constant:
        return _simulate_constant(params)
    return _simulate_direct(params)


def _simulate_direct(params: IbmParams) -> IbmTrajectory:
    """The direct engine: any rate set, one `_apply_event` per jump."""
    pop = ScaledPopulation(params.initial_female, params.initial_male,
                           params.N, params.rates, params.grid)
    rng = BufferedRng(params.seed)
    sample_times = np.asarray(params.sample_times, dtype=float)
    snapshots: list[IbmSnapshot] = []
    next_sample = 0

    def take_snapshots(up_to: float) -> None:
        nonlocal next_sample
        while next_sample < len(sample_times) and sample_times[next_sample] <= up_to + 1e-12:
            male, female = pop.empirical_measures()
            snapshots.append(IbmSnapshot(float(sample_times[next_sample]),
                                         male, female, pop.m.n, pop.f.n))
            next_sample += 1

    t = 0.0
    n_events = 0
    extinction_time = None
    while True:
        summary = event_rates(pop)
        total = summary.total
        if total <= 0.0:
            if pop.size == 0:
                extinction_time = t
            break
        dt = rng.exponential(1.0 / total)
        t_next = t + dt
        if t_next >= params.t_end:
            break
        take_snapshots(t_next - 1e-15)
        _apply_event(pop, summary, params.kernel, rng)
        t = t_next
        n_events += 1
    take_snapshots(params.t_end)
    return IbmTrajectory(
        snapshots=tuple(snapshots),
        births_female=pop.births_female,
        births_male=pop.births_male,
        deaths=pop.deaths,
        clamped_births=pop.clamped_births,
        n_events=n_events,
        extinction_time=extinction_time,
        seed=params.seed,
        final_n_female=pop.f.n,
        final_n_male=pop.m.n,
    )


def _simulate_constant(params: IbmParams) -> IbmTrajectory:
    """The direct engine's jump chain for constant rates, on local state.

    With constant rates every pick within a sex is uniform and the death
    totals are closed forms in the class sizes. Each jump draws, in the
    direct engine's order: the waiting time, the category uniform, the two
    actor uniforms (initiator first), the offspring variates and the sex
    uniform, or on a death the victim uniform. The rate sums are the same
    float expressions, the capability sums are updated incrementally as in
    `ScaledPopulation`, and the trait buffers swap-remove like its arrays,
    so the trajectory is bit-identical to `_simulate_direct`.
    """
    r = params.rates
    p_f, p_m, D_f, D_m = float(r.p_f), float(r.p_m), float(r.D_f), float(r.D_m)
    U_ff, U_fm, U_mf, U_mm = float(r.U_ff), float(r.U_fm), float(r.U_mf), float(r.U_mm)
    N, t_end, grid = params.N, params.t_end, params.grid
    x_min, x_max = grid.x_min, grid.x_max
    rng = BufferedRng(params.seed)
    random, exponential = rng.random, rng.exponential
    sample_offspring = params.kernel.sample_offspring
    females = array("d", params.initial_female.tobytes())
    males = array("d", params.initial_male.tobytes())
    nf, nm = len(females), len(males)
    sum_pf, sum_pm = p_f * nf, p_m * nm

    pending = iter(np.asarray(params.sample_times, dtype=float).tolist())
    next_due = next(pending, np.inf)
    snapshots: list[IbmSnapshot] = []

    def take_snapshots(up_to: float) -> None:
        nonlocal next_due
        while next_due <= up_to + 1e-12:
            snapshots.append(IbmSnapshot(next_due, measure_from_samples(grid, males, 1.0 / N),
                                         measure_from_samples(grid, females, 1.0 / N), nm, nf))
            next_due = next(pending, np.inf)

    t = 0.0
    n_events = births_f = births_m = deaths = clamped = 0
    extinction_time = None
    while True:
        mating = sum_pf + sum_pm if nf and nm else 0.0
        death_f = nf * (D_f + (U_ff * nf + U_fm * nm) / N)
        death_m = nm * (D_m + (U_mm * nm + U_mf * nf) / N)
        total = mating + (death_f + death_m)
        if total <= 0.0:
            if nf + nm == 0:
                extinction_time = t
            break
        t_next = t + exponential(1.0 / total)
        if t_next >= t_end:
            break
        if next_due <= (t_next - 1e-15) + 1e-12:
            take_snapshots(t_next - 1e-15)
        u = random() * total
        if u < mating:
            if u < sum_pf:
                mother = int(random() * nf)
                father = int(random() * nm)
            else:
                father = int(random() * nm)
                mother = int(random() * nf)
            child = sample_offspring(females[mother], males[father], rng)
            if child < x_min:
                child = x_min
                clamped += 1
            elif child > x_max:
                child = x_max
                clamped += 1
            if random() < 0.5:
                females.append(child)
                nf += 1
                sum_pf += p_f
                births_f += 1
            else:
                males.append(child)
                nm += 1
                sum_pm += p_m
                births_m += 1
        else:
            if u - mating < death_f:
                victim = int(random() * nf)
                females[victim] = females[-1]
                females.pop()
                nf -= 1
                sum_pf -= p_f
            else:
                victim = int(random() * nm)
                males[victim] = males[-1]
                males.pop()
                nm -= 1
                sum_pm -= p_m
            deaths += 1
        t = t_next
        n_events += 1
    take_snapshots(t_end)
    return IbmTrajectory(
        snapshots=tuple(snapshots),
        births_female=births_f,
        births_male=births_m,
        deaths=deaths,
        clamped_births=clamped,
        n_events=n_events,
        extinction_time=extinction_time,
        seed=params.seed,
        final_n_female=nf,
        final_n_male=nm,
    )
