"""Exact stochastic simulation of the finite two-sex population.

Continuous-time jump process over discrete individuals: every individual
initiates mating at its capability rate and picks an opposite-sex
partner with probability proportional to the partner's capability; each
birth is male or female with a fair coin; individuals die naturally and
through pairwise competition rescaled by the population scale N.

`simulate` runs one loop for every rate set at O(1) per candidate jump,
with one `_SexState` of local state per sex and a single mating, birth and
death block for both: deaths with trait-dependent rates are thinned, and a
constant rate is its own bound. The tests hold it to Gillespie's direct
method written from the model's definition (`tests/ibm_reference.py`):
with constant rates the two draw the same variates in the same order and
evaluate the same float expressions, so a seeded run gives a bit-identical
trajectory on either; for other rates the two have the same law, not the
same draws. `simulate` binds the offspring draw once per run, and it draws
what `sample_offspring` draws.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain

import numpy as np

from .kernels import InheritanceKernel
from .measures import GridMeasure, TraitGrid, measure_from_samples
from .stepping import sample_index
from .totals import RateSet

__all__ = ["BufferedRng", "IbmParams", "IbmSnapshot", "IbmTrajectory", "simulate",
           "simulate_all"]

# Draws per refill of each BufferedRng stream.
_BATCH = 8192
# Relative widening of a callable competition kernel's maximum over the grid
# points, which covers its values between them; a value beyond it raises.
_U_MARGIN = 0.05
# Failed rejection tries of a capability pick before it picks exactly.
_PICK_TRIES = 64
# Kernel evaluations per row block when bounding it over the grid square.
_BOUND_BLOCK = 1 << 16


class BufferedRng:
    """Scalar draws served from refilled numpy batches.

    Mirrors the Generator methods the kernels use, so it can stand in for
    numpy Generator wherever single variates are consumed in a tight loop.
    The uniform, standard normal and standard exponential streams each
    iterate `array("d")` batches of `_BATCH` draws as plain floats, with no
    numpy scalar boxed per draw; `random`, `standard_normal` and
    `standard_exponential` are the streams' own `__next__`. The first
    batches are drawn here, in that order, each later one from the shared
    generator when its stream runs out, so a fixed seed fixes every draw.
    """

    def __init__(self, seed: int):
        gen = np.random.default_rng(seed)
        uni, nrm, exp = (_stream(draw) for draw in
                         (gen.random, gen.standard_normal, gen.standard_exponential))
        self.random = uni.__next__
        self.standard_normal = nrm.__next__
        self.standard_exponential = exp.__next__

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        return loc + scale * self.standard_normal()

    def exponential(self, scale: float = 1.0) -> float:
        return scale * self.standard_exponential()

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * self.random()


def _stream(draw) -> chain:
    """Batches of `draw(_BATCH)` as one iterator of floats; the first batch
    is drawn now, each later one when the one before runs out."""
    batches = iter(lambda: array("d", draw(_BATCH).tobytes()), None)
    return chain.from_iterable(chain((next(batches),), batches))


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
        if not 0 < self.t_end < np.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        st = np.asarray(self.sample_times, dtype=float)
        if not np.all(np.isfinite(st)):
            raise ValueError("sample_times must be finite")
        if np.any(np.diff(st) < 0):
            raise ValueError("sample_times must be sorted")
        if st.size and (st[0] < 0 or st[-1] > self.t_end):
            raise ValueError("sample_times must lie within [0, t_end]")
        for name in ("initial_female", "initial_male"):
            traits = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(traits)):
                raise ValueError(f"{name} contains non-finite traits")
            if traits.size and (traits.min() < self.grid.x_min or traits.max() > self.grid.x_max):
                raise ValueError(f"{name} contains traits outside the grid")
            object.__setattr__(self, name, traits)


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
    n_proposals: int  # candidate jumps drawn; above n_events only when a death is rejected
    extinction_time: float | None
    seed: int
    final_n_female: int  # class sizes at t_end, whatever the sample times
    final_n_male: int
    cache_error: float  # see `_cache_error`; reported, never written to an artifact

    @property
    def births(self) -> int:
        return self.births_female + self.births_male

    @property
    def n_events(self) -> int:
        return self.births + self.deaths

    def measures_at(self, t: float) -> tuple[GridMeasure, GridMeasure]:
        """(male, female) empirical measures at sample time t."""
        snap = self.snapshots[sample_index([s.time for s in self.snapshots], t)]
        return snap.male, snap.female


def simulate(params: IbmParams) -> IbmTrajectory:
    """Run one realization, sampling empirical measures at the given times.

    Deterministic for a fixed seed. If the population dies out the
    remaining snapshots are empty and the extinction time is recorded;
    a population with zero total rate but surviving members simply stops
    changing.

    Each sex is one `_SexState`, and one code path serves both: a mating
    has an initiator sex `a` and a partner sex `b`, a birth the newborn's
    sex `s`, a death the dying sex `s` and the other sex `o`. Matings arrive
    at the exact capability sums, kept incrementally, so none is rejected;
    the initiator and then the partner are each picked in proportion to
    capability (`_pick_capable`), or uniformly if no member of the sex has
    positive capability. Deaths
    are thinned (Fournier & Méléard 2004): those of sex s arrive at the
    bound n_s (D̄_s + (Ū_ss n_s + Ū_so n_o) / N), where D̄_s is the running
    maximum of the cached death rates and Ū the bound of `_competition`,
    computed once per rate set and grid in a process, and the place of the
    category uniform within it picks the kind:

    - a natural death, at rate n_s D̄_s: a uniform member of s is accepted
      with D_s(x)/D̄_s;
    - a death from competition with sex s, at rate n_s n_s Ū_ss / N: a
      uniform victim and a uniform competitor, self included, accepted
      with U_ss(x, z)/Ū_ss; likewise against sex o at rate n_s n_o Ū_so / N.

    A rejected candidate advances the clock and changes nothing else. A
    constant rate is its own bound: it keeps no cache and draws no
    acceptance uniform. With constant rates each jump therefore draws, in
    the order of Gillespie's direct method, the waiting time, the category
    uniform, the two actor uniforms (initiator first), the offspring
    variates and the sex uniform, or on a death the victim uniform. The
    offspring draw is bound once per run
    (`InheritanceKernel._offspring_sampler`) and makes the draws of
    `sample_offspring` in its order, so this order holds.

    Deaths are counted where they happen, not derived from the class sizes,
    so births - deaths = the change in size checks the loop; `cache_error`
    audits the caches once, at the end of the run (`_cache_error`).
    """
    if len(params.initial_female) + len(params.initial_male) == 0:
        raise ValueError("initial population must be nonempty")
    N, t_end, grid = params.N, params.t_end, params.grid
    x_min, x_max = grid.x_min, grid.x_max
    rng = BufferedRng(params.seed)
    random, standard_exponential = rng.random, rng.standard_exponential
    bind = getattr(type(params.kernel), "_offspring_sampler", InheritanceKernel._offspring_sampler)
    offspring = bind(params.kernel, rng)  # a duck-typed kernel takes the base binding
    F = _SexState(params.rates, "f", "m", params.initial_female, grid)
    M = _SexState(params.rates, "m", "f", params.initial_male, grid)
    Uff, Ufm, Umm, Umf = F.Ubar_same, F.Ubar_other, M.Ubar_same, M.Ubar_other

    pending = iter(np.asarray(params.sample_times, dtype=float).tolist())
    next_due = next(pending, np.inf)
    snapshots: list[IbmSnapshot] = []

    def take_snapshots(up_to: float) -> None:
        nonlocal next_due
        while next_due <= up_to + 1e-12:
            snapshots.append(IbmSnapshot(next_due, measure_from_samples(grid, M.traits, 1.0 / N),
                                         measure_from_samples(grid, F.traits, 1.0 / N), M.n, F.n))
            next_due = next(pending, np.inf)

    t = 0.0
    rejected = clamped = deaths = 0
    extinction_time = None
    while True:
        nf, nm = F.n, M.n
        mating = F.sum_p + M.sum_p if nf and nm else 0.0
        death_f = nf * (F.Dbar + (Uff * nf + Ufm * nm) / N)
        death_m = nm * (M.Dbar + (Umm * nm + Umf * nf) / N)
        total = mating + (death_f + death_m)
        if total <= 0.0:
            if nf + nm == 0:
                extinction_time = t
            break
        t_next = t + (1.0 / total) * standard_exponential()
        if t_next >= t_end:
            break
        if next_due <= (t_next - 1e-15) + 1e-12:
            take_snapshots(t_next - 1e-15)
        t = t_next
        u = random() * total
        if u < mating:
            a, b = (F, M) if u < F.sum_p else (M, F)
            i = _pick_capable(a, random) if a.pos else int(random() * a.n)
            j = _pick_capable(b, random) if b.pos else int(random() * b.n)
            mother, father = (i, j) if a is F else (j, i)
            child = offspring(F.traits[mother], M.traits[father])
            if not x_min <= child <= x_max:
                child = min(max(child, x_min), x_max)
                clamped += 1
            s = F if random() < 0.5 else M
            s.traits.append(child)
            s.n += 1
            s.births += 1
            if s.p is None:
                s.sum_p += s.pbar
            else:
                p = s.new_p(child)
                s.p.append(p)
                s.sum_p += p
                s.pos += p > 0.0
                s.pbar = max(s.pbar, p)
            if s.D is not None:
                d = s.new_D(child)
                s.D.append(d)
                s.Dbar = max(s.Dbar, d)
        else:
            v = u - mating
            if v < death_f:
                s, o = F, M
            else:
                s, o, v = M, F, v - death_f
            n = s.n
            victim = int(random() * n)
            if s.thin:
                if v < n * s.Dbar:
                    reject = s.D is not None and random() * s.Dbar >= s.D[victim]
                elif v < n * (s.Dbar + s.Ubar_same * n / N):
                    reject = s.U_same is not None and random() * s.Ubar_same >= \
                        s.U_same(s.traits[victim], s.traits[int(random() * n)])
                else:
                    reject = s.U_other is not None and random() * s.Ubar_other >= \
                        s.U_other(s.traits[victim], o.traits[int(random() * o.n)])
                if reject:
                    rejected += 1
                    continue
                if s.D is not None:
                    s.D[victim] = s.D[-1]
                    s.D.pop()
            if s.p is None:
                s.sum_p -= s.pbar
            else:
                p = s.p[victim]
                s.sum_p -= p
                s.pos -= p > 0.0
                s.p[victim] = s.p[-1]
                s.p.pop()
            s.traits[victim] = s.traits[-1]
            s.traits.pop()
            s.n = n - 1
            deaths += 1
    take_snapshots(t_end)
    births = F.births + M.births
    return IbmTrajectory(
        snapshots=tuple(snapshots),
        births_female=F.births,
        births_male=M.births,
        deaths=deaths,
        clamped_births=clamped,
        n_proposals=births + deaths + rejected,
        extinction_time=extinction_time,
        seed=params.seed,
        final_n_female=F.n,
        final_n_male=M.n,
        cache_error=max(_cache_error(params.rates, "f", F), _cache_error(params.rates, "m", M)),
    )


def simulate_all(params, jobs: int = 1) -> list[IbmTrajectory]:
    """`simulate` over a sequence of runs, in order; jobs > 1 spreads them
    over min(jobs, len(params)) worker processes, with the same results."""
    jobs = min(jobs, len(params))
    if jobs <= 1:
        return [simulate(p) for p in params]
    import concurrent.futures  # only a pool needs it
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(simulate, params))


class _SexState:
    """One sex's state in `simulate`, sex `s` against the other sex `o`:
    traits, the capability and death caches with their bounds and newborn
    evaluators (`_trait_rate`), the capability sum, the count of positive
    capabilities, the competition suffered from sex s and from sex o
    (`_competition`) and the births."""

    __slots__ = ("traits", "n", "p", "pbar", "new_p", "sum_p", "pos", "D", "Dbar", "new_D",
                 "Ubar_same", "U_same", "Ubar_other", "U_other", "thin", "births")

    def __init__(self, rates: RateSet, s: str, o: str, traits: np.ndarray, grid: TraitGrid):
        self.traits = array("d", traits.tobytes())
        self.n = len(self.traits)
        self.p, self.pbar, self.new_p = _trait_rate(rates, f"p_{s}", traits)
        self.D, self.Dbar, self.new_D = _trait_rate(rates, f"D_{s}", traits)
        self.Ubar_same, self.U_same = _competition(rates, f"U_{s}{s}", grid)
        self.Ubar_other, self.U_other = _competition(rates, f"U_{s}{o}", grid)
        self.sum_p = self.pbar * self.n if self.p is None else sum(self.p)
        self.pos = 0 if self.p is None else sum(1 for v in self.p if v > 0.0)
        self.thin = self.D is not None or self.U_same is not None or self.U_other is not None
        self.births = 0


def _pick_capable(s: _SexState, random) -> int:
    """Index of a member of `s` drawn in proportion to its capability, for a
    sex with a positive capability: uniform candidates accepted with p/p̄.
    p̄ is a running maximum that does not fall when its holder dies, so
    rejection can take about n p̄ / sum p tries; after `_PICK_TRIES`
    failures the pick is exact, from cumulative sums and one uniform. Both
    branches draw in proportion to capability, so the law is exact.
    """
    p, pbar, n = s.p, s.pbar, s.n
    i = int(random() * n)
    tries = _PICK_TRIES
    while random() * pbar >= p[i]:
        tries -= 1
        if not tries:
            cum = list(accumulate(p))
            return min(bisect_right(cum, random() * cum[-1]), n - 1)
        i = int(random() * n)
    return i


def _cache_error(rates: RateSet, s: str, state: _SexState) -> float:
    """Largest error of sex s's caches against a recomputation at its traits:
    the capability sum against an exact sum, and each cached capability and
    death rate against its rate; relative with a unit floor, so float residue
    in a small or empty sum does not dominate."""
    traits = np.array(state.traits)
    p = rates.at(f"p_{s}", traits)
    pairs = [(state.sum_p, math.fsum(p.tolist())), (state.p, p),
             (state.D, rates.at(f"D_{s}", traits))]
    return max(float(np.max(np.abs(np.subtract(cache, exact)) / np.maximum(np.abs(exact), 1.0),
                            initial=0.0))
               for cache, exact in pairs if cache is not None)


def _trait_rate(rates: RateSet, name: str, traits: np.ndarray):
    """Capability or death rate `name` on local state: (cache, bound, newborn).

    A constant gives (None, the constant, None): it is its own bound and
    needs no cache. A callable gives its values at `traits` in an
    `array("d")`, their maximum, which the loop raises as newborns arrive,
    and a scalar evaluator for one newborn with the checks of `RateSet.at`.
    """
    entry = getattr(rates, name)
    if not callable(entry):
        return None, float(entry), None
    cache = array("d", rates.at(name, traits).tobytes())

    def newborn(x: float) -> float:
        v = float(entry(x))
        if not 0.0 <= v < np.inf:
            need = "finite" if v == np.inf else "non-negative"
            raise ValueError(f"{name} must be {need}, got {v} at trait {x}")
        return v
    return cache, max(cache, default=0.0), newborn


@lru_cache(maxsize=64)
def _competition(rates: RateSet, name: str, grid: TraitGrid):
    """Competition kernel `name` on local state: (bound, value).

    A constant gives (the constant, None): it is its own bound. A callable
    is evaluated through `RateSet.at` at every pair of grid centres and
    edges, in row blocks so that no (2n+1)^2 matrix is held, and its
    maximum is widened by `_U_MARGIN` for the values between those points;
    `value` is its scalar evaluator, which refuses any value outside
    [0, bound]. It is computed once per rate set, name and grid in a
    process (a callable entry hashes by identity) and reused by later runs,
    so every draw is unchanged; a raise is not cached, and should a
    callable's values change between runs, `value` still refuses any above
    the cached bound.
    """
    entry = getattr(rates, name)
    if not callable(entry):
        return float(entry), None
    pts = np.concatenate([grid.centers, grid.edges])
    rows = max(1, _BOUND_BLOCK // len(pts))
    top = 0.0
    for lo in range(0, len(pts), rows):
        top = max(top, float(rates.at(name, pts[lo:lo + rows, None], pts[None, :]).max()))
    bound = top * (1.0 + _U_MARGIN)

    def value(x: float, z: float) -> float:
        v = float(entry(x, z))
        if not 0.0 <= v <= bound:
            raise ValueError(f"{name} = {v} at traits ({x}, {z}) lies outside [0, {bound}], "
                             f"the bound taken from the grid points with margin {_U_MARGIN}")
        return v
    return bound, value
