"""Gillespie's direct method (J. Phys. Chem. 81, 1977) for the two-sex model,
written from its definition: the reference `dimorph.ibm.simulate` is
tested against. No test is collected from here.

Every jump recomputes each member's rates. Female x initiates mating at
p_f(x) and picks a male y in proportion to p_m(y), and the other way
round; the newborn's sex is a fair coin. A female at x dies at D_f(x) +
(1/N)(sum over females z, x included, of U_ff(x, z) + sum over males w of
U_fm(x, w)), and a male likewise. With constant rates the members of a
sex share their rates: the totals take the closed forms
n_s (D_s + (U_ss n_s + U_so n_o) / N), the capability sums are kept
incrementally from p_s n_s and a pick is int(u n). Those are `simulate`'s
float expressions and draws, so a seeded run agrees with it bit for bit.
"""

import math
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

from dimorph.ibm import BufferedRng, IbmSnapshot, IbmTrajectory
from dimorph.measures import measure_from_samples


def _at(entry, *traits) -> float:
    return float(entry(*traits)) if callable(entry) else float(entry)


def start(params) -> tuple[dict, dict | None]:
    """The traits of each sex, and under constant rates its capability sum."""
    pop = {"f": params.initial_female.tolist(), "m": params.initial_male.tolist()}
    return pop, ({s: float(getattr(params.rates, f"p_{s}")) * len(pop[s]) for s in pop}
                 if params.rates.is_constant else None)


def sex_rates(params, state, s: str) -> tuple:
    """(capabilities, death rates, initiation total, death total) of sex s;
    under constant rates the first two are the one value all members share."""
    (pop, sum_p), rates, o = state, params.rates, "m" if s == "f" else "f"
    own, other = pop[s], pop[o]
    p, D = getattr(rates, f"p_{s}"), getattr(rates, f"D_{s}")
    Uss, Uso = getattr(rates, f"U_{s}{s}"), getattr(rates, f"U_{s}{o}")
    if sum_p is not None:
        d = float(D) + (float(Uss) * len(own) + float(Uso) * len(other)) / params.N
        return float(p), d, sum_p[s], len(own) * d
    p = [_at(p, x) for x in own]
    d = [_at(D, x) + (sum(_at(Uss, x, z) for z in own) + sum(_at(Uso, x, w) for w in other))
         / params.N for x in own]
    return p, d, math.fsum(p), math.fsum(d)


def _pick(weights, n: int, rng) -> int:
    """A member drawn with one uniform in proportion to weights, or uniformly
    when they are one shared value or all zero."""
    u = rng.random()
    cum = None if isinstance(weights, float) else list(accumulate(weights))
    if cum is None or cum[-1] <= 0.0:
        return int(u * n)
    return min(bisect_right(cum, u * cum[-1]), n - 1)


def jump(params, state, rng):
    """The next jump from state: None if the total rate is zero, else
    (waiting time, event). Calling event() makes the jump and returns
    ("birth", mother's trait, father's trait, sex, clamped) or
    ("death", sex, trait)."""
    (pop, sum_p), grid = state, params.grid
    r = {s: sex_rates(params, state, s) for s in pop}
    mating = r["f"][2] + r["m"][2] if pop["f"] and pop["m"] else 0.0
    total = mating + (r["f"][3] + r["m"][3])
    if total <= 0.0:
        return None

    def event():
        u = rng.random() * total
        if u < mating:
            a, b = ("f", "m") if u < r["f"][2] else ("m", "f")
            i, j = _pick(r[a][0], len(pop[a]), rng), _pick(r[b][0], len(pop[b]), rng)
            mother, father = pop["f"][i if a == "f" else j], pop["m"][j if a == "f" else i]
            child = params.kernel.sample_offspring(mother, father, rng)
            s = "f" if rng.random() < 0.5 else "m"
            pop[s].append(min(max(child, grid.x_min), grid.x_max))
            if sum_p is not None:
                sum_p[s] += r[s][0]
            return "birth", mother, father, s, not grid.x_min <= child <= grid.x_max
        s = "f" if u - mating < r["f"][3] else "m"
        k = _pick(r[s][1], len(pop[s]), rng)
        if sum_p is not None:
            sum_p[s] -= r[s][0]
        trait = pop[s][k]
        pop[s][k] = pop[s][-1]
        pop[s].pop()
        return "death", s, trait
    return (1.0 / total) * rng.standard_exponential(), event


def run(params) -> IbmTrajectory:
    """One realization over [0, t_end], reported as `simulate` reports it."""
    state = start(params)
    pop, grid, N = state[0], params.grid, params.N
    rng, pending = BufferedRng(params.seed), list(params.sample_times)
    snapshots, counts = [], Counter()

    def take_snapshots(up_to: float) -> None:
        while pending and pending[0] <= up_to + 1e-12:
            snapshots.append(IbmSnapshot(float(pending.pop(0)),
                                         measure_from_samples(grid, pop["m"], 1.0 / N),
                                         measure_from_samples(grid, pop["f"], 1.0 / N),
                                         len(pop["m"]), len(pop["f"])))

    t, extinction_time = 0.0, None
    while (nxt := jump(params, state, rng)) is not None:
        wait, event = nxt
        if t + wait >= params.t_end:
            break
        take_snapshots(t + wait - 1e-15)
        t += wait
        kind, *rest = event()
        counts[rest[2] if kind == "birth" else kind] += 1
        counts["clamped"] += kind == "birth" and rest[3]
    else:
        extinction_time = None if pop["f"] or pop["m"] else t
    take_snapshots(params.t_end)
    births, deaths = counts["f"] + counts["m"], counts["death"]
    return IbmTrajectory(tuple(snapshots), counts["f"], counts["m"], deaths, counts["clamped"],
                         births + deaths, extinction_time, params.seed, len(pop["f"]),
                         len(pop["m"]), cache_error=0.0)
