"""Scenario sampling: facility capacity factors, demand, export bans.

Sequence within one scenario: supplier capacity factors (strain times
Bernoulli disruption), plant capacity factors, demand (normal, clamped at
zero), then export-ban flags. Bans can only fire when the average supplier
availability fraction falls below the instance's ban threshold; allies get a
second Bernoulli chance when the general flag comes up banned. Retained
exports and the induced unit-price bump are computed last.

Sampled scenarios are one `Scenarios` record of (n, .) stacks in the
instance's orders, which are the solver's: suppliers, plant candidates and
countries. Their export flags are one (n x countries x 2) array: column 0
gates general exports, column 1 the c1/ally channel, which follows the ally
flag inside the ally group and the general flag elsewhere. `scenarios[w]`
is row w as a `Scenario`, and a slice is a sub-stack, both views.

Streams: one root seed; each scenario draws from its own counter-derived
substream so batches are reproducible regardless of evaluation order or
parallelism. Ban flags are drawn after everything else, which keeps
capacity/demand draws identical across risk-override arms (common random
numbers).

Draw layout: a batch draws each scenario's numbers with three generator
calls on its substream, in the order above (`batch_draws`): 2F uniforms,
the strain and then the up uniform of each of the F suppliers and plants;
K normal demands; and K + A uniforms, one per country for its general flag
and then the A ally uniforms, which the allies whose general flag comes up
banned read in ally-group order. None of them depends on a risk override,
so a batch's `Draws` (availability, demand, the average supplier
availability and the flag uniforms, as (n, .) stacks) serve every override,
and `sample_batch` applies one override's threshold, export probabilities
and ally rule to the whole stack. A caller may keep a draws table, (seed,
n) -> `Draws`, so that batches of one seed under several overrides draw
once: `saa.SaaMemo` keeps one per instance for the export-ban study's arms.
Drawing flag uniforms that no flag reads shifts no later number, since
each scenario has its own substream, so a batch is bit for bit the one
drawn scenario by scenario. A batch's stacks alias its draws, which a draws
table shares among overrides, so they are only ever read.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .instance import Instance
from .stats import ordered_sum, ordered_total

PRICE_LINK_TOL = 1e-12  # |price_increase - beta*retained| tolerance in validation


@dataclass(frozen=True)
class RiskOverrides:
    """Optional perturbations of the ban mechanism at sampling time."""

    force_export_prob_one: bool = False   # optimize-as-if-no-bans runs
    export_prob_scale: float | None = None
    ban_threshold: float | None = None
    alliances_off: bool = False           # ally flags track the general flags


@dataclass(frozen=True, eq=False)
class Scenario:
    """One scenario as arrays in the instance's orders: a row of `Scenarios`."""

    supplier_avail: np.ndarray  # (suppliers,) capacity fraction in [0, 1]
    plant_avail: np.ndarray     # (plant candidates,) capacity fraction in [0, 1]
    demand: np.ndarray          # (countries,) units, >= 0
    flags: np.ndarray           # (countries, 2) int8: general, c1/ally channel; 1 = open
    retained_exports: float     # units kept home by the bans
    price_increase: float       # money/unit bump applied to the escalated shortage tranche
    probability: float = 1.0


@dataclass(frozen=True, eq=False)
class Scenarios:
    """n scenarios as (n, .) stacks of `Scenario`'s fields, each scenario
    with probability `probability`. `scenarios[w]` is row w as a `Scenario`,
    `scenarios[a:b]` the rows a to b; both are views. Iterating yields the
    rows."""

    supplier_avail: np.ndarray    # (n, suppliers)
    plant_avail: np.ndarray       # (n, plant candidates)
    demand: np.ndarray            # (n, countries)
    flags: np.ndarray             # (n, countries, 2) int8
    retained_exports: np.ndarray  # (n,)
    price_increase: np.ndarray    # (n,)
    probability: float = 1.0

    def __len__(self) -> int:
        return len(self.demand)

    def __getitem__(self, w):
        rows = [getattr(self, f.name)[w] for f in fields(self)[:-1]]
        if isinstance(w, slice):
            return Scenarios(*rows, probability=self.probability)
        *arrays, kept, bump = rows
        return Scenario(*arrays, float(kept), float(bump), self.probability)


def validate_scenario(instance: Instance, scen: Scenario) -> None:
    """Assert the documented scenario invariants; used by tests."""
    ally_group = set(instance.ally_group)
    for k, (general, channel) in zip(instance.countries, scen.flags.tolist()):
        if k not in ally_group and channel != general:
            raise ValueError(f"c1-channel flag for {k!r} must equal its general flag")
        if k in ally_group and general == 1 and channel != 1:
            raise ValueError(f"ally flag for {k!r} must be 1 when the general flag is 1")
    if scen.retained_exports < 0:
        raise ValueError("retained_exports negative")
    expected = price_increase(instance, scen.retained_exports)
    if abs(scen.price_increase - expected) > PRICE_LINK_TOL * max(1.0, abs(expected)):
        raise ValueError("price_increase inconsistent with beta * retained_exports")
    avg = ordered_total(scen.supplier_avail.tolist()) / len(instance.suppliers)
    if avg >= instance.ban_threshold and (scen.flags != 1).any():
        raise ValueError("ban flags present although average availability met the threshold")


def retained_by_country(instance: Instance, flags: np.ndarray) -> np.ndarray:
    """Export volume each country keeps home, in the layout of `flags`:
    (countries x 2), or (n x countries x 2) for n scenarios."""
    return instance.exports * (1.0 - flags)


def retained_exports(instance: Instance, flags: np.ndarray) -> float:
    """Total exogenous export volume kept inside banning countries."""
    return float(ordered_sum(retained_by_country(instance, flags).ravel()))


def price_increase(instance: Instance, retained: float | np.ndarray):
    """Linear unit-price bump induced by the retained export volume: one
    scenario's, or an (n,) stack's row by row."""
    if np.any(np.less(retained, 0)):
        raise ValueError("retained volume must be nonnegative")
    return instance.beta * retained


def _effective_export_prob(instance: Instance, overrides: RiskOverrides) -> list:
    """Each country's probability of keeping exports open, in country order."""
    prob = [instance.export_prob[k] for k in instance.countries]
    if overrides.force_export_prob_one:
        return [1.0] * len(prob)
    if overrides.export_prob_scale is not None:
        return [min(1.0, max(0.0, p * overrides.export_prob_scale)) for p in prob]
    return prob


@dataclass(frozen=True, eq=False)
class Draws:
    """What n scenarios draw before any risk override applies, as (n, .)
    stacks in the instance's orders."""

    supplier_avail: np.ndarray  # (n, suppliers)
    plant_avail: np.ndarray     # (n, plant candidates)
    demand: np.ndarray          # (n, countries), clamped at zero
    average_avail: np.ndarray   # (n,) mean supplier availability, added in supplier order
    uniforms: np.ndarray        # (n, countries + ally group): ban, then ally uniforms


def batch_draws(instance: Instance, seed, n: int) -> Draws:
    """The override-free numbers of scenarios 0..n-1 of a root seed, each on
    its own substream in the order of a scenario's draws: the strain and up
    uniforms per supplier and per plant, the normal demands, then the ban
    uniforms and the ally uniforms, which the flags consume in order."""
    mean = np.array([instance.demand_mean[k] for k in instance.countries], dtype=float)
    sd = np.array([instance.demand_sd[k] for k in instance.countries], dtype=float)
    facility = np.empty((n, 2 * (len(instance.suppliers) + len(instance.plant_candidates))))
    normal = np.empty((n, len(mean)))
    uniforms = np.empty((n, len(mean) + len(instance.ally_group)))
    for w in range(n):
        rng = scenario_rng(seed, w)
        rng.random(out=facility[w])
        normal[w] = rng.normal(mean, sd)
        rng.random(out=uniforms[w])

    pmfs = [instance.supplier_strain_pmf[i] for i in instance.suppliers]
    pmfs += [instance.plant_strain_pmf[j] for j in instance.plant_candidates]
    up_prob = [instance.supplier_avail_prob[i] for i in instance.suppliers]
    up_prob += [instance.plant_avail_prob[j] for j in instance.plant_candidates]
    # a facility's strain is the first level whose running probability
    # exceeds its uniform, else the last; a padded column of inf and copies
    # of the last level make that the count of running sums <= u
    width = 1 + max(len(pmf.levels) for pmf in pmfs)
    running = np.full((len(pmfs), width), np.inf)
    levels = np.empty((len(pmfs), width))
    for f, pmf in enumerate(pmfs):
        acc = 0.0
        for l, p in enumerate(pmf.probs):
            acc += p
            running[f, l] = acc
        levels[f] = pmf.levels + pmf.levels[-1:] * (width - len(pmf.levels))
    picked = (facility[:, 0::2, None] >= running).sum(axis=2)
    strain = levels[np.arange(len(pmfs)), picked]
    avail = strain * (facility[:, 1::2] < np.array(up_prob, dtype=float))
    supplier_avail = avail[:, : len(instance.suppliers)]
    return Draws(
        supplier_avail=supplier_avail,
        plant_avail=avail[:, len(instance.suppliers) :],
        demand=np.where(normal > 0.0, normal, 0.0),
        average_avail=ordered_sum(supplier_avail, axis=1) / len(instance.suppliers),
        uniforms=uniforms,
    )


def _scenarios(
    instance: Instance, draws: Draws, overrides: RiskOverrides, probability: float
) -> Scenarios:
    """The scenarios of the draws under one override: a general flag sets
    both columns, and a banned ally then draws its channel."""
    K = len(instance.countries)
    threshold = overrides.ban_threshold
    fires = draws.average_avail < (instance.ban_threshold if threshold is None else threshold)
    prob = np.array(_effective_export_prob(instance, overrides), dtype=float)
    general = (draws.uniforms[:, :K] < prob) | ~fires[:, None]
    flags = np.repeat(general[:, :, None], 2, axis=2).astype(np.int8)
    if not overrides.alliances_off:
        ally = [instance.countries.index(k) for k in instance.ally_group]
        banned = ~general[:, ally]
        # the j-th banned ally of a scenario reads its j-th ally uniform
        order = np.maximum(np.cumsum(banned, axis=1) - 1, 0)
        ally_u = np.take_along_axis(draws.uniforms[:, K:], order, axis=1)
        ally_prob = np.array([instance.ally_export_prob[k] for k in instance.ally_group])
        flags[:, ally, 1] = ~banned | (ally_u < ally_prob)
    retained = ordered_sum(retained_by_country(instance, flags).reshape(len(flags), -1), axis=1)
    return Scenarios(
        supplier_avail=draws.supplier_avail,
        plant_avail=draws.plant_avail,
        demand=draws.demand,
        flags=flags,
        retained_exports=retained,
        price_increase=price_increase(instance, retained),
        probability=probability,
    )


def _seed_parts(seed) -> tuple[int, ...]:
    if isinstance(seed, int):
        return (seed,)
    return tuple(int(s) for s in seed)


def scenario_rng(seed, *key: int) -> np.random.Generator:
    """Generator for one counter-addressed substream of a root seed."""
    parts = _seed_parts(seed)
    return np.random.default_rng(
        np.random.SeedSequence(parts[0], spawn_key=tuple(parts[1:]) + tuple(key))
    )


def sample_batch(
    instance: Instance,
    seed,
    n: int,
    overrides: RiskOverrides | None = None,
    draws: dict | None = None,
) -> Scenarios:
    """n independent scenarios with probability 1/n each, deterministic in seed.

    draws, when given, is a draws table of this instance: (seed, n) ->
    `batch_draws`, read instead of drawing again and filled on a miss.
    """
    if n < 1:
        raise ValueError("need at least one scenario")
    if draws is None:
        stack = batch_draws(instance, seed, n)
    else:
        key = (_seed_parts(seed), n)
        if key not in draws:
            draws[key] = batch_draws(instance, seed, n)
        stack = draws[key]
    return _scenarios(instance, stack, overrides or RiskOverrides(), 1.0 / n)
