"""Scenario sampling: facility capacity factors, demand, export bans.

Sequence within one scenario: supplier capacity factors (strain times
Bernoulli disruption), plant capacity factors, demand (normal, clamped at
zero), then export-ban flags. Bans can only fire when the average supplier
availability fraction falls below the instance's ban threshold; allies get a
second Bernoulli chance when the general flag comes up banned. Retained
exports and the induced unit-price bump are computed last.

A scenario is arrays in the instance's orders, which are the solver's:
suppliers, plant candidates and countries. Its export flags are one
(countries x 2) array: column 0 gates general exports, column 1 the c1/ally
channel, which follows the ally flag inside the ally group and the general
flag elsewhere.

Streams: one root seed; each scenario draws from its own counter-derived
substream so batches are reproducible regardless of evaluation order or
parallelism. Ban flags are drawn after everything else, which keeps
capacity/demand draws identical across risk-override arms (common random
numbers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance
from .stats import ordered_sum

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
    """One sampled scenario as arrays in the instance's orders."""

    supplier_avail: np.ndarray  # (suppliers,) capacity fraction in [0, 1]
    plant_avail: np.ndarray     # (plant candidates,) capacity fraction in [0, 1]
    demand: np.ndarray          # (countries,) units, >= 0
    flags: np.ndarray           # (countries, 2) int8: general, c1/ally channel; 1 = open
    retained_exports: float     # units kept home by the bans
    price_increase: float       # money/unit bump applied to the escalated shortage tranche
    probability: float = 1.0


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
    avg = sum(scen.supplier_avail.tolist()) / len(instance.suppliers)
    if avg >= instance.ban_threshold and (scen.flags != 1).any():
        raise ValueError("ban flags present although average availability met the threshold")


def retained_by_country(instance: Instance, flags: np.ndarray) -> np.ndarray:
    """Export volume each country keeps home, in the layout of `flags`:
    (countries x 2), or (n x countries x 2) for n scenarios."""
    exports = np.array(
        [(instance.exports_general[k], instance.exports_to_c1[k]) for k in instance.countries]
    )
    return exports * (1.0 - flags)


def retained_exports(instance: Instance, flags: np.ndarray) -> float:
    """Total exogenous export volume kept inside banning countries."""
    return float(ordered_sum(retained_by_country(instance, flags).ravel()))


def price_increase(instance: Instance, retained: float) -> float:
    """Linear unit-price bump induced by the retained export volume."""
    if retained < 0:
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


def sample_scenario(
    instance: Instance,
    rng: np.random.Generator,
    overrides: RiskOverrides | None = None,
    probability: float = 1.0,
) -> Scenario:
    overrides = overrides or RiskOverrides()

    supplier_avail = []
    for i in instance.suppliers:
        strain = instance.supplier_strain_pmf[i].sample(rng)
        up = 1.0 if rng.random() < instance.supplier_avail_prob[i] else 0.0
        supplier_avail.append(strain * up)
    plant_avail = []
    for j in instance.plant_candidates:
        strain = instance.plant_strain_pmf[j].sample(rng)
        up = 1.0 if rng.random() < instance.plant_avail_prob[j] else 0.0
        plant_avail.append(strain * up)

    demand = [
        max(0.0, float(rng.normal(instance.demand_mean[k], instance.demand_sd[k])))
        for k in instance.countries
    ]

    threshold = (
        instance.ban_threshold if overrides.ban_threshold is None else overrides.ban_threshold
    )
    avg_avail = sum(supplier_avail) / len(instance.suppliers)

    flags = np.ones((len(instance.countries), 2), dtype=np.int8)
    if avg_avail < threshold:
        # a general flag sets both columns; a banned ally then draws its channel
        for n, p in enumerate(_effective_export_prob(instance, overrides)):
            flags[n] = 1 if rng.random() < p else 0
        if not overrides.alliances_off:
            for k in instance.ally_group:
                n = instance.countries.index(k)
                if flags[n, 0] == 0:
                    flags[n, 1] = 1 if rng.random() < instance.ally_export_prob[k] else 0

    retained = retained_exports(instance, flags)
    return Scenario(
        supplier_avail=np.array(supplier_avail),
        plant_avail=np.array(plant_avail),
        demand=np.array(demand),
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
) -> list[Scenario]:
    """n independent scenarios with probability 1/n each, deterministic in seed."""
    if n < 1:
        raise ValueError("need at least one scenario")
    return [
        sample_scenario(instance, scenario_rng(seed, w), overrides, probability=1.0 / n)
        for w in range(n)
    ]
