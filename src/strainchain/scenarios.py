"""Scenario sampling: facility capacity factors, demand, export bans.

Sequence within one scenario: supplier capacity factors (strain times
Bernoulli disruption), plant capacity factors, demand (normal, clamped at
zero), then export-ban flags. Bans can only fire when the average supplier
availability fraction falls below the instance's ban threshold; allies get a
second Bernoulli chance when the general flag comes up banned. Retained
exports and the induced unit-price bump are computed last.

Streams: one root seed; each scenario draws from its own counter-derived
substream so batches are reproducible regardless of evaluation order or
parallelism. Ban flags are drawn after everything else, which keeps
capacity/demand draws identical across risk-override arms (common random
numbers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Scenario:
    supplier_avail: dict        # supplier -> capacity fraction in [0, 1]
    plant_avail: dict           # plant -> capacity fraction in [0, 1]
    demand: dict                # country -> units, >= 0
    ban_general: dict           # country -> 0/1, 1 = exports allowed
    ban_ally: dict              # ally-group country -> 0/1, 1 = exports to allies allowed
    retained_exports: float     # units kept home by the bans
    price_increase: float       # money/unit bump applied to the escalated shortage tranche
    probability: float = 1.0
    # (instance, arrays) memo of RecourseSolver.arrays, filled in by the first
    # solve; dataclasses.replace starts a copy without it
    _arrays: tuple | None = field(default=None, init=False, repr=False, compare=False)


def validate_scenario(instance: Instance, scen: Scenario) -> None:
    """Assert the documented scenario invariants; used by tests and loaders."""
    for k in instance.ally_group:
        if scen.ban_general[k] == 1 and scen.ban_ally[k] != 1:
            raise ValueError(f"ally flag for {k!r} must be 1 when the general flag is 1")
    if scen.retained_exports < 0:
        raise ValueError("retained_exports negative")
    expected = price_increase(instance, scen.retained_exports)
    if abs(scen.price_increase - expected) > PRICE_LINK_TOL * max(1.0, abs(expected)):
        raise ValueError("price_increase inconsistent with beta * retained_exports")
    avg = sum(scen.supplier_avail.values()) / len(instance.suppliers)
    if avg >= instance.ban_threshold:
        flags = list(scen.ban_general.values()) + list(scen.ban_ally.values())
        if any(f != 1 for f in flags):
            raise ValueError("ban flags present although average availability met the threshold")


def ban_flags(instance: Instance, ban_general: dict, ban_ally: dict) -> np.ndarray:
    """Export flags per country and channel, (countries x 2) in country order.

    Column 0 gates general exports; column 1 gates exports on the c1/ally
    channel, which follows the ally flag inside the ally group and the
    general flag elsewhere.
    """
    ally_group = set(instance.ally_group)
    return np.array(
        [
            (ban_general[k], ban_ally[k] if k in ally_group else ban_general[k])
            for k in instance.countries
        ],
        dtype=float,
    )


def retained_by_country(instance: Instance, flags: np.ndarray) -> np.ndarray:
    """Export volume each country keeps home, (countries x 2) as in `ban_flags`."""
    exports = np.array(
        [(instance.exports_general[k], instance.exports_to_c1[k]) for k in instance.countries]
    )
    return exports * (1.0 - flags)


def retained_exports(instance: Instance, ban_general: dict, ban_ally: dict) -> float:
    """Total exogenous export volume kept inside banning countries."""
    kept = retained_by_country(instance, ban_flags(instance, ban_general, ban_ally))
    return float(ordered_sum(kept.ravel()))


def price_increase(instance: Instance, retained: float) -> float:
    """Linear unit-price bump induced by the retained export volume."""
    if retained < 0:
        raise ValueError("retained volume must be nonnegative")
    return instance.beta * retained


def _effective_export_prob(instance: Instance, overrides: RiskOverrides) -> dict:
    if overrides.force_export_prob_one:
        return {k: 1.0 for k in instance.countries}
    if overrides.export_prob_scale is not None:
        return {
            k: min(1.0, max(0.0, p * overrides.export_prob_scale))
            for k, p in instance.export_prob.items()
        }
    return dict(instance.export_prob)


def sample_scenario(
    instance: Instance,
    rng: np.random.Generator,
    overrides: RiskOverrides | None = None,
    probability: float = 1.0,
) -> Scenario:
    overrides = overrides or RiskOverrides()

    supplier_avail = {}
    for i in instance.suppliers:
        strain = instance.supplier_strain_pmf[i].sample(rng)
        up = 1.0 if rng.random() < instance.supplier_avail_prob[i] else 0.0
        supplier_avail[i] = strain * up
    plant_avail = {}
    for j in instance.plant_candidates:
        strain = instance.plant_strain_pmf[j].sample(rng)
        up = 1.0 if rng.random() < instance.plant_avail_prob[j] else 0.0
        plant_avail[j] = strain * up

    demand = {
        k: max(0.0, float(rng.normal(instance.demand_mean[k], instance.demand_sd[k])))
        for k in instance.countries
    }

    threshold = (
        instance.ban_threshold if overrides.ban_threshold is None else overrides.ban_threshold
    )
    avg_avail = sum(supplier_avail.values()) / len(instance.suppliers)

    ally_group = instance.ally_group
    if avg_avail < threshold:
        prob = _effective_export_prob(instance, overrides)
        ban_general = {k: (1 if rng.random() < prob[k] else 0) for k in instance.countries}
        ban_ally = {}
        for k in ally_group:
            if ban_general[k] == 1:
                ban_ally[k] = 1
            elif overrides.alliances_off:
                ban_ally[k] = ban_general[k]
            else:
                ban_ally[k] = 1 if rng.random() < instance.ally_export_prob[k] else 0
    else:
        ban_general = {k: 1 for k in instance.countries}
        ban_ally = {k: 1 for k in ally_group}

    retained = retained_exports(instance, ban_general, ban_ally)
    return Scenario(
        supplier_avail=supplier_avail,
        plant_avail=plant_avail,
        demand=demand,
        ban_general=ban_general,
        ban_ally=ban_ally,
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
