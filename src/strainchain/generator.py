"""Synthetic desk-scale instance generator.

Produces instances with the same distributional shapes as the real-world
setting: income levels assigned round-robin, shortage prices differentiated
by income class (HIC highest, LMIC/LIC below the production+delivery cost
chain so the differential-pricing tension appears), export probabilities
averaging about 0.977 in the low-risk profile, and strain PMFs supported on
{0.70, 0.75, ..., 1.00}.
"""

from __future__ import annotations

import numpy as np

from .instance import DiscretePmf, Instance, ValidationError, make_instance
from .stats import ordered_total

STRAIN_LEVELS = (0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.00)

# Shortage-price multipliers per income class; LMIC/LIC sit below the typical
# raw+production+transport chain so serving them is unprofitable at baseline.
PRICE_FACTOR = {"HIC": 3.0, "UMIC": 2.2, "LMIC": 0.55, "LIC": 0.40}
COST_FACTOR = {"HIC": 1.30, "UMIC": 1.10, "LMIC": 0.85, "LIC": 0.80}

BASE_PRICE = 2.0  # money per unit; scales fixed costs, shortage prices and beta
RISK_PROFILES = ("low", "high")
HIGH_RISK_SCALE = 0.8  # export probabilities in the high profile vs the low one


def _strain_pmf(rng) -> DiscretePmf:
    w = rng.uniform(0.05, 1.0, size=len(STRAIN_LEVELS)) ** 2
    w[-1] += rng.uniform(1.5, 4.0)  # most mass on full capacity
    w = w / w.sum()
    return DiscretePmf(levels=STRAIN_LEVELS, probs=tuple(float(p) for p in w))


def generate_synthetic_instance(
    num_suppliers: int,
    num_plants: int,
    num_countries: int,
    seed: int,
    risk_profile: str = "low",
) -> Instance:
    """Deterministic-in-seed synthetic instance.

    The interest country is always the first country and is included in both
    the supplier and plant-candidate sets so every policy study applies.
    """
    if num_suppliers < 1 or num_plants < 1:
        raise ValidationError("need at least one supplier and one plant candidate")
    if num_countries < max(num_suppliers, num_plants):
        raise ValidationError("num_countries must cover the supplier and plant counts")
    if risk_profile not in RISK_PROFILES:
        raise ValidationError(f"unknown risk profile {risk_profile!r}; choose from {RISK_PROFILES}")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(11,)))
    width = max(2, len(str(num_countries)))
    countries = tuple(f"C{n + 1:0{width}d}" for n in range(num_countries))
    c1 = countries[0]
    others = list(countries[1:])

    def pick(count: int) -> tuple[str, ...]:
        chosen = {c1}
        if count > 1:
            chosen.update(str(c) for c in rng.choice(others, size=count - 1, replace=False))
        return tuple(sorted(chosen))

    suppliers = pick(num_suppliers)
    plants = pick(num_plants)

    n_allies = min(len(others), max(1, round(0.25 * len(others)))) if others else 0
    if n_allies:
        allies = tuple(sorted(str(c) for c in rng.choice(others, size=n_allies, replace=False)))
    else:
        allies = ()

    # round-robin across the four classes in canonical order; c1 lands on HIC
    income = {k: ("HIC", "UMIC", "LMIC", "LIC")[n % 4] for n, k in enumerate(countries)}

    demand_mean = {k: float(10 ** rng.uniform(2.0, 3.2)) for k in countries}
    demand_sd = {k: float(demand_mean[k] * rng.uniform(0.10, 0.30)) for k in countries}
    total_demand = ordered_total(demand_mean.values())

    raw_cost = {i: float(rng.uniform(0.30, 0.50)) for i in suppliers}
    production_cost = {
        j: float(rng.uniform(0.55, 0.90) * COST_FACTOR[income[j]]) for j in plants
    }
    fixed_cost = {
        j: float(total_demand * BASE_PRICE * rng.uniform(0.015, 0.05) * COST_FACTOR[income[j]])
        for j in plants
    }
    transport1 = {
        (i, j): 0.0 if i == j else float(rng.uniform(0.05, 0.35))
        for i in suppliers
        for j in plants
    }
    transport2 = {
        (j, k): 0.0 if j == k else float(rng.uniform(0.05, 0.35))
        for j in plants
        for k in countries
    }
    shortage_price = {
        k: float(BASE_PRICE * PRICE_FACTOR[income[k]] * rng.uniform(0.9, 1.1)) for k in countries
    }

    supplier_capacity = {i: float(total_demand * rng.uniform(0.5, 0.9)) for i in suppliers}
    plant_capacity = {j: float(total_demand * rng.uniform(0.35, 0.7)) for j in plants}

    exports_general = {k: float(demand_mean[k] * rng.uniform(0.1, 0.9)) for k in countries}
    exports_to_c1 = {k: float(demand_mean[k] * rng.uniform(0.05, 0.4)) for k in countries}
    full_ban_retained = ordered_total(exports_general.values()) + ordered_total(
        exports_to_c1.values()
    )
    beta = float(BASE_PRICE * rng.uniform(0.8, 1.5) / full_ban_retained)

    export_prob_base = {k: float(rng.uniform(0.955, 0.999)) for k in countries}
    scale = HIGH_RISK_SCALE if risk_profile == "high" else 1.0
    export_prob = {k: float(p * scale) for k, p in export_prob_base.items()}
    ally_group = tuple(sorted(set(allies) | {c1}))
    ally_export_prob = {k: float(rng.uniform(0.85, 0.95)) for k in ally_group}

    supplier_avail_prob = {i: float(rng.uniform(0.92, 0.99)) for i in suppliers}
    plant_avail_prob = {j: float(rng.uniform(0.92, 0.99)) for j in plants}
    supplier_strain_pmf = {i: _strain_pmf(rng) for i in suppliers}
    plant_strain_pmf = {j: _strain_pmf(rng) for j in plants}

    return make_instance(
        countries=countries,
        suppliers=suppliers,
        plant_candidates=plants,
        interest_country=c1,
        allies=allies,
        income_level=income,
        raw_cost=raw_cost,
        production_cost=production_cost,
        fixed_cost=fixed_cost,
        transport1=transport1,
        transport2=transport2,
        shortage_price=shortage_price,
        supplier_capacity=supplier_capacity,
        plant_capacity=plant_capacity,
        exports_general=exports_general,
        exports_to_c1=exports_to_c1,
        beta=beta,
        ban_threshold=0.8,
        export_prob=export_prob,
        ally_export_prob=ally_export_prob,
        demand_mean=demand_mean,
        demand_sd=demand_sd,
        supplier_avail_prob=supplier_avail_prob,
        plant_avail_prob=plant_avail_prob,
        supplier_strain_pmf=supplier_strain_pmf,
        plant_strain_pmf=plant_strain_pmf,
    )
