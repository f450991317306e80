"""Shared fixtures and independent oracles for the test suite.

The raw-formulation oracle rebuilds the scenario problem with one explicit
row per constraint (capacities, gated arcs, demand, balance, shortage links)
and hands it to scipy's HiGHS, completely bypassing the package's LP path.
The dict-keyed retained-export, cut-term and evaluation loops are the
references the package's array formulas must reproduce exactly; so are the
former per-scenario `evaluate_design` and `run_lshaped` sums (the batched
ones must equal them bit for bit), the former dict sampler
(`reference_sample_scenario`, whose draws the array sampler must equal in
order), the former single-cut enumeration master, the former recursive
branch and bound, the full-pricing, refactorizing simplex and the evaluate
command's per-country CSV writer below.
The references read a scenario through its one dict view, `scenario_maps`,
and `plain_scenario` builds a scenario's arrays from dicts. The package reads
scenarios as one `Scenarios` stack only: `stack` stacks hand-built rows, and
`reference_arrays` is the former `RecourseSolver.arrays`, which re-stacked
the rows of a scenario list, and whose bytes the stack's reader must equal.
`count_calls` counts the calls made through one module binding, to show
what a memo saved or that no factorization ran; `record_recourse_lps`
keeps each scenario LP's inputs and answer for a replay, and
`record_table_lookups` the answer table each one was given.
Dict-keyed cuts (`OptimalityCut`), the one-scenario solve (`solve_one`, a
batch of one) and the cut-term wrappers live here too: the package keeps
cuts as arrays in its `Master` and solves scenarios in batches only.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math

import numpy as np
from scipy.optimize import linprog

from strainchain import (
    CostBreakdown,
    Design,
    DesignEvaluation,
    DiscretePmf,
    Instance,
    Scenario,
    Scenarios,
    make_instance,
)
from strainchain.instance import ValidationError, fixed_cost
from strainchain.lshaped import (
    ENUMERATION_LIMIT,
    LShapedResult,
    Master,
    _bound_terms,
    solve_master,
)
from strainchain import recourse
from strainchain.recourse import (
    DUALITY_REL_TOL,
    RecourseError,
    RecourseSolution,
    RecourseSolver,
    ScenarioArrays,
    cut_terms_from,
)
from strainchain.scenarios import (
    RiskOverrides,
    price_increase,
    retained_by_country,
    retained_exports,
    sample_batch,
)
from strainchain.stats import ordered_sum
from strainchain.simplex import (
    DEGENERATE_STEP,
    REFRESH_EVERY,
    Columns,
    LpSolution,
    SimplexError,
    answer_key,
    solve_bounded_lp,
)


def country_retained(instance: Instance, k: str, ban_general: dict, ban_ally: dict) -> float:
    """Export volume country k keeps for its own demand under the given flags."""
    kept = instance.exports_general[k] * (1 - ban_general[k])
    if k in set(instance.ally_group):
        kept += instance.exports_to_c1[k] * (1 - ban_ally[k])
    else:
        kept += instance.exports_to_c1[k] * (1 - ban_general[k])
    return kept


@dataclasses.dataclass(frozen=True)
class ScenarioMaps:
    """A scenario keyed by supplier, plant and country: the former dict form."""

    supplier_avail: dict        # supplier -> capacity fraction in [0, 1]
    plant_avail: dict           # plant -> capacity fraction in [0, 1]
    demand: dict                # country -> units, >= 0
    ban_general: dict           # country -> 0/1, 1 = exports allowed
    ban_ally: dict              # ally-group country -> 0/1, 1 = exports to allies allowed
    retained_exports: float
    price_increase: float
    probability: float = 1.0


def reference_flags(instance: Instance, ban_general: dict, ban_ally: dict) -> np.ndarray:
    """The (countries x 2) int8 flags of dict flags: the general flag, then
    the c1/ally channel, which is the ally flag inside the ally group and the
    general flag elsewhere."""
    ally_group = set(instance.ally_group)
    return np.array(
        [
            (ban_general[k], ban_ally[k] if k in ally_group else ban_general[k])
            for k in instance.countries
        ],
        dtype=np.int8,
    )


def scenario_maps(instance: Instance, scenario: Scenario) -> ScenarioMaps:
    """The scenario's arrays read by position into dicts."""
    general = scenario.flags[:, 0].tolist()
    channel = dict(zip(instance.countries, scenario.flags[:, 1].tolist()))
    return ScenarioMaps(
        supplier_avail=dict(zip(instance.suppliers, scenario.supplier_avail.tolist())),
        plant_avail=dict(zip(instance.plant_candidates, scenario.plant_avail.tolist())),
        demand=dict(zip(instance.countries, scenario.demand.tolist())),
        ban_general=dict(zip(instance.countries, general)),
        ban_ally={k: channel[k] for k in instance.ally_group},
        retained_exports=scenario.retained_exports,
        price_increase=scenario.price_increase,
        probability=scenario.probability,
    )


def reference_level(pmf: DiscretePmf, rng: np.random.Generator) -> float:
    """The former `DiscretePmf.sample`: the first level whose running
    probability exceeds one uniform, else the last level."""
    u = rng.random()
    acc = 0.0
    for level, p in zip(pmf.levels, pmf.probs):
        acc += p
        if u < acc:
            return level
    return pmf.levels[-1]


def reference_sample_scenario(
    instance: Instance,
    rng: np.random.Generator,
    overrides: RiskOverrides | None = None,
    probability: float = 1.0,
) -> ScenarioMaps:
    """The former dict sampler, whose draws the package's must equal in order."""
    overrides = overrides or RiskOverrides()

    supplier_avail = {}
    for i in instance.suppliers:
        strain = reference_level(instance.supplier_strain_pmf[i], rng)
        up = 1.0 if rng.random() < instance.supplier_avail_prob[i] else 0.0
        supplier_avail[i] = strain * up
    plant_avail = {}
    for j in instance.plant_candidates:
        strain = reference_level(instance.plant_strain_pmf[j], rng)
        up = 1.0 if rng.random() < instance.plant_avail_prob[j] else 0.0
        plant_avail[j] = strain * up

    demand = {
        k: max(0.0, float(rng.normal(instance.demand_mean[k], instance.demand_sd[k])))
        for k in instance.countries
    }

    threshold = (
        instance.ban_threshold if overrides.ban_threshold is None else overrides.ban_threshold
    )
    total_avail = 0  # a loop: sum() of floats is compensated from Python 3.12 on
    for value in supplier_avail.values():
        total_avail += value
    avg_avail = total_avail / len(instance.suppliers)

    ally_group = instance.ally_group
    if avg_avail < threshold:
        if overrides.force_export_prob_one:
            prob = {k: 1.0 for k in instance.countries}
        elif overrides.export_prob_scale is not None:
            prob = {
                k: min(1.0, max(0.0, p * overrides.export_prob_scale))
                for k, p in instance.export_prob.items()
            }
        else:
            prob = dict(instance.export_prob)
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

    retained = retained_exports(instance, reference_flags(instance, ban_general, ban_ally))
    return ScenarioMaps(
        supplier_avail=supplier_avail,
        plant_avail=plant_avail,
        demand=demand,
        ban_general=ban_general,
        ban_ally=ban_ally,
        retained_exports=retained,
        price_increase=price_increase(instance, retained),
        probability=probability,
    )


def reference_cut_terms(instance: Instance, scenario: Scenario, solution) -> tuple[float, dict]:
    """Cut terms from the solution's arrays read by position, one `+=` at a time.

    The sums are explicit loops because `sum()` of floats is compensated
    from Python 3.12 on and would round differently.
    """
    scenario = scenario_maps(instance, scenario)
    s = solution.solver
    a_sup = {
        i: instance.supplier_capacity[i] * scenario.supplier_avail[i]
        for i in instance.suppliers
    }
    b_pl = {
        j: instance.plant_capacity[j] * scenario.plant_avail[j]
        for j in instance.plant_candidates
    }
    ally_raw = instance.ally_supply_arcs()
    ally_dist = instance.ally_distribution_arcs()
    pi_supplier = solution.pi_supplier.tolist()
    pi_demand = solution.pi_demand.tolist()
    pi_plant = solution.pi_plant.tolist()
    pi_aux = solution.pi_aux.tolist()

    constant = 0.0
    for i in instance.suppliers:
        constant += pi_supplier[s.sup.index(i)] * a_sup[i]
    for k in instance.countries:
        rhs = scenario.demand[k] - country_retained(
            instance, k, scenario.ban_general, scenario.ban_ally
        )
        constant += pi_demand[s.kpos[k]] * rhs

    coeff = {j: 0.0 for j in instance.plant_candidates}
    for (i, j), pi in zip(s.u_arcs, solution.pi_supply_gate.tolist()):
        if i == j:
            continue  # a self arc has no gate
        gate_val = (
            scenario.ban_ally[i] if (i, j) in ally_raw else scenario.ban_general[i]
        )
        coeff[j] += pi * a_sup[i] * gate_val
    for j in instance.plant_candidates:
        coeff[j] += pi_plant[s.pl.index(j)] * b_pl[j]
    for (j, k), pi in zip(s.v_arcs, solution.pi_distribution_gate.tolist()):
        if j == k:
            continue
        gate_val = (
            scenario.ban_ally[j] if (j, k) in ally_dist else scenario.ban_general[j]
        )
        coeff[j] += pi * b_pl[j] * gate_val
    for j in instance.plant_candidates:
        shield = scenario.demand[j] * (1 - scenario.ban_general[j])
        coeff[j] += pi_aux[s.kpos[j]] * (-shield)
    return constant, coeff


def reference_evaluation(instance: Instance, design: Design, scenarios, solver) -> DesignEvaluation:
    """evaluate_design as a loop over the solutions' arrays, scenario by scenario."""
    n = len(scenarios)
    fixed = sum(instance.fixed_cost[j] * design.open[j] for j in instance.plant_candidates)
    samples = []
    shortage = {k: 0.0 for k in instance.countries}
    demand = {k: 0.0 for k in instance.countries}
    raw_flow = {arc: 0.0 for arc in solver.u_arcs}
    drug_flow = {arc: 0.0 for arc in solver.v_arcs}
    raw_cost = outbound_cost = base_short = esc_short = sales = 0.0
    for scen in scenarios:
        sol = solve_one(solver, design, scen)
        samples.append(fixed + sol.objective)
        scen = scenario_maps(instance, scen)
        unmet, escalated = sol.unmet.tolist(), sol.escalated.tolist()
        for k in instance.countries:
            short = unmet[solver.kpos[k]]
            shortage[k] += short / n
            demand[k] += scen.demand[k] / n
            base_short += instance.shortage_price[k] * short / n
            esc_short += scen.price_increase * escalated[solver.kpos[k]] / n
        for (i, j), v in zip(solver.u_arcs, sol.raw.tolist()):
            raw_flow[(i, j)] += v / n
            raw_cost += (instance.raw_cost[i] + instance.transport1[(i, j)]) * v / n
        for (j, k), v in zip(solver.v_arcs, sol.drug.tolist()):
            drug_flow[(j, k)] += v / n
            outbound_cost += (instance.production_cost[j] + instance.transport2[(j, k)]) * v / n
            sales += v / n
    mean = sum(samples) / n
    var = sum((s - mean) ** 2 for s in samples) / ((n - 1) * n) if n > 1 else 0.0
    return DesignEvaluation(
        mean_objective=mean,
        std_error=math.sqrt(var),
        expected_shortage=shortage,
        expected_demand=demand,
        expected_raw_flow=raw_flow,
        expected_drug_flow=drug_flow,
        sales_volume=sales,
        breakdown=CostBreakdown(fixed, raw_cost, outbound_cost, base_short, esc_short),
    )


def reference_evaluate_design(instance: Instance, design: Design, scenarios, solver):
    """The former evaluate_design: one solve through one basis pool and one
    round of sums per scenario, which the batched sums must equal bit for bit."""
    n = len(scenarios)
    fixed = fixed_cost(instance, design)
    samples = []
    shortage = np.zeros(solver.nK)
    demand = np.zeros(solver.nK)
    raw_flow = np.zeros(len(solver.u_arcs))
    drug_flow = np.zeros(len(solver.v_arcs))
    raw_cost = outbound_cost = base_short = esc_short = sales = 0.0
    pool = []
    for scen in scenarios:
        sol = solve_one(solver, design, scen, pool)
        samples.append(fixed + sol.objective)
        shortage += sol.unmet / n
        demand += scen.demand / n
        base_short = ordered_sum(solver.shortage_price * sol.unmet / n, base_short)
        esc_short = ordered_sum(scen.price_increase * sol.escalated / n, esc_short)
        raw_flow += sol.raw / n
        raw_cost = ordered_sum(solver.raw_unit_cost * sol.raw / n, raw_cost)
        drug_flow += sol.drug / n
        outbound_cost = ordered_sum(solver.drug_unit_cost * sol.drug / n, outbound_cost)
        sales = ordered_sum(sol.drug / n, sales)
    mean = sum(samples) / n
    var = sum((s - mean) ** 2 for s in samples) / ((n - 1) * n) if n > 1 else 0.0
    return DesignEvaluation(
        mean_objective=mean,
        std_error=math.sqrt(var),
        expected_shortage=dict(zip(solver.K, shortage.tolist())),
        expected_demand=dict(zip(solver.K, demand.tolist())),
        expected_raw_flow=dict(zip(solver.u_arcs, raw_flow.tolist())),
        expected_drug_flow=dict(zip(solver.v_arcs, drug_flow.tolist())),
        sales_volume=float(sales),
        breakdown=CostBreakdown(
            fixed, float(raw_cost), float(outbound_cost), float(base_short), float(esc_short)
        ),
    )


def reference_run_lshaped(instance: Instance, scenarios, epsilon: float, solver) -> tuple:
    """The former run_lshaped: one solve and one `+=` into its group's cut
    per scenario. Returns the result (None after a stall) and the master."""
    n_scen = len(scenarios)
    master = Master(instance, n_scen)
    groups = master.groups
    ub, incumbent, evaluated, kept_duals = np.inf, None, set(), 0
    lb_trace, ub_trace = [], []

    def gap(lb):
        return (ub - lb) / ub if ub > 0 else 0.0

    def result():
        return LShapedResult(incumbent, ub, len(evaluated), lb_trace, ub_trace, kept_duals)

    while True:
        candidate, lb = solve_master(master)
        lb_trace.append(lb)
        if candidate.key() in evaluated:
            ub_trace.append(ub)
            return (result() if gap(lb) <= epsilon else None), master
        evaluated.add(candidate.key())
        mean_recourse = 0.0
        constants = np.zeros(groups)
        coefficients = np.zeros((groups, len(master.plants)))
        bases = []
        for s, scen in enumerate(scenarios):
            sol = solve_one(solver, candidate, scen, bases, pareto=True)
            kept_duals += sol.kept_dual
            mean_recourse += sol.objective / n_scen
            const, coeff = (terms[0] for terms in cut_terms_from(sol.batch))
            constants[s * groups // n_scen] += const / n_scen
            coefficients[s * groups // n_scen] += coeff / n_scen
        z_n = fixed_cost(instance, candidate) + mean_recourse
        if incumbent is None or z_n < ub:
            ub, incumbent = z_n, candidate
        ub_trace.append(ub)
        if gap(lb) <= epsilon:
            return result(), master
        master.add_cuts(constants, coefficients)


def degenerate_pmf(level: float = 1.0) -> DiscretePmf:
    return DiscretePmf(levels=(level,), probs=(1.0,))


def tiny_instance(
    countries=("a",),
    suppliers=None,
    plants=None,
    c1=None,
    allies=(),
    demand=None,
    price=None,
    raw_cost=None,
    production_cost=None,
    fixed_cost=None,
    transport1=None,
    transport2=None,
    supplier_capacity=None,
    plant_capacity=None,
    exports_general=None,
    exports_to_c1=None,
    beta=0.0,
    ban_threshold=0.8,
    export_prob=None,
    ally_export_prob=None,
    demand_sd=None,
    income=None,
) -> Instance:
    """Deterministic hand instance with every omitted field defaulted sensibly."""
    countries = tuple(sorted(countries))
    suppliers = tuple(sorted(suppliers if suppliers is not None else countries))
    plants = tuple(sorted(plants if plants is not None else countries))
    c1 = c1 or countries[0]
    levels = ("HIC", "UMIC", "LMIC", "LIC")
    income = income or {k: levels[n % 4] for n, k in enumerate(countries)}
    demand = demand or {k: 10.0 for k in countries}
    price = price or {k: 10.0 for k in countries}
    ally_group = tuple(sorted(set(allies) | {c1}))
    return make_instance(
        countries=countries,
        suppliers=suppliers,
        plant_candidates=plants,
        interest_country=c1,
        allies=tuple(allies),
        income_level=income,
        raw_cost=raw_cost or {i: 1.0 for i in suppliers},
        production_cost=production_cost or {j: 2.0 for j in plants},
        fixed_cost=fixed_cost or {j: 5.0 for j in plants},
        transport1=transport1
        or {(i, j): 0.0 for i in suppliers for j in plants},
        transport2=transport2
        or {(j, k): 0.0 for j in plants for k in countries},
        shortage_price=price,
        supplier_capacity=supplier_capacity or {i: 100.0 for i in suppliers},
        plant_capacity=plant_capacity or {j: 120.0 for j in plants},
        exports_general=exports_general or {k: 0.0 for k in countries},
        exports_to_c1=exports_to_c1 or {k: 0.0 for k in countries},
        beta=beta,
        ban_threshold=ban_threshold,
        export_prob=export_prob or {k: 1.0 for k in countries},
        ally_export_prob=ally_export_prob or {k: 1.0 for k in ally_group},
        demand_mean=demand,
        demand_sd=demand_sd or {k: 0.0 for k in countries},
        supplier_avail_prob={i: 1.0 for i in suppliers},
        plant_avail_prob={j: 1.0 for j in plants},
        supplier_strain_pmf={i: degenerate_pmf() for i in suppliers},
        plant_strain_pmf={j: degenerate_pmf() for j in plants},
    )


def plain_scenario(inst: Instance, demand=None, sup=None, pl=None, g=None, ga=None) -> Scenario:
    """Scenario built from dicts with explicit fields; retained exports and price derived."""
    demand = demand or {k: inst.demand_mean[k] for k in inst.countries}
    sup = sup or {i: 1.0 for i in inst.suppliers}
    pl = pl or {j: 1.0 for j in inst.plant_candidates}
    g = g or {k: 1 for k in inst.countries}
    ga = dict(ga) if ga else {k: 1 for k in inst.ally_group}
    for k in inst.ally_group:  # an open general flag always opens the ally flag
        if g[k] == 1:
            ga[k] = 1
    flags = reference_flags(inst, g, ga)
    retained = retained_exports(inst, flags)
    return Scenario(
        supplier_avail=np.array([sup[i] for i in inst.suppliers], dtype=float),
        plant_avail=np.array([pl[j] for j in inst.plant_candidates], dtype=float),
        demand=np.array([demand[k] for k in inst.countries], dtype=float),
        flags=flags,
        retained_exports=retained,
        price_increase=inst.beta * retained,
        probability=1.0,
    )


def stack(rows) -> Scenarios:
    """Scenario rows as one stack, with the first row's probability."""
    fields = dataclasses.fields(Scenarios)
    columns = [np.array([getattr(row, f.name) for row in rows]) for f in fields]
    return Scenarios(*columns[:-1], probability=rows[0].probability)


def reference_arrays(solver: RecourseSolver, scenarios) -> ScenarioArrays:
    """The former `RecourseSolver.arrays`: each stack rebuilt from the rows."""
    n = len(scenarios)
    a_sup = solver.sup_capacity * np.stack([scen.supplier_avail for scen in scenarios])
    b_pl = solver.pl_capacity * np.stack([scen.plant_avail for scen in scenarios])
    demand = np.stack([scen.demand for scen in scenarios])
    flags = np.stack([scen.flags for scen in scenarios])
    kept = retained_by_country(solver.instance, flags)
    retained = kept[..., 0] + kept[..., 1]
    gates = np.ones((n, 2 * solver.nK + 1))
    gates[:, :-1] = flags.reshape(n, -1)
    cap_u = gates[:, solver.u_gate].reshape(n, solver.nI, solver.nJ)
    cap_u *= a_sup[:, :, None]
    cap_v = gates[:, solver.v_gate].reshape(n, solver.nJ, solver.nK)
    cap_v *= b_pl[:, :, None]
    return ScenarioArrays(
        a_sup=a_sup,
        b_pl=b_pl,
        demand=demand,
        retained=retained,
        rhs_dem=demand - retained,
        shield=demand * (1.0 - flags[..., 0]),
        cap_u=cap_u.reshape(n, -1),
        cap_v=cap_v.reshape(n, -1),
        price_increase=np.array([scen.price_increase for scen in scenarios]),
    )


def small_random_instance(seed: int, n_countries: int = 5, with_allies: bool = True) -> Instance:
    """Hand-scaled random instance (demands and capacities O(10)).

    Every country is both a supplier and a plant candidate so all trade-arc
    classes appear; modest magnitudes keep absolute LP tolerances meaningful.
    """
    rng = np.random.default_rng(seed)
    countries = tuple(f"k{n}" for n in range(n_countries))
    c1 = countries[0]
    others = list(countries[1:])
    n_allies = max(1, (n_countries - 1) // 2) if with_allies and others else 0
    allies = tuple(sorted(str(a) for a in rng.choice(others, n_allies, replace=False)))
    demand = {k: float(rng.uniform(1.0, 20.0)) for k in countries}
    total = sum(demand.values())
    exports_to_c1 = {k: float(demand[k] * rng.uniform(0.0, 0.5)) for k in countries}
    if not allies:
        exports_to_c1[c1] = 0.0  # the c1 entry means "exports to allies": none exist
    income_cycle = ("HIC", "UMIC", "LMIC", "LIC")
    return make_instance(
        countries=countries,
        suppliers=countries,
        plant_candidates=countries,
        interest_country=c1,
        allies=allies,
        income_level={k: income_cycle[n % 4] for n, k in enumerate(countries)},
        raw_cost={i: float(rng.uniform(0.2, 1.0)) for i in countries},
        production_cost={j: float(rng.uniform(0.5, 2.0)) for j in countries},
        fixed_cost={j: float(rng.uniform(2.0, 15.0)) for j in countries},
        transport1={
            (i, j): 0.0 if i == j else float(rng.uniform(0.05, 0.8))
            for i in countries
            for j in countries
        },
        transport2={
            (j, k): 0.0 if j == k else float(rng.uniform(0.05, 0.8))
            for j in countries
            for k in countries
        },
        shortage_price={k: float(rng.uniform(2.0, 9.0)) for k in countries},
        supplier_capacity={i: float(total * rng.uniform(0.3, 0.8)) for i in countries},
        plant_capacity={j: float(total * rng.uniform(0.3, 0.8)) for j in countries},
        exports_general={k: float(demand[k] * rng.uniform(0.0, 1.2)) for k in countries},
        exports_to_c1=exports_to_c1,
        beta=float(rng.uniform(0.005, 0.05)),
        ban_threshold=float(rng.uniform(0.7, 0.95)),
        export_prob={k: float(rng.uniform(0.3, 0.95)) for k in countries},
        ally_export_prob={
            k: float(rng.uniform(0.5, 0.99)) for k in sorted(set(allies) | {c1})
        },
        demand_mean=demand,
        demand_sd={k: float(demand[k] * rng.uniform(0.05, 0.4)) for k in countries},
        supplier_avail_prob={i: float(rng.uniform(0.7, 1.0)) for i in countries},
        plant_avail_prob={j: float(rng.uniform(0.7, 1.0)) for j in countries},
        supplier_strain_pmf={
            i: DiscretePmf(levels=(0.7, 0.85, 1.0), probs=(0.2, 0.3, 0.5)) for i in countries
        },
        plant_strain_pmf={
            j: DiscretePmf(levels=(0.7, 0.85, 1.0), probs=(0.15, 0.25, 0.6)) for j in countries
        },
    )


PLANT_FIELDS = ("production_cost", "fixed_cost", "plant_capacity", "plant_avail_prob",
                "plant_strain_pmf")


def with_plants(inst: Instance, plants) -> Instance:
    """The instance with only the given plant candidates (and their arcs)."""
    keep = set(plants)
    kwargs = {f.name: getattr(inst, f.name) for f in dataclasses.fields(Instance)}
    for name in PLANT_FIELDS:
        kwargs[name] = {j: v for j, v in kwargs[name].items() if j in keep}
    kwargs["plant_candidates"] = tuple(plants)
    kwargs["transport1"] = {(i, j): v for (i, j), v in inst.transport1.items() if j in keep}
    kwargs["transport2"] = {(j, k): v for (j, k), v in inst.transport2.items() if j in keep}
    return make_instance(**kwargs)


CORNERS = ("sampled", "suppliers_down", "zero_demand", "all_banning")


def corner_scenario(inst, seed, corner):
    """A ban-heavy sampled scenario, or that scenario pushed into a degenerate corner."""
    scen = sample_batch(
        inst, (seed,), 1, RiskOverrides(export_prob_scale=0.4, ban_threshold=1.0)
    )[0]
    if corner == "suppliers_down":
        return dataclasses.replace(scen, supplier_avail=np.zeros(len(inst.suppliers)))
    if corner == "zero_demand":
        return dataclasses.replace(scen, demand=np.zeros(len(inst.countries)))
    if corner == "all_banning":
        maps = scenario_maps(inst, scen)
        return plain_scenario(
            inst,
            demand=maps.demand,
            sup=maps.supplier_avail,
            pl=maps.plant_avail,
            g={k: 0 for k in inst.countries},
            ga={k: 0 for k in inst.ally_group},
        )
    return scen


def design_from_code(inst, code):
    """The design whose open plants are the bits of `code`; never all closed."""
    plants = list(inst.plant_candidates)
    code = code % ((1 << len(plants)) - 1) + 1
    return Design(open={j: (code >> n) & 1 for n, j in enumerate(plants)})


def enumerate_designs(instance: Instance, forced: dict | None = None):
    plants = list(instance.plant_candidates)
    forced = forced or {}
    for bits in itertools.product([0, 1], repeat=len(plants)):
        if sum(bits) < 1:
            continue
        open_map = dict(zip(plants, bits))
        if any(open_map[j] != v for j, v in forced.items()):
            continue
        yield Design(open=open_map)


def enumeration_optimum(instance, scenarios, solver=None, forced=None):
    """Brute-force sampled optimum: direct recourse solves at every design."""
    solver = solver or RecourseSolver(instance)
    best_val, best_design = np.inf, None
    for design in enumerate_designs(instance, forced):
        fixed = sum(
            instance.fixed_cost[j] * design.open[j] for j in instance.plant_candidates
        )
        mean_q = sum(solve_one(solver, design, s).objective for s in scenarios) / len(scenarios)
        value = fixed + mean_q
        if value < best_val - 1e-12:
            best_val, best_design = value, design
    return best_val, best_design


def raw_lp_objective(inst: Instance, design: Design, scen: Scenario) -> float:
    """Independent oracle: explicit row formulation solved by scipy HiGHS."""
    scen = scenario_maps(inst, scen)
    I, J, K = list(inst.suppliers), list(inst.plant_candidates), list(inst.countries)
    ally_raw, ally_dist = inst.ally_supply_arcs(), inst.ally_distribution_arcs()
    nI, nJ, nK = len(I), len(J), len(K)
    nU, nV = nI * nJ, nJ * nK
    n = nU + nV + 3 * nK
    oS, oSp, oE = nU + nV, nU + nV + nK, nU + nV + 2 * nK
    uidx = {(i, j): a for a, (i, j) in enumerate((i, j) for i in I for j in J)}
    vidx = {(j, k): nU + a for a, (j, k) in enumerate((j, k) for j in J for k in K)}
    a_sup = {i: inst.supplier_capacity[i] * scen.supplier_avail[i] for i in I}
    b_pl = {j: inst.plant_capacity[j] * scen.plant_avail[j] for j in J}

    c = np.zeros(n)
    for (i, j), col in uidx.items():
        c[col] = inst.raw_cost[i] + inst.transport1[(i, j)]
    for (j, k), col in vidx.items():
        c[col] = inst.production_cost[j] + inst.transport2[(j, k)]
    for kn, k in enumerate(K):
        c[oS + kn] = inst.shortage_price[k]
        c[oSp + kn] = scen.price_increase

    Aub, bub = [], []
    for i in I:
        row = np.zeros(n)
        for j in J:
            row[uidx[(i, j)]] = 1
        Aub.append(row)
        bub.append(a_sup[i])
    for (i, j), col in uidx.items():
        if i == j:
            continue
        gate = scen.ban_ally[i] if (i, j) in ally_raw else scen.ban_general[i]
        row = np.zeros(n)
        row[col] = 1
        Aub.append(row)
        bub.append(a_sup[i] * gate * design.open[j])
    for j in J:
        row = np.zeros(n)
        for k in K:
            row[vidx[(j, k)]] = 1
        Aub.append(row)
        bub.append(b_pl[j] * design.open[j])
    for (j, k), col in vidx.items():
        if j == k:
            continue
        gate = scen.ban_ally[j] if (j, k) in ally_dist else scen.ban_general[j]
        row = np.zeros(n)
        row[col] = 1
        Aub.append(row)
        bub.append(b_pl[j] * gate * design.open[j])
    for kn, k in enumerate(K):
        row = np.zeros(n)
        row[oS + kn] = 1
        row[oSp + kn] = -1
        cap = (
            scen.demand[k] * (1 - scen.ban_general[k]) * design.open[k]
            if k in design.open
            else 0.0
        )
        Aub.append(row)
        bub.append(cap)

    Aeq, beq = [], []
    for kn, k in enumerate(K):
        row = np.zeros(n)
        for j in J:
            row[vidx[(j, k)]] = 1
        row[oS + kn] = 1
        row[oE + kn] = -1
        Aeq.append(row)
        beq.append(scen.demand[k] - country_retained(inst, k, scen.ban_general, scen.ban_ally))
    for j in J:
        row = np.zeros(n)
        for i in I:
            row[uidx[(i, j)]] = 1
        for k in K:
            row[vidx[(j, k)]] -= 1
        Aeq.append(row)
        beq.append(0.0)

    res = linprog(
        c,
        A_ub=np.array(Aub),
        b_ub=np.array(bub),
        A_eq=np.array(Aeq),
        b_eq=np.array(beq),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def solve_one(solver, design: Design, scenario: Scenario, pool=None, pareto=False):
    """One scenario's solve: the package's batch path on a batch of one."""
    return next(solver.batches(design, stack([scenario]), pool, pareto)).solution(0)


def solve_recourse(instance: Instance, design: Design, scenario: Scenario) -> RecourseSolution:
    return solve_one(RecourseSolver(instance), design, scenario)


def recourse_cut_terms(
    instance: Instance, scenario: Scenario, solution: RecourseSolution
) -> tuple[float, dict]:
    """Cut terms keyed by plant, with the tightness/duality guarantee re-verified."""
    constants, coefficients = cut_terms_from(solution.batch)
    constant, coeff = float(constants[solution.row]), coefficients[solution.row]
    y = np.array([float(solution.design.open[j]) for j in instance.plant_candidates])
    value = constant + float(coeff @ y)
    tol = DUALITY_REL_TOL * max(1.0, abs(solution.objective))
    if abs(value - solution.objective) > tol:
        raise RecourseError(
            f"duality violation: cut value {value!r} vs objective {solution.objective!r}"
        )
    return constant, dict(zip(instance.plant_candidates, coeff.tolist()))


@dataclasses.dataclass(frozen=True)
class OptimalityCut:
    constant: float
    coeff: dict  # plant candidate -> money


def master_from_rows(
    instance, constants, coefficients, forced=None, enumeration_limit=ENUMERATION_LIMIT
) -> Master:
    """A master holding the (rows, G) constants and (rows, G, n) coefficients after its floor.

    It is built for N = G scenarios, which gives G groups on either path at
    the sizes the tests use.
    """
    constants = np.asarray(constants, dtype=float)
    coefficients = np.asarray(coefficients, dtype=float)
    master = Master(instance, coefficients.shape[1], forced, enumeration_limit)
    assert master.groups == coefficients.shape[1]
    for const, coef in zip(constants, coefficients):
        master.add_cuts(const, coef)
    return master


def master_from_cuts(
    instance, plants, cuts, forced=None, enumeration_limit=ENUMERATION_LIMIT
) -> Master:
    """A one-group master with one row per dict-keyed cut."""
    master = Master(instance, 1, forced, enumeration_limit)
    for cut in cuts:
        master.add_cuts([cut.constant], [[cut.coeff[j] for j in plants]])
    return master


def master_values(instance, plants, master: Master) -> dict:
    """Master objective at every nonempty design, by brute force: bits -> value.

    fixed cost + sum over groups of max(0, largest cut of the group), each
    cut value a dot product (so only approximately the master's rounding).
    """
    fixed = np.array([instance.fixed_cost[j] for j in plants])
    values = {}
    for bits in itertools.product((0, 1), repeat=len(plants)):
        if any(bits):
            y = np.array(bits, dtype=float)
            cut_values = master.constants + master.coefficients @ y  # (rows, G), floor row 0
            values[bits] = float(fixed @ y) + math.fsum(cut_values.max(axis=0))
    return values


REFERENCE_BATCH = 1 << 16  # design codes per chunk of the former enumeration master


def reference_master_by_enumeration(instance, plants, cuts, forced, plant_order_fixed=False):
    """The former single-cut enumeration master, recomputing `designs @ coefs.T`
    over every dict-keyed cut in chunks of design codes.

    It sums fixed costs as `designs @ fixed`, a BLAS matrix-vector product
    whose accumulation order depends on the number of rows and is not plant
    order, so its value may differ from the array master's in the last bit.
    `plant_order_fixed` adds them in plant order instead, the order in which
    the array master and the cut values here (a matrix product over 0/1 rows,
    from two cuts on) accumulate.
    """
    n = len(plants)
    fixed = np.array([instance.fixed_cost[j] for j in plants])
    consts = np.array([c.constant for c in cuts]) if cuts else np.zeros(0)
    coefs = (
        np.array([[c.coeff[j] for j in plants] for c in cuts]) if cuts else np.zeros((0, n))
    )
    forced_pos = {plants.index(j): v for j, v in forced.items()}

    best_value = np.inf
    best_bits = None
    shifts = np.arange(n - 1, -1, -1)
    for start in range(1, 1 << n, REFERENCE_BATCH):
        stop = min(start + REFERENCE_BATCH, 1 << n)
        codes = np.arange(start, stop, dtype=np.int64)
        designs = (codes[:, None] >> shifts) & 1
        mask = np.ones(len(codes), dtype=bool)
        for pos, v in forced_pos.items():
            mask &= designs[:, pos] == v
        if not mask.any():
            continue
        designs = designs[mask]
        if plant_order_fixed:
            values = np.zeros(len(designs))
            for pos in range(n):
                values = values + designs[:, pos] * fixed[pos]
        else:
            values = designs @ fixed
        if cuts:
            theta = np.maximum((designs @ coefs.T + consts).max(axis=1), 0.0)
        else:
            theta = np.zeros(len(designs))
        values = values + theta
        local = int(np.argmin(values))
        if values[local] < best_value - 1e-15:
            best_value = float(values[local])
            best_bits = designs[local].copy()
    if best_bits is None:
        raise ValidationError("forced assignments close every plant")
    design = Design(open={j: int(b) for j, b in zip(plants, best_bits)})
    return design, best_value


def reference_branch_and_bound(master: Master) -> tuple[Design, float]:
    """The former recursive depth-first branch and bound over a branch-and-bound `Master`.

    It visits designs in lexicographic order (closed before open) with one
    incumbent, replaced only on a strict improvement, and prunes a node
    whose bound exceeds the incumbent by more than the master's slack. Each
    bound and leaf value adds the same terms in the same order as the
    package's frontier search. The master is only read: its node-bound terms
    are rebuilt here from all of its rows.
    """
    plants, fixed, choices = master.plants, master.fixed, master.choices
    n = len(plants)
    constants, coefficients = master.constants, master.coefficients
    rows, groups = constants.shape
    bound_terms = _bound_terms(fixed, constants, coefficients, master.forced_pos)
    by_plant = [coefficients[:, :, p].T for p in range(n)]

    levels = np.zeros((n + 1, groups, rows))  # opened plants' coefficient sums per depth
    work = np.empty((groups, rows))
    bits = [0] * n
    best_value = np.inf
    best_bits = None
    scale = fixed.sum() + (np.abs(constants) + np.abs(coefficients).sum(axis=2)).max(axis=0).sum()
    slack = 4 * (n + groups + 3) * np.finfo(float).eps * scale

    def dfs(depth: int, base: float, sums: np.ndarray) -> None:
        nonlocal best_value, best_bits
        np.add(sums, bound_terms[depth], out=work)
        bound = base + np.add.accumulate(np.maximum.reduce(work, axis=1))[-1]
        if depth == n:
            if any(bits) and bound < best_value:
                best_value = bound
                best_bits = list(bits)
            return
        if bound > best_value + slack:
            return
        for v in choices[depth]:
            bits[depth] = v
            if v:
                child = levels[depth + 1]
                np.add(sums, by_plant[depth], out=child)
                dfs(depth + 1, base + fixed[depth], child)
            else:
                dfs(depth + 1, base, sums)

    dfs(0, 0.0, levels[0])
    return Design(open=dict(zip(plants, best_bits))), float(best_value)


def solve_lp(A, b, c, upper, basis, inverse, **kwargs) -> LpSolution:
    """`solve_bounded_lp` on the array A from the start basis `basis` and its
    inverse: the simplex gets A's `Columns` and a start function returning
    fresh copies of both, so the caller's arrays are left as they are.
    kwargs (pool, perturbed, answers) are passed on."""
    basis = np.asarray(basis, dtype=np.intp)
    return solve_bounded_lp(
        Columns(A), b, c, upper, lambda: (basis.copy(), np.array(inverse, dtype=float)), **kwargs
    )


def reference_solve_bounded_lp(
    A, b, c, upper, basis, at_upper=None, max_iterations=None, basis_inverse=None
) -> LpSolution:
    """The bounded simplex pricing every column with the full `y @ A`."""
    m, n = A.shape
    basis = np.asarray(basis, dtype=np.intp).copy()
    if basis.shape != (m,):
        raise SimplexError("basis must list exactly one column per row")
    at_upper = (
        np.zeros(n, dtype=bool) if at_upper is None else np.asarray(at_upper, dtype=bool).copy()
    )
    in_basis = np.zeros(n, dtype=bool)
    in_basis[basis] = True
    at_upper[in_basis] = False
    finite_ub = np.isfinite(upper)

    if max_iterations is None:
        max_iterations = 500 + 40 * (m + n)
    rc_tol = 1e-9 * max(1.0, float(np.abs(c).max(initial=0.0)))
    piv_tol = 1e-10
    spannable = upper > piv_tol

    def inverse():
        try:
            return np.linalg.inv(A[:, basis])
        except np.linalg.LinAlgError as exc:
            raise SimplexError("singular basis") from exc

    def basic_values(Binv):
        x_nb = np.where(at_upper & finite_ub, upper, 0.0)
        x_nb[basis] = 0.0
        return Binv @ (b - A @ x_nb)

    Binv = inverse() if basis_inverse is None else basis_inverse
    xB = basic_values(Binv)
    bland = False
    degenerate_streak = 0
    pivots_since_refresh = 0

    for iteration in range(1, max_iterations + 1):
        y = c[basis] @ Binv
        rc = c - y @ A

        movable = spannable & ~in_basis
        viol = np.where(at_upper, rc, -rc)
        viol[~movable] = -np.inf
        if bland:
            idx = np.nonzero(viol > rc_tol)[0]
            if idx.size == 0:
                break
            e = int(idx[0])
        else:
            e = int(viol.argmax())
            if viol[e] <= rc_tol:
                break

        sigma = -1.0 if at_upper[e] else 1.0
        d = Binv @ A[:, e]
        delta = sigma * d

        steps = np.full(m, np.inf)
        ub_basis = upper[basis]
        pos = delta > piv_tol
        np.divide(xB, delta, out=steps, where=pos)
        neg = (delta < -piv_tol) & finite_ub[basis]
        np.divide(ub_basis - xB, -delta, out=steps, where=neg)
        t_flip = upper[e] if finite_ub[e] else np.inf
        t_rows = float(steps.min()) if m else np.inf
        t_best = min(t_rows, t_flip)
        if not np.isfinite(t_best):
            raise SimplexError("unbounded direction in a cost-nonnegative problem")
        t_best = max(t_best, 0.0)
        tie_tol = piv_tol * max(1.0, t_best)

        if t_flip <= t_best + tie_tol:
            leave = -1
            t_best = t_flip
        else:
            tied = np.nonzero(steps <= t_best + tie_tol)[0]
            if bland:
                leave = int(tied[np.argmin(basis[tied])])
            else:
                leave = int(tied[np.abs(delta[tied]).argmax()])
            leave_to_upper = bool(neg[leave])

        if t_best <= DEGENERATE_STEP:
            degenerate_streak += 1
            if degenerate_streak > 40 + 2 * m:
                bland = True
        else:
            degenerate_streak = 0

        xB = xB - t_best * delta
        if leave < 0:
            at_upper[e] = ~at_upper[e]
            continue

        x_enter = (upper[e] - t_best) if at_upper[e] else t_best
        out_col = int(basis[leave])
        in_basis[out_col] = False
        at_upper[out_col] = leave_to_upper
        in_basis[e] = True
        at_upper[e] = False
        basis[leave] = e
        xB[leave] = x_enter

        piv = d[leave]
        if abs(piv) < piv_tol:
            raise SimplexError("numerically singular pivot")
        Binv[leave] /= piv
        row = Binv[leave].copy()
        Binv -= np.multiply.outer(d, row)
        Binv[leave] = row

        pivots_since_refresh += 1
        if pivots_since_refresh >= REFRESH_EVERY:
            Binv = inverse()
            xB = basic_values(Binv)
            pivots_since_refresh = 0
    else:
        raise SimplexError(f"iteration cap {max_iterations} exceeded")

    Binv = inverse()
    xB = basic_values(Binv)
    y = c[basis] @ Binv
    rc = c - y @ A

    x = np.where(at_upper & finite_ub, upper, 0.0)
    x[basis] = xB
    np.clip(x, 0.0, None, out=x)
    objective = float(c @ x)
    return LpSolution(
        x=x,
        row_duals=y,
        reduced_costs=rc,
        at_upper=at_upper & ~in_basis,
        objective=objective,
        iterations=iteration,
    )


def reference_country_csv(path, inst: Instance, design: Design, evaluation) -> None:
    """The evaluate command's own shortage_by_country.csv writer."""
    ally = set(inst.ally_group) - {inst.interest_country}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "country",
                "income_level",
                "ally",
                "plant_open",
                "expected_demand",
                "expected_shortage",
                "shortage_fraction",
            ]
        )
        for k in inst.countries:
            dem = evaluation.expected_demand[k]
            short = evaluation.expected_shortage[k]
            writer.writerow(
                [
                    k,
                    inst.income_level[k],
                    "true" if k in ally else "false",
                    "true" if design.open.get(k, 0) else "false",
                    repr(dem),
                    repr(short),
                    repr(short / dem if dem > 0 else 0.0),
                ]
            )


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap `module.name` for the test; the returned list gets one entry per call."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def record_recourse_lps(monkeypatch) -> list:
    """Route the scenario solves' simplex calls through a recorder.

    Each call appends ((A, b, c, upper, basis), start inverse, solution,
    perturbed); the start basis and its inverse are built for every call,
    and the simplex gets copies of both, since it updates them in place. A
    solve's basis pool and perturbation are passed on, so a pooled answer is
    recorded as given.
    """
    lps = []

    def record(cols, b, c, upper, start, pool=None, perturbed=None, answers=None):
        basis, inverse = start()
        solution = solve_bounded_lp(
            cols, b, c, upper, lambda: (basis.copy(), inverse.copy()), pool=pool,
            perturbed=perturbed, answers=answers,
        )
        lps.append(((cols.matrix, b, c, upper, basis), inverse, solution, perturbed))
        return solution

    monkeypatch.setattr(recourse, "solve_bounded_lp", record)
    return lps


def record_table_lookups(monkeypatch) -> list:
    """Route the scenario solves' simplex calls through a recorder of their
    answer tables: each call appends (its table or None, whether the table
    held the LP before the call)."""
    lookups = []

    def record(cols, b, c, upper, start, answers=None, **kwargs):
        held = answers is not None and answer_key(b, c, upper, kwargs.get("perturbed")) in answers
        lookups.append((answers, held))
        return solve_bounded_lp(cols, b, c, upper, start, answers=answers, **kwargs)

    monkeypatch.setattr(recourse, "solve_bounded_lp", record)
    return lookups


def assert_same_lp_solution(got: LpSolution, ref: LpSolution) -> None:
    """Byte for byte, so the sign of a zero counts."""
    for name in ("x", "row_duals", "reduced_costs", "at_upper"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
    assert np.float64(got.objective).tobytes() == np.float64(ref.objective).tobytes()
    assert got.iterations == ref.iterations
