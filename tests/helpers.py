"""Shared fixtures and independent oracles for the test suite.

The raw-formulation oracle rebuilds the scenario problem with one explicit
row per constraint (capacities, gated arcs, demand, balance, shortage links)
and hands it to scipy's HiGHS, completely bypassing the package's LP path.
The dict-keyed retained-export, cut-term and evaluation loops are the
references the package's array formulas must reproduce exactly; so are the
former single-cut enumeration master, the full-pricing, refactorizing
simplex and the evaluate command's per-country CSV writer below.
`count_calls` counts the calls made through one module binding, to show
what a memo saved or that no factorization ran; `record_recourse_lps`
keeps each scenario LP's inputs and answer for a replay.
Dict-keyed cuts
(`OptimalityCut`) and the one-call solve and cut-term wrappers live here
too: the package keeps cuts in array pools and never needs them.
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
    make_instance,
)
from strainchain.instance import ValidationError
from strainchain.lshaped import CutPool
from strainchain import recourse
from strainchain.recourse import (
    DUALITY_REL_TOL,
    RecourseError,
    RecourseSolution,
    RecourseSolver,
    cut_terms_from,
)
from strainchain.scenarios import RiskOverrides, retained_exports, sample_batch
from strainchain.simplex import (
    DEGENERATE_STEP,
    REFRESH_EVERY,
    LpSolution,
    SimplexError,
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


def reference_cut_terms(instance: Instance, scenario: Scenario, solution) -> tuple[float, dict]:
    """Cut terms from the solution's arrays read by position, one `+=` at a time.

    The sums are explicit loops because `sum()` of floats is compensated
    from Python 3.12 on and would round differently.
    """
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
        sol = solver.solve(design, scen)
        samples.append(fixed + sol.objective)
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
    """Scenario with explicit fields; retained exports and price derived."""
    demand = demand or {k: inst.demand_mean[k] for k in inst.countries}
    sup = sup or {i: 1.0 for i in inst.suppliers}
    pl = pl or {j: 1.0 for j in inst.plant_candidates}
    g = g or {k: 1 for k in inst.countries}
    ga = dict(ga) if ga else {k: 1 for k in inst.ally_group}
    for k in inst.ally_group:  # an open general flag always opens the ally flag
        if g[k] == 1:
            ga[k] = 1
    retained = retained_exports(inst, g, ga)
    return Scenario(
        supplier_avail=sup,
        plant_avail=pl,
        demand=demand,
        ban_general=g,
        ban_ally=ga,
        retained_exports=retained,
        price_increase=inst.beta * retained,
        probability=1.0,
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
        return dataclasses.replace(scen, supplier_avail={i: 0.0 for i in inst.suppliers})
    if corner == "zero_demand":
        return dataclasses.replace(scen, demand={k: 0.0 for k in inst.countries})
    if corner == "all_banning":
        return plain_scenario(
            inst,
            demand=scen.demand,
            sup=scen.supplier_avail,
            pl=scen.plant_avail,
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
        mean_q = sum(solver.solve(design, s).objective for s in scenarios) / len(scenarios)
        value = fixed + mean_q
        if value < best_val - 1e-12:
            best_val, best_design = value, design
    return best_val, best_design


def raw_lp_objective(inst: Instance, design: Design, scen: Scenario) -> float:
    """Independent oracle: explicit row formulation solved by scipy HiGHS."""
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


def solve_recourse(instance: Instance, design: Design, scenario: Scenario) -> RecourseSolution:
    return RecourseSolver(instance).solve(design, scenario)


def recourse_cut_terms(
    instance: Instance, scenario: Scenario, solution: RecourseSolution
) -> tuple[float, dict]:
    """Cut terms keyed by plant, with the tightness/duality guarantee re-verified."""
    constant, coeff = cut_terms_from(scenario, solution)
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


def pool_from_rows(constants, coefficients) -> CutPool:
    """A pool holding the (rows, G) constants and (rows, G, n) coefficients after its floor."""
    constants = np.asarray(constants, dtype=float)
    coefficients = np.asarray(coefficients, dtype=float)
    pool = CutPool(coefficients.shape[2], coefficients.shape[1])
    for const, coef in zip(constants, coefficients):
        pool.append(const, coef)
    return pool


def pool_from_cuts(plants, cuts) -> CutPool:
    """A one-group pool with one row per dict-keyed cut."""
    pool = CutPool(len(plants), 1)
    for cut in cuts:
        pool.append([cut.constant], [[cut.coeff[j] for j in plants]])
    return pool


def aggregated_pool(pool: CutPool) -> CutPool:
    """The one-group pool whose row k is the sum of row k's group cuts."""
    return pool_from_rows(
        pool.constants[1:].sum(axis=1, keepdims=True),
        pool.coefficients[1:].sum(axis=1, keepdims=True),
    )


def master_values(instance, plants, pool: CutPool) -> dict:
    """Master objective at every nonempty design, by brute force: bits -> value.

    fixed cost + sum over groups of max(0, largest cut of the group), each
    cut value a dot product (so only approximately the master's rounding).
    """
    fixed = np.array([instance.fixed_cost[j] for j in plants])
    values = {}
    for bits in itertools.product((0, 1), repeat=len(plants)):
        if any(bits):
            y = np.array(bits, dtype=float)
            cut_values = pool.constants + pool.coefficients @ y  # (rows, G), floor row 0
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

    Each call appends ((A, b, c, upper, basis), start inverse, solution); the
    start inverse is a copy, since the solver updates its own in place. A
    solve's basis pool is passed on, so a pooled answer is recorded as given.
    """
    lps = []

    def record(A, b, c, upper, basis, basis_inverse, pool=None):
        start = basis_inverse.copy()
        solution = solve_bounded_lp(A, b, c, upper, basis, basis_inverse=basis_inverse, pool=pool)
        lps.append(((A, b, c, upper, basis), start, solution))
        return solution

    monkeypatch.setattr(recourse, "solve_bounded_lp", record)
    return lps


def assert_same_lp_solution(got: LpSolution, ref: LpSolution) -> None:
    """Byte for byte, so the sign of a zero counts."""
    for name in ("x", "row_duals", "reduced_costs", "at_upper"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
    assert np.float64(got.objective).tobytes() == np.float64(ref.objective).tobytes()
    assert got.iterations == ref.iterations
