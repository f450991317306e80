"""Second-stage solver: exact flows, shortages, duals, and optimality cuts.

The scenario problem is a min-cost transshipment: raw material moves from
suppliers to open plants, drugs move from plants to countries, unmet demand
is absorbed by two parallel penalty arcs per country (a tranche at the
baseline price capped by the ban-shielded volume, the remainder at baseline
plus the scenario's price bump), and local excess is free. Export gates and
the shielded tranche are variable upper bounds, so the LP solved has one row
per supplier, plant, country, and plant-balance only. Duals for the gate and
tranche families are reconstructed from reduced costs; they are always
feasible for the row formulation, which is what makes the cuts valid at
every design.

Inside a solve everything is an array in the solver's fixed orders:
suppliers, plant candidates and countries as in the instance, then
supplier-plant arcs (`u_arcs`) and plant-country arcs (`v_arcs`), row-major.
A scenario's design-independent arrays (capacities, the demand right-hand
side net of retained exports, the shielded volumes and the gated arc
capacities) are built on its first solve and kept with the scenario. The
start basis (slacks, the S2 or E column of each country by the sign of its
right-hand side, and each plant's self-distribution column) has a 0/+-1
inverse in closed form, so a solve starts pivoting without factorizing.
Solutions hold flows and multipliers as arrays only, and cut terms come back
as one coefficient array in plant order. A solve may pass the simplex a pool
of earlier optimal bases; `saa.evaluate_design` keeps one per evaluation and
`lshaped.run_lshaped` one per iteration. A pooled answer may carry another
optimal dual than a solve from the start basis, so its cut may differ, but
it is still valid at every design and tight at its own. Only `verify` passes
none, so its checks come from LPs solved from the start basis. Every
answer, pooled or not, passes the same balance and strong-duality checks.
Dicts keyed by country or arc are built only at the JSON/CSV boundary and by
the structural diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .instance import Design, Instance, validate_design
from .scenarios import Scenario, ban_flags, retained_by_country
from .simplex import SimplexError, solve_bounded_lp
from .stats import ordered_sum

BALANCE_TOL = 1e-7       # absolute feasibility tolerance on balance rows
DUALITY_REL_TOL = 1e-6   # relative primal/dual agreement required per solve

GATE_SELF, GATE_ALLY, GATE_GENERAL = 0, 1, 2


class RecourseError(RuntimeError):
    """Numerical failure inside a scenario solve."""


@dataclass(frozen=True)
class ScenarioArrays:
    """A scenario's design-independent data in the solver's orders."""

    a_sup: np.ndarray          # supplier capacity x availability
    b_pl: np.ndarray           # plant capacity x availability
    demand: np.ndarray         # per country
    retained: np.ndarray       # exports each country keeps home
    rhs_dem: np.ndarray        # demand - retained, the demand rows' right-hand side
    shield: np.ndarray         # demand held at the baseline price while banning
    cap_u: np.ndarray          # origin capacity x export gate per supplier-plant arc
    cap_v: np.ndarray          # origin capacity x export gate per plant-country arc


@dataclass(frozen=True, eq=False)
class RecourseSolution:
    """One scenario solve as arrays, each in the solver's order for its kind:
    suppliers, plants or countries (`sup`, `pl`, `K`), or arcs (`u_arcs`,
    `v_arcs`)."""

    solver: RecourseSolver = field(repr=False)
    design: Design                      # the first-stage decision this solve used
    objective: float
    raw: np.ndarray                     # flow per supplier-plant arc
    drug: np.ndarray                    # flow per plant-country arc
    unmet: np.ndarray                   # shortage per country, both tranches
    escalated: np.ndarray               # the escalated tranche per country
    surplus: np.ndarray                 # leftover retained exports per country
    pi_supplier: np.ndarray             # supplier capacity rows (<= 0)
    pi_supply_gate: np.ndarray          # per supplier-plant arc, 0 on self arcs (<= 0)
    pi_plant: np.ndarray                # plant capacity rows (<= 0)
    pi_distribution_gate: np.ndarray    # per plant-country arc, 0 on self arcs (<= 0)
    pi_demand: np.ndarray               # demand rows (free sign)
    pi_balance: np.ndarray              # plant balance rows (free sign)
    pi_aux: np.ndarray                  # shielded-tranche bound per country (>= 0)


class RecourseSolver:
    """Reusable scenario solver; precomputes everything design-independent."""

    def __init__(self, instance: Instance):
        self.instance = instance
        K = list(instance.countries)
        self.K = K
        self.sup = list(instance.suppliers)
        self.pl = list(instance.plant_candidates)
        nI, nJ, nK = len(self.sup), len(self.pl), len(K)
        self.nI, self.nJ, self.nK = nI, nJ, nK
        kpos = {k: n for n, k in enumerate(K)}
        self.kpos = kpos

        ally_raw = instance.ally_supply_arcs()
        ally_dist = instance.ally_distribution_arcs()

        def gate_class(a: str, bnode: str, ally_arcs) -> int:
            if a == bnode:
                return GATE_SELF
            return GATE_ALLY if (a, bnode) in ally_arcs else GATE_GENERAL

        self.u_arcs = [(i, j) for i in self.sup for j in self.pl]
        self.v_arcs = [(j, k) for j in self.pl for k in K]
        self.u_gate = np.array(
            [gate_class(i, j, ally_raw) for i, j in self.u_arcs], dtype=np.int8
        )
        self.v_gate = np.array(
            [gate_class(j, k, ally_dist) for j, k in self.v_arcs], dtype=np.int8
        )
        self.u_cross = self.u_gate != GATE_SELF
        self.v_cross = self.v_gate != GATE_SELF
        self.u_origin = np.array([kpos[i] for i, _ in self.u_arcs])
        self.v_origin = np.array([kpos[j] for j, _ in self.v_arcs])
        self.u_plant = np.tile(np.arange(nJ), nI)     # plant position of each arc
        self.v_plant = np.repeat(np.arange(nJ), nK)

        nU, nV = nI * nJ, nJ * nK
        self.oU, self.oV = 0, nU
        self.oS1 = nU + nV
        self.oS2 = self.oS1 + nK
        self.oE = self.oS2 + nK
        self.oSlackS = self.oE + nK
        self.oSlackP = self.oSlackS + nI
        n = self.oSlackP + nJ
        m = nI + nJ + nK + nJ
        self.n, self.m = n, m
        self.rSup, self.rPl, self.rDem, self.rBal = (
            0,
            nI,
            nI + nJ,
            nI + nJ + nK,
        )

        A = np.zeros((m, n))
        for a, (i, j) in enumerate(self.u_arcs):
            si, pj = self.sup.index(i), self.pl.index(j)
            A[self.rSup + si, self.oU + a] = 1.0
            A[self.rBal + pj, self.oU + a] = 1.0
        for a, (j, k) in enumerate(self.v_arcs):
            pj = self.pl.index(j)
            A[self.rPl + pj, self.oV + a] = 1.0
            A[self.rDem + kpos[k], self.oV + a] = 1.0
            A[self.rBal + pj, self.oV + a] = -1.0
        for kn in range(nK):
            A[self.rDem + kn, self.oS1 + kn] = 1.0
            A[self.rDem + kn, self.oS2 + kn] = 1.0
            A[self.rDem + kn, self.oE + kn] = -1.0
        A[self.rSup : self.rSup + nI, self.oSlackS : self.oSlackS + nI] = np.eye(nI)
        A[self.rPl : self.rPl + nJ, self.oSlackP : self.oSlackP + nJ] = np.eye(nJ)
        self.A = A

        base_cost = np.zeros(n)
        for a, (i, j) in enumerate(self.u_arcs):
            base_cost[self.oU + a] = instance.raw_cost[i] + instance.transport1[(i, j)]
        for a, (j, k) in enumerate(self.v_arcs):
            base_cost[self.oV + a] = instance.production_cost[j] + instance.transport2[(j, k)]
        price = np.array([instance.shortage_price[k] for k in K])
        base_cost[self.oS1 : self.oS1 + nK] = price
        base_cost[self.oS2 : self.oS2 + nK] = price  # price bump added per scenario
        self.base_cost = base_cost
        self.raw_unit_cost = base_cost[self.oU : self.oV]
        self.drug_unit_cost = base_cost[self.oV : self.oS1]
        self.shortage_price = price

        self.sup_capacity = np.array([instance.supplier_capacity[i] for i in self.sup])
        self.pl_capacity = np.array([instance.plant_capacity[j] for j in self.pl])
        self.plant_mask = np.array([k in set(self.pl) for k in K])
        self.plant_kpos = np.array([kpos[j] for j in self.pl])

        # start basis with every country on its S2 column, and its inverse:
        # rows Sup [I 0 0 0], Pl [0 I 0 I], Dem [0 0 I P], Bal [0 0 0 -I]
        # (P maps each plant's balance row to its country's demand row); a
        # country started on E instead has its Dem row negated
        self_v = self.oV + np.arange(nJ) * nK + self.plant_kpos
        self.start_basis_s2 = np.concatenate(
            [
                self.oSlackS + np.arange(nI),
                self.oSlackP + np.arange(nJ),
                self.oS2 + np.arange(nK),
                self_v,
            ]
        )
        inv = np.eye(m)
        pj = np.arange(nJ)
        inv[self.rPl + pj, self.rBal + pj] = 1.0
        inv[self.rDem + self.plant_kpos, self.rBal + pj] = 1.0
        inv[self.rBal + pj, self.rBal + pj] = -1.0
        self.start_inverse_s2 = inv

    # -- scenario/design dependent pieces ---------------------------------

    def arrays(self, scenario: Scenario) -> ScenarioArrays:
        """The scenario's arrays, built on its first solve and kept with it."""
        memo = scenario._arrays
        if memo is not None and memo[0] is self.instance:
            return memo[1]
        nJ, nK = self.nJ, self.nK
        a_sup = self.sup_capacity * np.array([scenario.supplier_avail[i] for i in self.sup])
        b_pl = self.pl_capacity * np.array([scenario.plant_avail[j] for j in self.pl])
        demand = np.array([scenario.demand[k] for k in self.K])
        flags = ban_flags(self.instance, scenario.ban_general, scenario.ban_ally)
        kept = retained_by_country(self.instance, flags)
        retained = kept[:, 0] + kept[:, 1]
        gate_u = self._gate_values(self.u_gate, self.u_origin, flags)
        gate_v = self._gate_values(self.v_gate, self.v_origin, flags)
        arrays = ScenarioArrays(
            a_sup=a_sup,
            b_pl=b_pl,
            demand=demand,
            retained=retained,
            rhs_dem=demand - retained,
            shield=demand * (1.0 - flags[:, 0]),
            cap_u=np.repeat(a_sup, nJ) * gate_u,
            cap_v=np.repeat(b_pl, nK) * gate_v,
        )
        object.__setattr__(scenario, "_arrays", (self.instance, arrays))
        return arrays

    def _gate_values(self, gate_class: np.ndarray, origin: np.ndarray, flags) -> np.ndarray:
        vals = np.ones(len(gate_class))
        general = gate_class == GATE_GENERAL
        vals[general] = flags[origin[general], 0]
        ally = gate_class == GATE_ALLY
        vals[ally] = flags[origin[ally], 1]
        return vals

    def start_basis(self, rhs_dem: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Feasible start basis for the given demand right-hand side, and its inverse."""
        basis = self.start_basis_s2.copy()
        inverse = self.start_inverse_s2.copy()
        short_rows = np.flatnonzero(rhs_dem < 0)
        basis[self.rDem + short_rows] = self.oE + short_rows
        inverse[self.rDem + short_rows] *= -1.0
        return basis, inverse

    def solve(
        self, design: Design, scenario: Scenario, pool: list | None = None
    ) -> RecourseSolution:
        """Solve one scenario at a design; `pool`, when given, is the
        simplex's basis pool (see `simplex`), kept by the caller."""
        validate_design(self.instance, design)
        nI, nJ, nK = self.nI, self.nJ, self.nK
        data = self.arrays(scenario)
        y = np.array([float(design.open[j]) for j in self.pl])

        cost = self.base_cost.copy()
        cost[self.oS2 : self.oS2 + nK] += scenario.price_increase

        upper = np.full(self.n, np.inf)
        # cross-country arcs are capped by origin capacity x export gate x Y;
        # self arcs stay unbounded (capacity and balance rows still bind them)
        upper[self.oU : self.oU + nI * nJ] = np.where(
            self.u_cross, data.cap_u * y[self.u_plant], np.inf
        )
        upper[self.oV : self.oV + nJ * nK] = np.where(
            self.v_cross, data.cap_v * y[self.v_plant], np.inf
        )
        # shielded tranche: only a country with its own open plant and an
        # active general ban keeps its demand at the baseline price
        y_country = np.zeros(nK)
        y_country[self.plant_kpos] = y
        upper[self.oS1 : self.oS1 + nK] = np.where(
            self.plant_mask, data.shield * y_country, 0.0
        )

        b = np.concatenate([data.a_sup, data.b_pl * y, data.rhs_dem, np.zeros(nJ)])
        basis, inverse = self.start_basis(data.rhs_dem)
        try:
            sol = solve_bounded_lp(self.A, b, cost, upper, basis, basis_inverse=inverse, pool=pool)
        except SimplexError as exc:
            raise RecourseError(f"scenario solve failed: {exc}") from exc

        return self._package(sol, design, scenario, data, y)

    def _package(self, sol, design, scenario, data, y):
        nI, nJ, nK = self.nI, self.nJ, self.nK
        x = sol.x
        u_vals = x[self.oU : self.oU + nI * nJ]
        v_vals = x[self.oV : self.oV + nJ * nK]
        s1 = x[self.oS1 : self.oS1 + nK]
        s2 = x[self.oS2 : self.oS2 + nK]
        e = x[self.oE : self.oE + nK]

        inflow = u_vals.reshape(nI, nJ).sum(axis=0)
        outflow = v_vals.reshape(nJ, nK).sum(axis=1)
        scale = 1.0 + float(np.abs(sol.x).max(initial=0.0))
        if np.abs(inflow - outflow).max(initial=0.0) > BALANCE_TOL * scale:
            raise RecourseError("flow balance residual beyond tolerance")
        served = v_vals.reshape(nJ, nK).sum(axis=0)
        residual = served + s1 + s2 - e + data.retained - data.demand
        if np.abs(residual).max(initial=0.0) > BALANCE_TOL * scale:
            raise RecourseError("demand balance residual beyond tolerance")

        y_rows = sol.row_duals
        rc = sol.reduced_costs
        gate_dual_u = np.minimum(0.0, rc[self.oU : self.oU + nI * nJ])
        gate_dual_u[~self.u_cross] = 0.0
        gate_dual_v = np.minimum(0.0, rc[self.oV : self.oV + nJ * nK])
        gate_dual_v[~self.v_cross] = 0.0

        solution = RecourseSolution(
            solver=self,
            design=design,
            objective=sol.objective,
            raw=u_vals,
            drug=v_vals,
            unmet=s1 + s2,
            escalated=s2,
            surplus=e,
            pi_supplier=np.minimum(0.0, y_rows[self.rSup : self.rSup + nI]),
            pi_supply_gate=gate_dual_u,
            pi_plant=np.minimum(0.0, y_rows[self.rPl : self.rPl + nJ]),
            pi_distribution_gate=gate_dual_v,
            pi_demand=y_rows[self.rDem : self.rDem + nK],
            pi_balance=y_rows[self.rBal : self.rBal + nJ],
            pi_aux=np.maximum(0.0, -rc[self.oS1 : self.oS1 + nK]),
        )

        const, coeff = cut_terms_from(scenario, solution)
        tight = const + float(coeff @ y)
        tol = DUALITY_REL_TOL * max(1.0, abs(solution.objective))
        if abs(tight - solution.objective) > tol:
            raise RecourseError(
                f"duality violation: dual value {tight!r} vs objective {solution.objective!r}"
            )
        return solution


# -- optimality-cut terms ----------------------------------------------------


def cut_terms_from(scenario: Scenario, solution: RecourseSolution) -> tuple[float, np.ndarray]:
    """Affine minorant of the scenario cost as a function of the design.

    constant + coeff @ Y underestimates the scenario's optimal cost at every
    feasible design (Y in plant order) and matches it at the design that
    produced the solution. The constant adds the supplier terms, then the
    demand terms; coeff[j] adds plant j's supply-gate terms in supplier
    order, its capacity term, its distribution-gate terms in country order
    and its shield term, each one at a time (see `ordered_sum`).
    """
    s = solution.solver
    data = s.arrays(scenario)
    constant = ordered_sum(
        np.concatenate(
            (solution.pi_supplier * data.a_sup, solution.pi_demand * data.rhs_dem)
        )
    )
    shield = data.shield[s.plant_kpos]
    terms = np.concatenate(
        (
            (solution.pi_supply_gate * data.cap_u).reshape(s.nI, s.nJ),
            (solution.pi_plant * data.b_pl)[None],
            (solution.pi_distribution_gate * data.cap_v).reshape(s.nJ, s.nK).T,
            (solution.pi_aux[s.plant_kpos] * -shield)[None],
        )
    )
    return float(constant), ordered_sum(terms)


# -- structural diagnostics ---------------------------------------------------


def check_structural_theorems(
    instance: Instance,
    design: Design,
    scenario: Scenario,
    solution: RecourseSolution,
    tol: float = 1e-6,
) -> list:
    """Diagnostics on an optimal solution; returns human-readable violations.

    Three families of checks:
    - retained exports that cover a banning country's demand must leave it
      with zero shortage, zero inflow, and the implied excess;
    - every positive drug flow needs an open trade route and at least one
      supplier route whose full delivery chain beats the penalty saved;
    - no plant may keep serving a destination when rerouting one unit to a
      strictly more penalized, reachable, undersupplied destination would pay.
    """
    violations: list[str] = []
    ally_group = set(instance.ally_group)
    ally_raw = instance.ally_supply_arcs()
    ally_dist = instance.ally_distribution_arcs()
    co = scenario.price_increase
    g, ga = scenario.ban_general, scenario.ban_ally
    d = scenario.demand
    s = solution.solver
    drug_flow = dict(zip(s.v_arcs, solution.drug.tolist()))
    shortage = dict(zip(s.K, solution.unmet.tolist()))
    excess = dict(zip(s.K, solution.surplus.tolist()))
    inflow = {
        k: sum(drug_flow[(j, k)] for j in instance.plant_candidates)
        for k in instance.countries
    }

    def shield_cap(k: str) -> float:
        if k in instance.plant_candidates and design.open[k]:
            return d[k] * (1 - g[k])
        return 0.0

    # retained exports covering demand force the market shut
    for k in instance.countries:
        e_gen = instance.exports_general[k]
        e_c1 = instance.exports_to_c1[k]
        hit = False
        expected_excess = None
        if k not in ally_group:
            if g[k] == 0 and e_gen + e_c1 >= d[k] - tol:
                hit = True
                expected_excess = e_gen + e_c1 - d[k]
        else:
            if g[k] == 0 and e_gen >= d[k] - tol:
                hit = True
            if ga[k] == 0 and e_c1 >= d[k] - tol:
                hit = True
            if g[k] == 0 and ga[k] == 0 and e_gen + e_c1 >= d[k] - tol:
                hit = True
                expected_excess = e_gen + e_c1 - d[k]
        if not hit:
            continue
        scale = 1.0 + abs(d[k])
        if shortage[k] > tol * scale:
            violations.append(f"covered-market: shortage {shortage[k]!r} at {k}")
        if inflow[k] > tol * scale:
            violations.append(f"covered-market: inflow {inflow[k]!r} into {k}")
        if expected_excess is not None and abs(excess[k] - expected_excess) > tol * scale:
            violations.append(
                f"covered-market: excess {excess[k]!r} at {k}, expected {expected_excess!r}"
            )

    def route_open(a: str, bnode: str, ally_arcs) -> bool:
        if a == bnode:
            return True
        if (a, bnode) in ally_arcs:
            return bool(ga[a])
        return bool(g[a])

    # positive flows need open routes and a profitable supplier chain
    for (j, k), flow in drug_flow.items():
        if flow <= tol * (1.0 + d.get(k, 0.0)):
            continue
        if not route_open(j, k, ally_dist):
            violations.append(f"flow-necessity: {j}->{k} positive despite a closed route")
            continue
        chain_ok = False
        for i in instance.suppliers:
            if instance.supplier_capacity[i] * scenario.supplier_avail[i] <= tol:
                continue
            if not route_open(i, j, ally_raw):
                continue
            chain = (
                instance.raw_cost[i]
                + instance.transport1[(i, j)]
                + instance.production_cost[j]
                + instance.transport2[(j, k)]
            )
            if instance.shortage_price[k] + co > chain - tol:
                chain_ok = True
                break
        if not chain_ok:
            violations.append(
                f"flow-necessity: {j}->{k} positive but no supplier chain beats the penalty"
            )

    # priority rule: one-unit reroute from a served destination to a hungrier one
    price = instance.shortage_price
    for j in instance.plant_candidates:
        if not design.open[j]:
            continue
        b_eff = instance.plant_capacity[j] * scenario.plant_avail[j]
        for k2 in instance.countries:
            flow = drug_flow[(j, k2)]
            if flow <= tol * (1.0 + d[k2]):
                continue
            # marginal relief at the currently served destination (upper estimate)
            if excess[k2] > tol * (1.0 + d[k2]):
                out_rate = 0.0
            else:
                bump2 = co if shortage[k2] >= shield_cap(k2) - tol else 0.0
                out_rate = price[k2] + bump2
            for k1 in instance.countries:
                if k1 == k2:
                    continue
                s1 = shortage[k1]
                if s1 <= tol * (1.0 + d[k1]):
                    continue
                if not route_open(j, k1, ally_dist):
                    continue
                if j != k1:
                    gate = ga[j] if (j, k1) in ally_dist else g[j]
                    if drug_flow[(j, k1)] >= b_eff * gate * design.open[j] - tol * (
                        1.0 + b_eff
                    ):
                        continue  # arc already at capacity
                bump1 = co if s1 > shield_cap(k1) + tol else 0.0
                gain = (
                    (price[k1] + bump1 - instance.transport2[(j, k1)])
                    - (out_rate - instance.transport2[(j, k2)])
                )
                if gain > tol * (1.0 + abs(price[k1]) + abs(price[k2]) + co):
                    violations.append(
                        f"priority: {j} serves {k2} while rerouting one unit to {k1} "
                        f"saves {gain!r}"
                    )
    return violations
