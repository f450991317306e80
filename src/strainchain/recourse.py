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

The LP's matrix `RecourseSolver.A` is totally unimodular (TU): every
square submatrix has determinant 0 or +-1. Its rows are supplier capacity,
plant capacity, country demand and plant balance; its columns the
supplier-plant and plant-country arcs, S1, S2 and E per country, and the
supplier and plant slacks. Proof: split each plant j into an in-node and
an out-node joined by an arc t_j. The supplier->in, t_j and out->country
arcs form a directed graph, and its node-arc incidence matrix (+1 at an
arc's tail, -1 at its head) is TU. Appending a unit row per plant (its
capacity: a 1 at t_j) and unit columns (a 1 in each supplier row and in
each capacity row for the slacks, a -1 in each country row for S1 and S2
and a +1 for E) keeps it TU, by expanding a determinant along the unit
row or column. Pivoting on a +-1 entry keeps a matrix TU (Schrijver 1986,
chapter 19), and so does taking a submatrix. Pivot on each t_j in its
out-node row (the -1 of t_j and a +1 per drug arc out of j), then delete
that row and column t_j: the pivot adds the out-node row to j's in-node
and capacity rows and changes no other row. The in-node row becomes the
negated balance row (-1 per raw arc into j, +1 per drug arc out), the
capacity row becomes the plant capacity row (the drug arcs out of j and
j's slack), and each country row is the negated demand row. Negating rows
keeps a matrix TU, so A is TU. Hence every basis inverse and every
entering column B^-1 a is 0/+-1, which `simplex` relies on to keep its
inverses exact without factorizing. An exhaustive Ghouila-Houri (1962)
row-split check confirms it on small shapes in the tests.

Inside a solve everything is an array in the solver's fixed orders:
suppliers, plant candidates and countries as in the instance (a sampled
`Scenario` is already arrays in these orders), then supplier-plant arcs
(`u_arcs`) and plant-country arcs (`v_arcs`), row-major. The
design-independent arrays of the scenarios solved at one design
(capacities, the demand right-hand side net of retained exports, the
shielded volumes and the gated arc capacities) are derived as (n, .) stacks
in one step per `RecourseSolver.batches` call (`RecourseSolver.arrays`). The
start basis (slacks, the S2 or E column of each country by the sign of its
right-hand side, and each plant's self-distribution column) has a 0/+-1
inverse in closed form, so a solve starts pivoting without factorizing; it
is built only when no pooled basis answers the LP.

The scenarios solved at one design are solved in batches
(`RecourseSolver.batches`), after the design is checked once. A
`ScenarioBatch` takes k rows of those stacks and builds its right-hand
sides, costs, upper bounds and, in the decomposition, perturbed (b', u') as
(k, .) arrays in one step. `RecourseSolver.solve` answers one row with one
simplex call and stores the answer in the batch's stacks. Once every row is answered,
`ScenarioBatch.check` derives the flows, the gate and tranche duals and the
cut terms (`cut_terms_from`: (k,) constants and (k, J) coefficients in plant
order) over the whole stack and checks every row's balances and strong
duality; a failure names the row's scenario. Each sum runs along one row in
the order a loop over that scenario adds it, so a batch answers bit for bit
as k single solves. A batch holds at most BATCH_LIMIT floats per (k, n)
stack, so a long scenario list (an evaluation's N' = 300 on 1,292 columns)
comes in several batches, whose totals the callers carry from one to the
next. A `RecourseSolution` is one row of a checked batch; a single LP is
solved as a batch of one.

A solve may pass the simplex a pool of earlier optimal bases;
`saa.evaluate_design` keeps one per evaluation and `lshaped.run_lshaped`
one per iteration. A pooled answer may carry another optimal dual than a
solve from the start basis, so its cut may differ, but it is still valid
at every design and tight at its own. Only `verify` passes
none, so its checks come from LPs solved from the start basis.
A solver may also hold an answer table (see `simplex`), which it passes
with every solve: an LP whose b, costs, bounds and perturbation the table
holds is answered from it without the pool or a pivot. `saa.run_saa` gives
its solver the table of its `SaaMemo`, so only LPs repeated across the
`run_saa` calls of one study (or within one) are answered this way; a
solver made without one, as in `evaluate` and `verify`, builds none. The
table sits inside the one simplex call a solve makes, so every answer, from
the table or not, still passes the batch's checks.
Dicts keyed by country or arc are built only at the JSON/CSV boundary and by
the structural diagnostics.

The transshipment's dual is degenerate: at a closed plant the capacity
row's dual, which sets the plant's cut coefficient, can take a range of
optimal values. The decomposition's solves (`pareto`) therefore also pass
the simplex the right-hand side and bounds at the openings perturbed toward
the core point, y + PARETO_STEP (CORE_POINT - y), and take the duals of a
basis optimal at both points when the simplex finds one. Among the optimal
duals at y these maximize the dual value at the core point (Magnanti and
Wong 1981, from one perturbed right-hand side as in Sherali and Lunday
2013), so the cut is Pareto-optimal; it stays valid at every design, and
the certificate at y keeps it tight. The flows and the objective are the
unperturbed answer's. Evaluation and `verify` pass no perturbation. Every
answer, pooled, perturbed or not, passes the same balance and
strong-duality checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .instance import Design, Instance, validate_design
from .scenarios import Scenario, retained_by_country
from .simplex import SimplexError, solve_bounded_lp
from .stats import ordered_sum

BALANCE_TOL = 1e-7       # absolute feasibility tolerance on balance rows
DUALITY_REL_TOL = 1e-6   # relative primal/dual agreement required per solve
PARETO_STEP = 1e-6       # mu: a `pareto` solve perturbs the openings y to y + mu (y0 - y)
CORE_POINT = 0.5         # y0, every plant half open: inside the hull of the designs
BATCH_LIMIT = 1 << 12    # floats in one (k, n) stack of a batch, k <= BATCH_LIMIT // n (32 KB)


class RecourseError(RuntimeError):
    """Numerical failure inside a scenario solve."""


@dataclass(frozen=True)
class ScenarioArrays:
    """Scenarios' design-independent data as (n, .) stacks, one row per
    scenario, in the solver's orders."""

    a_sup: np.ndarray          # supplier capacity x availability
    b_pl: np.ndarray           # plant capacity x availability
    demand: np.ndarray         # per country
    retained: np.ndarray       # exports each country keeps home
    rhs_dem: np.ndarray        # demand - retained, the demand rows' right-hand side
    shield: np.ndarray         # demand held at the baseline price while banning
    cap_u: np.ndarray          # origin capacity x export gate per supplier-plant arc
    cap_v: np.ndarray          # origin capacity x export gate per plant-country arc
    price_increase: np.ndarray  # the scenario's bump on the escalated tranche, (n,)

    def rows(self, start: int, stop: int) -> ScenarioArrays:
        """The stacks' rows start to stop, as views."""
        return ScenarioArrays(*(getattr(self, f.name)[start:stop] for f in fields(self)))


@dataclass(frozen=True, eq=False)
class RecourseSolution:
    """One scenario solve: row `row` of a checked `ScenarioBatch`, as views
    of its stacks, each in the solver's order for its kind: suppliers,
    plants or countries (`sup`, `pl`, `K`), or arcs (`u_arcs`, `v_arcs`)."""

    batch: ScenarioBatch = field(repr=False)
    row: int
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
    kept_dual: bool = False             # a `pareto` solve that kept the unperturbed dual

    @property
    def solver(self) -> RecourseSolver:
        return self.batch.solver

    @property
    def design(self) -> Design:
        """The first-stage decision this solve used."""
        return self.batch.design


# the fields a solution takes from a batch's stacks: `raw` to `pi_aux`
SOLUTION_STACKS = tuple(f.name for f in fields(RecourseSolution))[3:-1]


class ScenarioBatch:
    """The LPs of k scenarios at one design as (k, .) stacks; row s is the
    scenario `first + s` of the caller's list.

    Built in one step: `data` holds the scenarios' rows of the solver's
    `ScenarioArrays`, `b`, `cost` and `upper` the LPs, and `perturbed`, for
    a `pareto` batch, their (b', u') at the openings perturbed toward
    CORE_POINT.
    `RecourseSolver.solve` stores row s's answer in `x`, `row_duals`,
    `reduced_costs`, `objective` and `kept_dual`; `check` then sets the
    flows and multipliers, named as in `RecourseSolution`, and checks
    every row.
    """

    def __init__(
        self,
        solver: RecourseSolver,
        design: Design,
        y: np.ndarray,
        data: ScenarioArrays,
        first: int,
        pareto: bool,
    ):
        self.solver, self.design, self.y, self.data, self.first = solver, design, y, data, first
        self.size = k = len(data.a_sup)
        self.cost = np.repeat(solver.base_cost[None], k, axis=0)
        self.cost[:, solver.oS2 : solver.oS2 + solver.nK] += data.price_increase[:, None]
        self.b, self.upper = solver.rhs_and_bounds(self.data, y)
        self.perturbed = None
        if pareto:
            y_mu = y + PARETO_STEP * (CORE_POINT - y)
            self.perturbed = solver.rhs_and_bounds(self.data, y_mu)
        self.x = np.empty((k, solver.n))
        self.row_duals = np.empty((k, solver.m))
        self.reduced_costs = np.empty((k, solver.n))
        self.objective = np.empty(k)
        self.kept_dual = np.zeros(k, dtype=bool)

    def _fail(self, bad: np.ndarray, what: str, **values: np.ndarray) -> None:
        """Raise naming the first bad row's scenario; `what` is formatted
        with that row's entry of each of `values`."""
        rows = np.flatnonzero(bad)
        if rows.size:
            s = int(rows[0])
            detail = what.format(**{name: float(v[s]) for name, v in values.items()})
            raise RecourseError(f"scenario {self.first + s}: {detail}")

    def check(self) -> None:
        """Set the flows and multipliers from the stored answers and check
        every row: flow balance, demand balance, then strong duality of its
        cut at the design. Gate and tranche duals come from reduced costs."""
        s, k = self.solver, self.size
        nI, nJ, nK = s.nI, s.nJ, s.nK
        x = self.x
        self.raw = x[:, s.oU : s.oU + nI * nJ]
        self.drug = x[:, s.oV : s.oV + nJ * nK]
        s1 = x[:, s.oS1 : s.oS1 + nK]
        self.escalated = s2 = x[:, s.oS2 : s.oS2 + nK]
        self.surplus = e = x[:, s.oE : s.oE + nK]
        self.unmet = s1 + s2

        drug = self.drug.reshape(k, nJ, nK)
        inflow = self.raw.reshape(k, nI, nJ).sum(axis=1)
        scale = 1.0 + np.abs(x).max(axis=1, initial=0.0)
        residual = np.abs(inflow - drug.sum(axis=2)).max(axis=1, initial=0.0)
        self._fail(residual > BALANCE_TOL * scale, "flow balance residual beyond tolerance")
        data = self.data
        residual = drug.sum(axis=1) + s1 + s2 - e + data.retained - data.demand
        residual = np.abs(residual).max(axis=1, initial=0.0)
        self._fail(residual > BALANCE_TOL * scale, "demand balance residual beyond tolerance")

        y_rows, rc = self.row_duals, self.reduced_costs
        self.pi_supplier = np.minimum(0.0, y_rows[:, s.rSup : s.rSup + nI])
        self.pi_supply_gate = np.where(
            s.u_cross, np.minimum(0.0, rc[:, s.oU : s.oU + nI * nJ]), 0.0
        )
        self.pi_plant = np.minimum(0.0, y_rows[:, s.rPl : s.rPl + nJ])
        self.pi_distribution_gate = np.where(
            s.v_cross, np.minimum(0.0, rc[:, s.oV : s.oV + nJ * nK]), 0.0
        )
        self.pi_demand = y_rows[:, s.rDem : s.rDem + nK]
        self.pi_balance = y_rows[:, s.rBal : s.rBal + nJ]
        self.pi_aux = np.maximum(0.0, -rc[:, s.oS1 : s.oS1 + nK])

        constants, coefficients = cut_terms_from(self)
        tight = constants + coefficients @ self.y
        objective = self.objective
        tol = DUALITY_REL_TOL * np.maximum(1.0, np.abs(objective))
        self._fail(
            np.abs(tight - objective) > tol,
            "duality violation: dual value {tight!r} vs objective {objective!r}",
            tight=tight,
            objective=objective,
        )

    def solution(self, s: int) -> RecourseSolution:
        """Row s of a checked batch."""
        return RecourseSolution(
            self, s, float(self.objective[s]),
            *(getattr(self, name)[s] for name in SOLUTION_STACKS),
            kept_dual=bool(self.kept_dual[s]),
        )


class RecourseSolver:
    """Reusable scenario solver; precomputes everything design-independent.

    `answers`, when given, is the simplex's answer table for this instance's
    LPs (see `simplex`), passed with every solve and kept by the caller.
    """

    def __init__(self, instance: Instance, answers: dict | None = None):
        self.instance = instance
        self.answers = answers
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
        self_gate = 2 * nK

        # each arc's export gate as a column of the gate table in `arrays`:
        # its origin's general flag (2 k) or c1/ally flag (2 k + 1), or the
        # last column, all ones, on a self arc
        def gate_column(a: str, bnode: str, ally_arcs) -> int:
            if a == bnode:
                return self_gate
            return 2 * kpos[a] + ((a, bnode) in ally_arcs)

        self.u_arcs = [(i, j) for i in self.sup for j in self.pl]
        self.v_arcs = [(j, k) for j in self.pl for k in K]
        self.u_gate = np.array([gate_column(i, j, ally_raw) for i, j in self.u_arcs])
        self.v_gate = np.array([gate_column(j, k, ally_dist) for j, k in self.v_arcs])
        self.u_cross = self.u_gate != self_gate
        self.v_cross = self.v_gate != self_gate
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

    def arrays(self, scenarios: list[Scenario]) -> ScenarioArrays:
        """The scenarios' design-independent arrays, (n, .) stacks in one step."""
        n = len(scenarios)
        a_sup = self.sup_capacity * np.stack([scen.supplier_avail for scen in scenarios])
        b_pl = self.pl_capacity * np.stack([scen.plant_avail for scen in scenarios])
        demand = np.stack([scen.demand for scen in scenarios])
        flags = np.stack([scen.flags for scen in scenarios])
        kept = retained_by_country(self.instance, flags)
        retained = kept[..., 0] + kept[..., 1]
        gates = np.ones((n, 2 * self.nK + 1))
        gates[:, :-1] = flags.reshape(n, -1)
        # origin capacity x gate, multiplied in place: arcs are origin-major
        cap_u = gates[:, self.u_gate].reshape(n, self.nI, self.nJ)
        cap_u *= a_sup[:, :, None]
        cap_v = gates[:, self.v_gate].reshape(n, self.nJ, self.nK)
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

    def start_basis(self, rhs_dem: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Feasible start basis for the given demand right-hand side, and its inverse."""
        basis = self.start_basis_s2.copy()
        inverse = self.start_inverse_s2.copy()
        short_rows = np.flatnonzero(rhs_dem < 0)
        basis[self.rDem + short_rows] = self.oE + short_rows
        inverse[self.rDem + short_rows] *= -1.0
        return basis, inverse

    def batches(
        self, design: Design, scenarios: list, pool: list | None = None, pareto: bool = False
    ):
        """Solve the scenarios at a design; yields checked `ScenarioBatch`es
        of at most max(1, BATCH_LIMIT // n) rows, in scenario order.

        The scenarios' arrays are derived once (`arrays`) and each batch
        takes its rows. Each LP is one `solve` call, given `pool`; with
        `pareto` the batches also hold the LPs perturbed toward CORE_POINT
        (see `solve`).
        """
        validate_design(self.instance, design)
        y = np.array([float(design.open[j]) for j in self.pl])
        data = self.arrays(scenarios)
        rows = max(1, BATCH_LIMIT // self.n)
        for first in range(0, len(scenarios), rows):
            batch = ScenarioBatch(self, design, y, data.rows(first, first + rows), first, pareto)
            for s in range(batch.size):
                self.solve(batch, s, pool)
            batch.check()
            yield batch

    def solve(self, batch: ScenarioBatch, s: int, pool: list | None = None) -> None:
        """Solve row s of a batch and store its answer in the batch's stacks.

        `pool`, when given, is the simplex's basis pool (see `simplex`), kept
        by the caller. The duals of a batch built with `pareto` come from a
        basis also optimal at the openings perturbed toward CORE_POINT, when
        the simplex finds one.
        """
        rhs_dem = batch.data.rhs_dem[s]
        perturbed = batch.perturbed
        if perturbed is not None:
            perturbed = (perturbed[0][s], perturbed[1][s])
        try:
            sol = solve_bounded_lp(
                self.A,
                batch.b[s],
                batch.cost[s],
                batch.upper[s],
                lambda: self.start_basis(rhs_dem),
                pool=pool,
                perturbed=perturbed,
                answers=self.answers,
            )
        except SimplexError as exc:
            raise RecourseError(f"scenario {batch.first + s}: solve failed: {exc}") from exc
        batch.x[s] = sol.x
        batch.row_duals[s] = sol.row_duals
        batch.reduced_costs[s] = sol.reduced_costs
        batch.objective[s] = sol.objective
        batch.kept_dual[s] = sol.kept_dual

    def rhs_and_bounds(self, data: ScenarioArrays, y: np.ndarray):
        """The (k, m) right-hand sides and (k, n) column upper bounds of
        stacked scenario data at plant openings y."""
        nI, nJ, nK = self.nI, self.nJ, self.nK
        k = len(data.a_sup)
        upper = np.full((k, self.n), np.inf)
        # cross-country arcs are capped by origin capacity x export gate x Y;
        # self arcs stay unbounded (capacity and balance rows still bind them)
        upper[:, self.oU : self.oU + nI * nJ] = np.where(
            self.u_cross, data.cap_u * y[self.u_plant], np.inf
        )
        upper[:, self.oV : self.oV + nJ * nK] = np.where(
            self.v_cross, data.cap_v * y[self.v_plant], np.inf
        )
        # shielded tranche: only a country with its own open plant and an
        # active general ban keeps its demand at the baseline price
        y_country = np.zeros(nK)
        y_country[self.plant_kpos] = y
        upper[:, self.oS1 : self.oS1 + nK] = np.where(
            self.plant_mask, data.shield * y_country, 0.0
        )
        b = np.concatenate([data.a_sup, data.b_pl * y, data.rhs_dem, np.zeros((k, nJ))], axis=1)
        return b, upper


# -- optimality-cut terms ----------------------------------------------------


def cut_terms_from(batch: ScenarioBatch) -> tuple[np.ndarray, np.ndarray]:
    """Affine minorants of the batch's scenario costs as functions of the design.

    Returns (k,) constants and (k, J) coefficients: constants[s] +
    coefficients[s] @ Y underestimates scenario s's optimal cost at every
    feasible design (Y in plant order) and matches it at the batch's design.
    A constant adds the supplier terms, then the demand terms; coefficient
    j adds plant j's supply-gate terms in supplier order, its capacity term,
    its distribution-gate terms in country order and its shield term, each
    one at a time (see `ordered_sum`), row by row.
    """
    s, data, k = batch.solver, batch.data, batch.size
    constants = ordered_sum(
        np.concatenate((batch.pi_supplier * data.a_sup, batch.pi_demand * data.rhs_dem), axis=1),
        axis=1,
    )
    shield = data.shield[:, s.plant_kpos]
    terms = np.concatenate(
        (
            (batch.pi_supply_gate * data.cap_u).reshape(k, s.nI, s.nJ),
            (batch.pi_plant * data.b_pl)[:, None],
            (batch.pi_distribution_gate * data.cap_v).reshape(k, s.nJ, s.nK).transpose(0, 2, 1),
            (batch.pi_aux[:, s.plant_kpos] * -shield)[:, None],
        ),
        axis=1,
    )
    return constants, ordered_sum(terms, axis=1)


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
    s = solution.solver
    flags = scenario.flags.tolist()
    g = {k: f[0] for k, f in zip(s.K, flags)}    # general flag
    ga = {k: f[1] for k, f in zip(s.K, flags)}   # c1/ally channel flag
    d = dict(zip(s.K, scenario.demand.tolist()))
    supplier_avail = dict(zip(s.sup, scenario.supplier_avail.tolist()))
    plant_avail = dict(zip(s.pl, scenario.plant_avail.tolist()))
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
            if instance.supplier_capacity[i] * supplier_avail[i] <= tol:
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
        b_eff = instance.plant_capacity[j] * plant_avail[j]
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
