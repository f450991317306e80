"""Replicated sampling driver: statistical bounds around the sampled optimum.

Each pass runs M independent replications one after another, solves each
replication's sampled problem exactly with the decomposition loop,
evaluates every candidate design on one shared evaluation batch (common
random numbers), and forms a confidence lower bound from the replication
objectives and an upper bound at the chosen design. Passes repeat with
fresh counter-derived seeds until the statistical gap closes or the pass
cap is hit.

A `SaaMemo` lets the `run_saa` calls of one study share work. It holds
replication outcomes (objective, design) and design evaluations, each under
the same `Instance` object only and keyed by every input the computation
reads: a replication by pass, replication index, base seed, N, optimize
overrides, inner tolerance, forced plants and iteration cap; an evaluation
by pass, base seed, N', evaluate overrides and the design. Sampling and the
decomposition are deterministic functions of exactly those inputs, so a hit
returns the very values a fresh computation would, and reports stay
byte-identical. The misspecified export-ban arms, for example, optimize
exactly as the no-risk arm does and so reuse its replications. A hit hands
out the same `Design` and `DesignEvaluation` objects an earlier report
holds, so reports made on one memo must be treated as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math

import numpy as np

from .instance import Design, Instance, ValidationError, fixed_cost, validate_design
from .lshaped import run_lshaped
from .recourse import RecourseSolver
from .scenarios import RiskOverrides, sample_batch
from .stats import critical_values, ordered_sum

ROLE_OPTIMIZE, ROLE_EVALUATE = 0, 1


@dataclass(frozen=True)
class SaaConfig:
    replications: int = 5                 # M
    optimization_scenarios: int = 30      # N per replication
    evaluation_scenarios: int = 300       # N' shared evaluation sample
    alpha: float = 0.01                   # confidence parameter for both bounds
    outer_gap_tolerance: float = 0.02     # stop when (U - L)/U falls below this
    inner_gap_tolerance: float = 1e-5     # decomposition loop tolerance
    base_seed: int = 20240101
    optimize_overrides: RiskOverrides = field(default_factory=RiskOverrides)
    evaluate_overrides: RiskOverrides = field(default_factory=RiskOverrides)
    forced_open: dict = field(default_factory=dict)   # plant -> 0/1 pinned in the master
    max_passes: int = 5
    max_iterations: int = 500             # decomposition iteration cap

    def validated(self) -> "SaaConfig":
        """Check every field's type and range; a bad value names its field."""
        for name in ("replications", "optimization_scenarios", "evaluation_scenarios",
                     "base_seed", "max_passes", "max_iterations"):
            _require_int(getattr(self, name), name)
        for name in ("alpha", "outer_gap_tolerance", "inner_gap_tolerance"):
            _require_finite(getattr(self, name), name)
        for name in ("optimize_overrides", "evaluate_overrides"):
            _check_overrides(getattr(self, name), name)
        if not isinstance(self.forced_open, dict) or any(
            _not_int(v) or v not in (0, 1) for v in self.forced_open.values()
        ):
            raise ValidationError(f"forced_open must map plants to 0 or 1, got {self.forced_open!r}")
        if self.replications < 2:
            raise ValidationError("need at least two replications")
        if self.optimization_scenarios < 1:
            raise ValidationError("need at least one optimization scenario")
        if self.evaluation_scenarios < self.optimization_scenarios:
            raise ValidationError("evaluation sample must be at least the optimization sample")
        if self.base_seed < 0:
            raise ValidationError(f"base_seed must be nonnegative, got {self.base_seed!r}")
        if not 0.0 < self.alpha < 0.5:
            raise ValidationError("alpha must lie strictly inside (0, 0.5)")
        if not (self.outer_gap_tolerance > 0 and self.inner_gap_tolerance > 0):
            raise ValidationError("tolerances must be positive")
        if self.max_passes < 1 or self.max_iterations < 1:
            raise ValidationError("pass and iteration caps must be positive")
        return self


def _not_int(value) -> bool:
    return isinstance(value, bool) or not isinstance(value, int)


def _require_int(value, name: str) -> None:
    if _not_int(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def _require_finite(value, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")


def _check_overrides(overrides: RiskOverrides, name: str) -> None:
    for flag in ("force_export_prob_one", "alliances_off"):
        if not isinstance(getattr(overrides, flag), bool):
            raise ValidationError(f"{name}.{flag} must be true or false")
    scale, threshold = overrides.export_prob_scale, overrides.ban_threshold
    if scale is not None:
        _require_finite(scale, f"{name}.export_prob_scale")
        if scale < 0:
            raise ValidationError(f"{name}.export_prob_scale must be nonnegative, got {scale!r}")
    if threshold is not None:
        _require_finite(threshold, f"{name}.ban_threshold")
        if not 0.0 <= threshold <= 1.0:
            raise ValidationError(f"{name}.ban_threshold must lie in [0, 1], got {threshold!r}")


@dataclass(frozen=True)
class CostBreakdown:
    fixed: float
    raw_and_inbound: float              # raw material plus supplier-to-plant transport
    production_and_outbound: float      # production plus plant-to-country transport
    shortage_baseline: float            # baseline-price shortage cost
    shortage_escalation: float          # ban-induced price bump on the escalated tranche

    def total(self) -> float:
        return (
            self.fixed
            + self.raw_and_inbound
            + self.production_and_outbound
            + self.shortage_baseline
            + self.shortage_escalation
        )


@dataclass(frozen=True)
class DesignEvaluation:
    mean_objective: float
    std_error: float
    expected_shortage: dict             # country -> E[unmet demand]
    expected_demand: dict               # country -> E[demand] on the same sample
    expected_raw_flow: dict             # (supplier, plant) -> E[flow]
    expected_drug_flow: dict            # (plant, country) -> E[flow]
    sales_volume: float                 # E[total drug volume shipped]
    breakdown: CostBreakdown


@dataclass(frozen=True)
class SaaReport:
    replication_objectives: list
    candidate_designs: list
    incumbent: Design
    lower_bound: float
    upper_bound: float
    gap: float
    eval_objective: float
    eval_std_error: float
    evaluation: DesignEvaluation
    passes: int
    gap_unresolved: bool
    overrides_differ: bool


def evaluate_design(
    instance: Instance,
    design: Design,
    scenarios: list,
    solver: RecourseSolver | None = None,
) -> DesignEvaluation:
    """Sample mean, standard error, and per-country/cost detail for one design.

    The scenario LPs share one basis pool (see `simplex`), so an earlier
    scenario's optimal basis answers a later LP whenever it is optimal there.
    """
    validate_design(instance, design)
    if not scenarios:
        raise ValidationError("need at least one evaluation scenario")
    solver = solver or RecourseSolver(instance)
    n = len(scenarios)
    fixed = fixed_cost(instance, design)

    # per-arc and per-country sums run over scenarios; each scalar total
    # adds one scenario's terms in arc or country order before the next
    samples = []
    shortage = np.zeros(solver.nK)
    demand = np.zeros(solver.nK)
    raw_flow = np.zeros(len(solver.u_arcs))
    drug_flow = np.zeros(len(solver.v_arcs))
    raw_cost = outbound_cost = base_short = esc_short = sales = 0.0

    pool = []
    for scen in scenarios:
        sol = solver.solve(design, scen, pool)
        samples.append(fixed + sol.objective)
        shortage += sol.unmet / n
        demand += solver.arrays(scen).demand / n
        base_short = ordered_sum(solver.shortage_price * sol.unmet / n, base_short)
        esc_short = ordered_sum(scen.price_increase * sol.escalated / n, esc_short)
        raw_flow += sol.raw / n
        raw_cost = ordered_sum(solver.raw_unit_cost * sol.raw / n, raw_cost)
        drug_flow += sol.drug / n
        outbound_cost = ordered_sum(solver.drug_unit_cost * sol.drug / n, outbound_cost)
        sales = ordered_sum(sol.drug / n, sales)

    mean = sum(samples) / n
    if n > 1:
        var = sum((s - mean) ** 2 for s in samples) / ((n - 1) * n)
    else:
        var = 0.0
    return DesignEvaluation(
        mean_objective=mean,
        std_error=math.sqrt(var),
        expected_shortage=dict(zip(solver.K, shortage.tolist())),
        expected_demand=dict(zip(solver.K, demand.tolist())),
        expected_raw_flow=dict(zip(solver.u_arcs, raw_flow.tolist())),
        expected_drug_flow=dict(zip(solver.v_arcs, drug_flow.tolist())),
        sales_volume=float(sales),
        breakdown=CostBreakdown(
            fixed=fixed,
            raw_and_inbound=float(raw_cost),
            production_and_outbound=float(outbound_cost),
            shortage_baseline=float(base_short),
            shortage_escalation=float(esc_short),
        ),
    )


def confidence_bounds(
    objectives: list, alpha: float, eval_mean: float, eval_std_error: float
) -> tuple[float, float]:
    """Lower bound from the replication objectives, upper bound at a design.

    lower = mean(objectives) - t_{alpha, M-1} * sqrt(var / ((M-1) M))
    upper = eval_mean + z_alpha * eval_std_error
    """
    m_reps = len(objectives)
    if m_reps < 2:
        raise ValidationError("need at least two replication objectives")
    z_bar = sum(objectives) / m_reps
    var_bar = sum((z - z_bar) ** 2 for z in objectives) / ((m_reps - 1) * m_reps)
    t_crit, z_crit = critical_values(alpha, m_reps - 1)
    return z_bar - t_crit * math.sqrt(var_bar), eval_mean + z_crit * eval_std_error


def evaluation_batch(instance: Instance, config: SaaConfig, pass_idx: int) -> list:
    """The evaluation sample shared by every candidate design of one pass."""
    return sample_batch(
        instance,
        (config.base_seed, pass_idx, ROLE_EVALUATE),
        config.evaluation_scenarios,
        config.evaluate_overrides,
    )


class SaaMemo:
    """Replication outcomes and design evaluations shared across run_saa calls.

    Reports made on one memo share these objects; treat them as read-only.
    """

    def __init__(self):
        # id(instance) -> (instance, replications, evaluations); holding the
        # instance keeps its id from being reused while the memo lives
        self._tables: dict = {}

    def tables(self, instance: Instance) -> tuple[dict, dict]:
        _, replications, evaluations = self._tables.setdefault(id(instance), (instance, {}, {}))
        return replications, evaluations


def _replication_key(config: SaaConfig, pass_idx: int, m: int) -> tuple:
    return (
        pass_idx,
        m,
        config.base_seed,
        config.optimization_scenarios,
        config.optimize_overrides,
        config.inner_gap_tolerance,
        tuple(sorted(config.forced_open.items())),
        config.max_iterations,
    )


def _evaluation_key(config: SaaConfig, pass_idx: int, design: Design) -> tuple:
    return (
        pass_idx,
        config.base_seed,
        config.evaluation_scenarios,
        config.evaluate_overrides,
        design.key(),
    )


def _run_replication(instance, config, solver, pass_idx, m):
    scens = sample_batch(
        instance,
        (config.base_seed, pass_idx, ROLE_OPTIMIZE, m),
        config.optimization_scenarios,
        config.optimize_overrides,
    )
    result = run_lshaped(
        instance,
        scens,
        epsilon=config.inner_gap_tolerance,
        forced=config.forced_open or None,
        max_iterations=config.max_iterations,
        solver=solver,
    )
    return result.objective, result.design


def run_saa(instance: Instance, config: SaaConfig, memo: SaaMemo | None = None) -> SaaReport:
    """Sampled optimization with bounds; `memo` shares work with earlier calls."""
    config = config.validated()
    solver = RecourseSolver(instance)
    replications, evaluations = (memo or SaaMemo()).tables(instance)
    m_reps = config.replications

    last = None
    for pass_idx in range(config.max_passes):
        outcomes = []
        for m in range(m_reps):
            key = _replication_key(config, pass_idx, m)
            if key not in replications:
                replications[key] = _run_replication(instance, config, solver, pass_idx, m)
            outcomes.append(replications[key])
        objectives = [z for z, _ in outcomes]
        designs = [d for _, d in outcomes]

        keys = [_evaluation_key(config, pass_idx, d) for d in designs]
        missing = {k: d for k, d in zip(keys, designs) if k not in evaluations}
        if missing:
            eval_batch = evaluation_batch(instance, config, pass_idx)
            for k, d in missing.items():
                evaluations[k] = evaluate_design(instance, d, eval_batch, solver)
        best_m = min(range(m_reps), key=lambda m: evaluations[keys[m]].mean_objective)
        incumbent = designs[best_m]
        chosen = evaluations[keys[best_m]]

        lower, upper = confidence_bounds(
            objectives, config.alpha, chosen.mean_objective, chosen.std_error
        )
        gap = (upper - lower) / upper if upper > 0 else 0.0

        last = SaaReport(
            replication_objectives=objectives,
            candidate_designs=designs,
            incumbent=incumbent,
            lower_bound=lower,
            upper_bound=upper,
            gap=gap,
            eval_objective=chosen.mean_objective,
            eval_std_error=chosen.std_error,
            evaluation=chosen,
            passes=pass_idx + 1,
            gap_unresolved=gap > config.outer_gap_tolerance,
            overrides_differ=config.optimize_overrides != config.evaluate_overrides,
        )
        if not last.gap_unresolved:
            break
    return last
