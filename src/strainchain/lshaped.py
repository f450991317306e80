"""Decomposition loop: binary master over plant openings plus averaged cuts.

The master minimizes fixed cost plus a lower envelope of the sampled mean
recourse cost; the envelope starts at zero (recourse costs are nonnegative)
and grows by one aggregated cut per iteration. The master itself is solved
exactly: exhaustive enumeration up to ENUMERATION_LIMIT candidate plants,
depth-first branch and bound beyond, which bounds a node by the largest row
of the cut matrix (zero floor row first) plus that row's suffix sum of
min(0, fixed + coefficient) over the unassigned plants. On both paths ties
go to the first design in lexicographic order.

Enumeration carries its envelope across the iterations of one run
(`EnumerationState`): per ENUM_BATCH chunk of design codes, the codes that
forcing allows, their fixed cost and the running maximum of the cut values.
Each iteration folds in only the new cut, whose values at all 2^n designs
come from the doubling recurrence v = (v[:, None] + [0, coef_p]).ravel()
over plants in canonical order, plus the constant: O(2^n) per cut and no
(2^n x cuts) product. The recurrence adds a design's coefficients one at a
time in plant order, which is how a gemm over 0/1 design rows accumulates
them, so each value keeps the rounding of the former per-iteration
`designs @ coefs.T`. A call without a state folds every cut into a fresh
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .instance import Design, Instance, ValidationError
from .recourse import RecourseSolver, cut_terms_from

ENUMERATION_LIMIT = 20
ENUM_BATCH = 1 << 16


class IterationLimitError(RuntimeError):
    """Convergence loop exceeded its iteration cap; carries the bound traces."""

    def __init__(self, message: str, lb_trace: list, ub_trace: list):
        super().__init__(message)
        self.lb_trace = lb_trace
        self.ub_trace = ub_trace


@dataclass(frozen=True)
class OptimalityCut:
    constant: float
    coeff: dict  # plant candidate -> money

    def value_at(self, open_map: dict) -> float:
        return self.constant + sum(self.coeff[j] * open_map[j] for j in self.coeff)


@dataclass
class LShapedResult:
    design: Design
    objective: float       # best sampled total cost found (the final upper bound)
    iterations: int
    lb_trace: list = field(default_factory=list)
    ub_trace: list = field(default_factory=list)
    cuts: list = field(default_factory=list)


def _theta_floor(values: np.ndarray) -> np.ndarray:
    return np.maximum(values, 0.0)


class EnumerationState:
    """The enumeration master's envelope, carried across one decomposition run.

    `chunks` holds, per ENUM_BATCH chunk of design codes, the codes forcing
    allows, their fixed cost and the running maximum of the folded cuts'
    values (None before the first cut); `folded` counts those cuts.
    """

    def __init__(self):
        self.chunks: list | None = None
        self.folded = 0


def solve_master(
    instance: Instance,
    cuts: list,
    forced: dict | None = None,
    enumeration_limit: int = ENUMERATION_LIMIT,
    state: EnumerationState | None = None,
) -> tuple[Design, float]:
    """Global minimizer of fixed cost + cut envelope over nonempty designs.

    `state` carries the enumeration envelope of one decomposition run from
    call to call; it must come from a run with the same instance and forcing
    whose cut list only grew. Without it every cut is folded into a fresh
    envelope. The branch-and-bound path ignores it.
    """
    plants = list(instance.plant_candidates)
    forced = dict(forced or {})
    unknown = sorted(set(forced) - set(plants))
    if unknown:
        raise ValidationError(f"forced assignment for non-candidates: {unknown}")

    if len(plants) <= enumeration_limit:
        return _master_by_enumeration(instance, plants, cuts, forced, state)
    return _master_by_branch_and_bound(instance, plants, cuts, forced)


def _cut_values(plants: list, cut: OptimalityCut) -> np.ndarray:
    """The cut's value at every design code, code 0 (all closed) included.

    Doubling over plants in canonical order puts the first plant in the
    code's top bit and adds a design's coefficients one at a time in plant
    order, as the gemm over 0/1 design rows does.
    """
    values = np.zeros(1)
    for j in plants:
        values = (values[:, None] + [0.0, cut.coeff[j]]).ravel()
    return values + cut.constant


def _master_by_enumeration(instance, plants, cuts, forced, state=None):
    n = len(plants)
    shifts = np.arange(n - 1, -1, -1)
    if state is None:
        state = EnumerationState()
    if state.chunks is None:
        fixed = np.array([instance.fixed_cost[j] for j in plants])
        forced_pos = {plants.index(j): v for j, v in forced.items()}
        state.chunks = []
        for start in range(1, 1 << n, ENUM_BATCH):
            stop = min(start + ENUM_BATCH, 1 << n)
            codes = np.arange(start, stop, dtype=np.int64)
            designs = (codes[:, None] >> shifts) & 1
            mask = np.ones(len(codes), dtype=bool)
            for pos, v in forced_pos.items():
                mask &= designs[:, pos] == v
            if mask.any():
                state.chunks.append([codes[mask], designs[mask] @ fixed, None])

    for cut in cuts[state.folded:]:
        values = _cut_values(plants, cut)
        for chunk in state.chunks:
            mine = values[chunk[0]]
            chunk[2] = mine if chunk[2] is None else np.maximum(chunk[2], mine, out=chunk[2])
    state.folded = len(cuts)

    best_value = np.inf
    best_code = None
    for codes, fixed_cost, envelope in state.chunks:
        theta = np.zeros(len(codes)) if envelope is None else _theta_floor(envelope)
        values = fixed_cost + theta
        local = int(np.argmin(values))
        if values[local] < best_value - 1e-15:
            best_value = float(values[local])
            best_code = codes[local]
    if best_code is None:
        raise ValidationError("forced assignments close every plant")
    bits = (best_code >> shifts) & 1
    design = Design(open={j: int(b) for j, b in zip(plants, bits)})
    return design, best_value


def _master_by_branch_and_bound(instance, plants, cuts, forced):
    """Depth-first branch and bound over plants in canonical order, 0 before 1.

    Row 0 of the cut matrix is the theta >= 0 floor (all zeros), rows 1..k
    the cuts. A node carries the fixed cost of its opened plants and each
    row's value at them; its bound adds, per row, the suffix sum of
    min(0, fixed + coefficient) over the unassigned positions and takes the
    largest row (the >=1-plant constraint and forcing are relaxed). At a
    leaf the suffix is empty and the bound is the design's value. Only a
    strict improvement replaces the incumbent, so ties go to the first
    design in lexicographic order, as in enumeration.
    """
    n = len(plants)
    fixed = np.array([instance.fixed_cost[j] for j in plants])
    consts = np.array([0.0] + [c.constant for c in cuts])
    coefs = np.array([[0.0] * n] + [[c.coeff[j] for j in plants] for c in cuts])
    tails = np.zeros((len(consts), n + 1))
    tails[:, :n] = np.cumsum(np.minimum(0.0, fixed + coefs)[:, ::-1], axis=1)[:, ::-1]
    choices = [(forced[j],) if j in forced else (0, 1) for j in plants]

    bits = [0] * n
    best_value = np.inf
    best_bits = None

    def dfs(depth: int, base: float, rows: np.ndarray) -> None:
        nonlocal best_value, best_bits
        bound = base + float((rows + tails[:, depth]).max())
        if depth == n:
            if any(bits) and bound < best_value - 1e-15:
                best_value = bound
                best_bits = list(bits)
            return
        if bound >= best_value:
            return
        for v in choices[depth]:
            bits[depth] = v
            if v:
                dfs(depth + 1, base + fixed[depth], rows + coefs[:, depth])
            else:
                dfs(depth + 1, base, rows)

    dfs(0, 0.0, consts)
    if best_bits is None:
        raise ValidationError("forced assignments close every plant")
    return Design(open={j: int(b) for j, b in zip(plants, best_bits)}), float(best_value)


def run_lshaped(
    instance: Instance,
    scenarios: list,
    epsilon: float,
    forced: dict | None = None,
    max_iterations: int = 500,
    solver: RecourseSolver | None = None,
) -> LShapedResult:
    """Alternate master solves and scenario solves until the gap closes."""
    if not scenarios:
        raise ValidationError("need at least one scenario")
    if not epsilon > 0:
        raise ValidationError("epsilon must be positive")
    solver = solver or RecourseSolver(instance)
    plants = list(instance.plant_candidates)
    n_scen = len(scenarios)

    cuts: list[OptimalityCut] = []
    state = EnumerationState()
    lb_trace: list[float] = []
    ub_trace: list[float] = []
    ub = np.inf
    incumbent: Design | None = None

    for iteration in range(1, max_iterations + 1):
        candidate, lb = solve_master(instance, cuts, forced, state=state)
        lb_trace.append(lb)

        fixed = sum(instance.fixed_cost[j] * candidate.open[j] for j in plants)
        mean_recourse = 0.0
        mean_const = 0.0
        mean_coeff = np.zeros(len(plants))
        for scen in scenarios:
            sol = solver.solve(candidate, scen)
            mean_recourse += sol.objective / n_scen
            const, coeff = cut_terms_from(scen, sol)
            mean_const += const / n_scen
            mean_coeff += coeff / n_scen
        z_n = fixed + mean_recourse
        if incumbent is None or z_n < ub:
            ub = z_n
            incumbent = candidate
        ub_trace.append(ub)

        gap = (ub - lb) / ub if ub > 0 else 0.0
        if gap <= epsilon:
            return LShapedResult(
                design=incumbent,
                objective=ub,
                iterations=iteration,
                lb_trace=lb_trace,
                ub_trace=ub_trace,
                cuts=cuts,
            )
        coeff_map = dict(zip(plants, mean_coeff.tolist()))
        cuts.append(OptimalityCut(constant=mean_const, coeff=coeff_map))

    raise IterationLimitError(
        f"no convergence within {max_iterations} iterations", lb_trace, ub_trace
    )
