"""Decomposition loop: binary master over plant openings plus multi-cuts.

The N scenarios of a run are split into G contiguous groups (scenario s in
group s * G // N). Each iteration solves every scenario at the master's
candidate and appends one cut per group to the run's `CutPool`: group g's
cut is the sum of its scenarios' `cut_terms_from` constant and coefficients
divided by N, accumulated in scenario order, so it underestimates the
group's share of the sampled mean recourse cost at every design. The pool
is iteration-major: row 0 is every group's theta_g >= 0 floor (all zeros),
row k the (G,) constants and (G, n) coefficients, in plant order, of
iteration k. The master minimises

    fixed cost + sum over g of max(0, largest row-k cut of group g),

the group terms added left to right in the order of `stats.ordered_sum`.
With G = 1 this is the averaged single-cut master, except that fixed costs
are added in plant order (the former master's matrix-vector product could
round their sum differently in the last bit).

The master is solved exactly: exhaustive enumeration up to ENUMERATION_LIMIT
candidate plants, depth-first branch and bound beyond. On both paths ties go
to the first design in lexicographic order (plant 0 the top bit, closed
before open), and both add a design's fixed costs and each cut's
coefficients one at a time in plant order and then the cut's constant, so
the two paths return the same design and the same value bit for bit.

Enumeration (G = min(N, ENVELOPE_LIMIT >> n)) carries, across the calls of
one run (`MasterState`), the fixed cost and the (G, codes) floored envelope
of every design that forcing allows. A call folds in only the rows appended
since the last one: per group, a doubling pass over the plants fills a
preallocated buffer with the cut's value at every code, O(2^n) per cut and
no design matrix. G * 2^n is at most ENVELOPE_LIMIT floats (8 MB), so 16
plants get G = 15 at N = 15 and 20 plants the single averaged cut.

Branch and bound (G = N) visits plants in canonical order, 0 before 1. A
node holds the fixed cost of its opened plants and every (row, group) cut's
coefficient sum over them. Its bound is that fixed cost plus, per group,
the largest row's sum + constant + suffix over the unassigned plants. Each
group carries 1/G of every plant's fixed cost, so a plant's suffix term is
min(0, coefficient + fixed/G) when it is free, coefficient + fixed/G when
it is forced open and 0 when it is forced closed; with G = 1 that is
min(0, coefficient + fixed). Each row's suffix sums are computed once, when
the row joins the pool. The bound relaxes only the >= 1-plant constraint
and the coupling of the groups; at a leaf it is the design's value, and
only a strict improvement replaces the incumbent, which is the
enumeration's tie rule. An inner node's bound adds the same terms in
another order, so it may round above a leaf below it: a node is pruned only
when its bound exceeds the incumbent by more than a slack that bounds this
rounding: 4 (n + G + 3) eps times the sum of the fixed costs and of each
group's largest |constant| + sum of |coefficients|, twice the usual error
bound of a sum of n + G + 3 such terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .instance import Design, Instance, ValidationError, fixed_cost
from .recourse import RecourseSolver, cut_terms_from

ENUMERATION_LIMIT = 20
ENVELOPE_LIMIT = 1 << 20  # floats in the enumeration envelope, G x 2^n


class IterationLimitError(RuntimeError):
    """Convergence loop exceeded its iteration cap; carries the bound traces."""

    def __init__(self, message: str, lb_trace: list, ub_trace: list):
        super().__init__(message)
        self.lb_trace = lb_trace
        self.ub_trace = ub_trace


def _grown(array: np.ndarray, rows: int, axis: int = 0) -> np.ndarray:
    """`array` with room for at least `rows` entries along `axis` (capacity doubles)."""
    if array.shape[axis] >= rows:
        return array
    shape = list(array.shape)
    shape[axis] = max(rows, 2 * shape[axis])
    bigger = np.zeros(shape)
    bigger[(slice(None),) * axis + (slice(0, array.shape[axis]),)] = array
    return bigger


class CutPool:
    """The optimality cuts of one decomposition run, one row per iteration.

    `constants` is (rows, G) and `coefficients` (rows, G, n) in plant order;
    row 0 is the all-zero theta_g >= 0 floor. Rows are only appended.
    """

    def __init__(self, n_plants: int, groups: int):
        self.groups = groups
        self.rows = 1
        self._constants = np.zeros((8, groups))
        self._coefficients = np.zeros((8, groups, n_plants))

    @property
    def constants(self) -> np.ndarray:
        return self._constants[: self.rows]

    @property
    def coefficients(self) -> np.ndarray:
        return self._coefficients[: self.rows]

    def append(self, constants, coefficients) -> None:
        self._constants = _grown(self._constants, self.rows + 1)
        self._coefficients = _grown(self._coefficients, self.rows + 1)
        self._constants[self.rows] = constants
        self._coefficients[self.rows] = coefficients
        self.rows += 1


def cut_groups(n_plants: int, n_scenarios: int) -> int:
    """G for a run: as many groups as ENVELOPE_LIMIT allows on the enumeration
    path, every scenario its own group on the branch-and-bound path, where a
    node costs O(G x rows) but the saved iterations outweigh it (measured at
    N = 10, 30 and 100)."""
    if n_plants > ENUMERATION_LIMIT:
        return n_scenarios
    return min(n_scenarios, ENVELOPE_LIMIT >> n_plants)


@dataclass
class LShapedResult:
    design: Design
    objective: float       # best sampled total cost found (the final upper bound)
    iterations: int
    lb_trace: list = field(default_factory=list)
    ub_trace: list = field(default_factory=list)


class MasterState:
    """The master's arrays, carried across the calls of one decomposition run.

    Built by the first call for the run's instance, forcing and pool; every
    later call folds in only the pool rows appended since (`folded` counts
    the rows already in). Enumeration keeps `steps` (the plants forcing
    leaves open, in plant order, with whether each is free), the fixed cost
    and the floored envelope per allowed code; branch and bound keeps each
    row's node-bound terms (constant + suffix) per depth.
    """

    def __init__(self):
        self.folded = 0
        self.steps: list | None = None
        self.fixed: np.ndarray | None = None
        self.envelope: np.ndarray | None = None
        self.bound_terms: np.ndarray | None = None


def solve_master(
    instance: Instance,
    pool: CutPool,
    forced: dict | None = None,
    enumeration_limit: int = ENUMERATION_LIMIT,
    state: MasterState | None = None,
) -> tuple[Design, float]:
    """Global minimizer of fixed cost + summed group envelopes over nonempty designs.

    `state` must come from earlier calls with the same instance, forcing,
    path and pool; without it every row is folded into a fresh one.
    """
    plants = list(instance.plant_candidates)
    forced = dict(forced or {})
    unknown = sorted(set(forced) - set(plants))
    if unknown:
        raise ValidationError(f"forced assignment for non-candidates: {unknown}")
    state = state if state is not None else MasterState()
    if len(plants) <= enumeration_limit:
        return _master_by_enumeration(instance, plants, pool, forced, state)
    return _master_by_branch_and_bound(instance, plants, pool, forced, state)


def _plant_order_values(steps: list, terms, out: np.ndarray) -> np.ndarray:
    """out[i] = sum of `terms` over the plants open at index i, added in plant order.

    `steps` lists (position, free) for the plants forcing does not close;
    bit r of i opens the r-th free plant. A free plant doubles the filled
    indices (the copy with its bit set adds its term), a forced-open plant
    adds its term to every filled index.
    """
    out[0] = 0.0
    filled = 1
    for pos, free in steps:
        if free:
            np.add(out[:filled], terms[pos], out=out[filled : 2 * filled])
            filled *= 2
        else:
            out[:filled] += terms[pos]
    return out


def _master_by_enumeration(instance, plants, pool, forced, state):
    if state.envelope is None:
        state.steps = [(p, j not in forced) for p, j in enumerate(plants) if forced.get(j, 1)]
        width = 1 << sum(free for _, free in state.steps)
        fixed = np.array([instance.fixed_cost[j] for j in plants])
        state.fixed = _plant_order_values(state.steps, fixed, np.empty(width))
        if all(free for _, free in state.steps):
            state.fixed[0] = np.inf  # index 0 opens no plant
        state.envelope = np.zeros((pool.groups, width))  # row 0, the floor
        state.folded = 1

    scratch = np.empty(state.envelope.shape[1])
    constants, coefficients = pool.constants, pool.coefficients
    for k in range(state.folded, pool.rows):
        for g, envelope in enumerate(state.envelope):
            values = _plant_order_values(state.steps, coefficients[k, g], scratch)
            values += constants[k, g]
            np.maximum(envelope, values, out=envelope)
    state.folded = pool.rows

    total = np.zeros_like(scratch)
    for envelope in state.envelope:  # left to right, as ordered_sum adds
        total += envelope
    total += state.fixed
    value = total.min()
    if value == np.inf:
        raise ValidationError("forced assignments close every plant")

    free = [p for p, is_free in state.steps if is_free]
    ties = np.flatnonzero(total == value)
    for rank in range(len(free)):  # the first tie in lexicographic order
        closed = ties[((ties >> rank) & 1) == 0]
        if closed.size:
            ties = closed
    best = int(ties[0])
    bits = [forced.get(j, 0) for j in plants]
    for rank, p in enumerate(free):
        bits[p] = (best >> rank) & 1
    return Design(open=dict(zip(plants, bits))), float(value)


def _bound_terms(fixed, constants, coefficients, forced_pos: dict) -> np.ndarray:
    """Per depth d, each (row, group) cut's constant plus its suffix over plants >= d.

    Returns (n + 1, G, rows), each row of a group contiguous for the node's
    max; depth n holds the constants alone.
    """
    terms = coefficients + fixed / coefficients.shape[1]  # each group carries 1/G of it
    for p in range(len(fixed)):
        if p not in forced_pos:
            np.minimum(terms[:, :, p], 0.0, out=terms[:, :, p])
        elif not forced_pos[p]:
            terms[:, :, p] = 0.0
    suffix = np.zeros(terms.shape[:2] + (len(fixed) + 1,))
    suffix[:, :, :-1] = np.cumsum(terms[:, :, ::-1], axis=2)[:, :, ::-1]
    return (constants[:, :, None] + suffix).transpose(2, 1, 0)


def _master_by_branch_and_bound(instance, plants, pool, forced, state):
    n = len(plants)
    fixed = np.array([instance.fixed_cost[j] for j in plants])
    constants, coefficients = pool.constants, pool.coefficients
    rows, groups = constants.shape
    if state.bound_terms is None:
        state.bound_terms = np.zeros((n + 1, groups, 0))
    if state.folded < rows:
        forced_pos = {plants.index(j): v for j, v in forced.items()}
        new = _bound_terms(
            fixed, constants[state.folded:], coefficients[state.folded:], forced_pos
        )
        state.bound_terms = _grown(state.bound_terms, rows, axis=2)
        state.bound_terms[:, :, state.folded : rows] = new
        state.folded = rows
    bound_terms = state.bound_terms[:, :, :rows]
    by_plant = [coefficients[:, :, p].T for p in range(n)]
    choices = [(forced[j],) if j in forced else (0, 1) for j in plants]

    levels = np.zeros((n + 1, groups, rows))  # opened plants' coefficient sums per depth
    work = np.empty((groups, rows))
    bits = [0] * n
    best_value = np.inf
    best_bits = None
    # see the module docstring: the bound may round above a leaf below it
    scale = fixed.sum() + (np.abs(constants) + np.abs(coefficients).sum(axis=2)).max(axis=0).sum()
    slack = 4 * (n + groups + 3) * np.finfo(float).eps * scale

    def dfs(depth: int, base: float, sums: np.ndarray) -> None:
        nonlocal best_value, best_bits
        np.add(sums, bound_terms[depth], out=work)
        # left to right, as ordered_sum adds (and enumeration's total)
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
    del dfs  # the recursive closure is a reference cycle: free its buffers now, not at gc
    if best_bits is None:
        raise ValidationError("forced assignments close every plant")
    return Design(open=dict(zip(plants, best_bits))), float(best_value)


def run_lshaped(
    instance: Instance,
    scenarios: list,
    epsilon: float,
    forced: dict | None = None,
    max_iterations: int = 500,
    solver: RecourseSolver | None = None,
) -> LShapedResult:
    """Alternate master solves and scenario solves until the gap closes.

    The N scenario LPs of one iteration share one basis pool (see
    `simplex`): they share A and the candidate design, so an earlier
    scenario's optimal basis often answers a later one without a pivot.
    The pool lasts one iteration. A pool carried across the run keeps
    growing, and every LP scans it in order: on the `solve_large` benchmark
    workload it avoided under 5% more pivots and more than doubled the
    simplex's own time. It is dropped before the next master solve, so its
    inverses never sit in memory beside the enumeration envelope.
    """
    if not scenarios:
        raise ValidationError("need at least one scenario")
    if not epsilon > 0:
        raise ValidationError("epsilon must be positive")
    solver = solver or RecourseSolver(instance)
    plants = list(instance.plant_candidates)
    n_scen = len(scenarios)
    groups = cut_groups(len(plants), n_scen)
    group_of = [s * groups // n_scen for s in range(n_scen)]

    pool = CutPool(len(plants), groups)
    state = MasterState()
    lb_trace: list[float] = []
    ub_trace: list[float] = []
    ub = np.inf
    incumbent: Design | None = None

    for iteration in range(1, max_iterations + 1):
        candidate, lb = solve_master(instance, pool, forced, state=state)
        lb_trace.append(lb)

        fixed = fixed_cost(instance, candidate)
        mean_recourse = 0.0
        constants = np.zeros(groups)
        coefficients = np.zeros((groups, len(plants)))
        bases = []
        for scen, g in zip(scenarios, group_of):
            sol = solver.solve(candidate, scen, bases)
            mean_recourse += sol.objective / n_scen
            const, coeff = cut_terms_from(scen, sol)
            constants[g] += const / n_scen
            coefficients[g] += coeff / n_scen
        del bases
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
            )
        pool.append(constants, coefficients)

    raise IterationLimitError(
        f"no convergence within {max_iterations} iterations", lb_trace, ub_trace
    )
