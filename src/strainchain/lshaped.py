"""Decomposition loop: binary master over plant openings plus multi-cuts.

One `Master` per run holds the cuts, the forcing (checked once), the path
and the number of cut groups G (chosen once) and each path's folded arrays.

The N scenarios are split into G contiguous groups (scenario s in group
s * G // N). Each iteration solves every scenario at the master's
candidate in `recourse`'s batches, taking the Pareto-optimal duals of its
`pareto` solves, and adds one cut per group (`Master.add_cuts`): group g's
cut is the sum of its scenarios' `cut_terms_from` constants and
coefficients divided by N, added one scenario row at a time in scenario
order (across batches too, so bit for bit a per-scenario loop's sum), so
it underestimates the group's share of the sampled mean recourse cost at
every design. The cuts are iteration-major: row 0 is every group's
theta_g >= 0 floor (all zeros), row k the (G,) constants and (G, n)
coefficients, in plant order, of iteration k. The master minimises

    fixed cost + sum over g of max(0, largest row-k cut of group g),

the group terms added left to right in the order of `stats.ordered_sum`.
With G = 1 this is the averaged single-cut master, except that fixed costs
are added in plant order (the former master's matrix-vector product could
round their sum differently in the last bit).

A run ends when the gap between the master's bound and the best sampled
cost closes, or when the master proposes a design it has already
evaluated: its cuts are tight there already, so solving it again would
add nothing (see `run_lshaped`).

The master is solved exactly: exhaustive enumeration up to ENUMERATION_LIMIT
candidate plants, branch and bound beyond. On both paths ties go to the
first design in lexicographic order (plant 0 the top bit, closed before
open), and both add a design's fixed costs and each cut's
coefficients one at a time in plant order and then the cut's constant, so
the two paths return the same design and the same value bit for bit.

Enumeration (G = min(N, ENVELOPE_LIMIT >> n)) keeps the fixed cost and the
(G, codes) floored envelope of every design that forcing allows. A call
folds in each new row: per group, a doubling pass over the plants fills a
preallocated buffer with the cut's value at every code, O(2^n) per cut and
no design matrix. G * 2^n is at most ENVELOPE_LIMIT floats (8 MB), so 16
plants get G = 15 at N = 15 and 20 plants the single averaged cut.

Branch and bound (G = N) fixes the plants in plant order, one depth at a
time. A node holds the fixed cost of its opened plants, every (row, group)
cut's coefficient sum over them and its design bits. Its bound is that fixed
cost plus, per group, the largest row's sum + constant + suffix over the
unassigned plants. Each group carries 1/G of every plant's fixed cost, so a
plant's suffix term is min(0, coefficient + fixed/G) when it is free,
coefficient + fixed/G when it is forced open and 0 when it is forced closed;
with G = 1 that is min(0, coefficient + fixed). Each row's suffix sums are
computed once, by the first call after the row is added. The bound relaxes
only the >= 1-plant constraint and the coupling of the groups; at a leaf it
is the design's value.

A greedy dive from the root to a leaf, taking the child with the smaller
bound (the closed one on ties, and the open one at the last plant that can
open if none is open yet), gives the first incumbent. The search then runs
depth-first over chunks of nodes: one vectorized step makes a chunk's
children and bounds all of them, and a child whose bound exceeds the
incumbent by more than the slack below is dropped. A chunk holds at most
FRONTIER_LIMIT / (2 G rows) nodes, so its children take at most
FRONTIER_LIMIT floats (512 KB); survivors are copied out a chunk at a time,
so at most one chunk waits per depth. At the leaves the smallest value wins
and ties go to the first design in lexicographic order, picked explicitly
because chunks are not visited in that order.

An inner node's bound adds the same terms as its leaves in another order,
so it may round above a leaf below it. The slack bounds this rounding:
4 (n + G + 3) eps times the sum of the fixed costs and of each group's
largest |constant| + sum of |coefficients|, twice the usual error bound of a
sum of n + G + 3 such terms. Every ancestor of a minimal leaf (value v*)
thus has a bound of at most v* + slack, which is at most the incumbent +
slack, so every minimal leaf is reached. Every sum is the one a recursive
depth-first search adds, in the same order, so the search returns its
design and value bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .instance import Design, Instance, ValidationError, fixed_cost
from .recourse import RecourseSolver, cut_terms_from
from .scenarios import Scenarios
from .stats import ordered_sum

ENUMERATION_LIMIT = 20
ENVELOPE_LIMIT = 1 << 20  # floats in the enumeration envelope, G x 2^n
FRONTIER_LIMIT = 1 << 16  # floats in one branching's children, 2 x chunk x G x rows


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


def check_forcing_values(forced: dict | None) -> dict:
    """`forced` as a new dict, checked: every value is the integer 0 or 1."""
    forced = dict(forced or {})
    for plant, value in forced.items():
        if isinstance(value, bool) or not isinstance(value, int) or value not in (0, 1):
            raise ValidationError(f"forced_open[{plant!r}] must be 0 or 1, got {value!r}")
    return forced


def check_forcing(instance: Instance, forced: dict | None) -> dict:
    """`forced` (plant -> 0/1) as a new dict, checked: its values are 0 or 1,
    it names only plant candidates and leaves at least one plant open or free."""
    forced = check_forcing_values(forced)
    unknown = sorted(set(forced) - set(instance.plant_candidates))
    if unknown:
        raise ValidationError(f"forced_open names non-candidates: {unknown}")
    if not any(forced.get(j, 1) for j in instance.plant_candidates):
        raise ValidationError("forced_open: forced assignments close every plant")
    return forced


@dataclass
class LShapedResult:
    design: Design
    objective: float       # best sampled total cost found (the final upper bound)
    iterations: int        # iterations that solved the N scenarios
    lb_trace: list = field(default_factory=list)  # the master's bound, per master solve
    ub_trace: list = field(default_factory=list)  # the upper bound after each master solve
    kept_duals: int = 0    # decomposition LPs whose cut kept the unperturbed dual


class Master:
    """The master problem of one decomposition run.

    `constants` is (rows, G) and `coefficients` (rows, G, n) in plant order,
    row 0 the all-zero theta_g >= 0 floor. G is as large as ENVELOPE_LIMIT
    allows when enumerating, one group per scenario in branch and bound: a
    node costs O(G x rows), but the saved iterations outweigh it (measured
    at N = 10, 30 and 100). `folded` counts the rows already in the path's
    arrays. Enumeration keeps `steps` (the plants forcing leaves open, in
    plant order, with whether each is free), the fixed cost and the floored
    envelope per allowed code; branch and bound each row's node-bound terms
    (constant + suffix) per depth.
    """

    def __init__(
        self,
        instance: Instance,
        n_scenarios: int,
        forced: dict | None = None,
        enumeration_limit: int = ENUMERATION_LIMIT,
    ):
        self.forced = forced = check_forcing(instance, forced)
        self.plants = plants = list(instance.plant_candidates)
        n = len(plants)
        self.fixed = np.array([instance.fixed_cost[j] for j in plants])
        self.enumerates = n <= enumeration_limit
        self.groups = min(n_scenarios, ENVELOPE_LIMIT >> n) if self.enumerates else n_scenarios
        self.rows = 1
        self._constants = np.zeros((8, self.groups))
        self._coefficients = np.zeros((8, self.groups, n))
        if self.enumerates:
            self.steps = [(p, j not in forced) for p, j in enumerate(plants) if forced.get(j, 1)]
            width = 1 << sum(free for _, free in self.steps)
            self.code_fixed = _plant_order_values(self.steps, self.fixed, np.empty(width))
            if all(free for _, free in self.steps):
                self.code_fixed[0] = np.inf  # index 0 opens no plant
            self.envelope = np.zeros((self.groups, width))  # row 0, the floor
            self.folded = 1
        else:
            self.forced_pos = {p: forced[j] for p, j in enumerate(plants) if j in forced}
            self.choices = [(forced[j],) if j in forced else (0, 1) for j in plants]
            self.bound_terms = np.zeros((n + 1, self.groups, 0))
            self.folded = 0

    @property
    def constants(self) -> np.ndarray:
        return self._constants[: self.rows]

    @property
    def coefficients(self) -> np.ndarray:
        return self._coefficients[: self.rows]

    def add_cuts(self, constants, coefficients) -> None:
        """Append one row: the (G,) constants and (G, n) coefficients of the group cuts."""
        self._constants = _grown(self._constants, self.rows + 1)
        self._coefficients = _grown(self._coefficients, self.rows + 1)
        self._constants[self.rows] = constants
        self._coefficients[self.rows] = coefficients
        self.rows += 1


def solve_master(master: Master) -> tuple[Design, float]:
    """Global minimizer of fixed cost + summed group envelopes over the
    nonempty designs the forcing allows; folds in the rows added since the
    last call."""
    if master.enumerates:
        return _master_by_enumeration(master)
    return _master_by_branch_and_bound(master)


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


def _master_by_enumeration(master: Master):
    scratch = np.empty(master.envelope.shape[1])
    constants, coefficients = master.constants, master.coefficients
    for k in range(master.folded, master.rows):
        for g, envelope in enumerate(master.envelope):
            values = _plant_order_values(master.steps, coefficients[k, g], scratch)
            values += constants[k, g]
            np.maximum(envelope, values, out=envelope)
    master.folded = master.rows

    total = np.zeros_like(scratch)
    for envelope in master.envelope:  # left to right, as ordered_sum adds
        total += envelope
    total += master.code_fixed
    value = total.min()

    free = [p for p, is_free in master.steps if is_free]
    ties = np.flatnonzero(total == value)
    for rank in range(len(free)):  # the first tie in lexicographic order
        closed = ties[((ties >> rank) & 1) == 0]
        if closed.size:
            ties = closed
    best = int(ties[0])
    bits = [master.forced.get(j, 0) for j in master.plants]
    for rank, p in enumerate(free):
        bits[p] = (best >> rank) & 1
    return Design(open=dict(zip(master.plants, bits))), float(value)


def _bound_terms(fixed, constants, coefficients, forced_pos: dict) -> np.ndarray:
    """Per depth d, each (row, group) cut's constant plus its suffix over plants >= d.

    Returns (n + 1, G, rows); depth n holds the constants alone.
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


def _master_by_branch_and_bound(master: Master):
    plants, fixed, choices = master.plants, master.fixed, master.choices
    n = len(plants)
    constants, coefficients = master.constants, master.coefficients
    rows, groups = constants.shape
    if master.folded < rows:
        new = _bound_terms(
            fixed, constants[master.folded:], coefficients[master.folded:], master.forced_pos
        )
        master.bound_terms = _grown(master.bound_terms, rows, axis=2)
        master.bound_terms[:, :, master.folded : rows] = new
        master.folded = rows
    # A chunk of F nodes is (fixed cost (F,), coefficient sums (rows, G, F),
    # design bits (F, n)), the node index innermost in the sums, so the
    # (rows, G, 1) views below broadcast over the nodes.
    terms = [master.bound_terms[d, :, :rows].T[:, :, None] for d in range(n + 1)]
    by_plant = [coefficients[:, :, p, None] for p in range(n)]
    # see the module docstring: the bound may round above a leaf below it
    scale = fixed.sum() + (np.abs(constants) + np.abs(coefficients).sum(axis=2)).max(axis=0).sum()
    slack = 4 * (n + groups + 3) * np.finfo(float).eps * scale

    def branch(depth, nodes):
        """The children of depth-`depth` nodes, closed ones first."""
        base, sums, bits = nodes
        if len(choices[depth]) == 2:
            width = len(base)
            base = np.concatenate([base, base + fixed[depth]])
            children = np.empty(sums.shape[:2] + (2 * width,))
            children[:, :, :width] = sums
            np.add(sums, by_plant[depth], out=children[:, :, width:])
            bits = np.concatenate([bits, bits])
            bits[width:, depth] = True
            return base, children, bits
        if choices[depth][0]:
            return base + fixed[depth], sums + by_plant[depth], bits
        return nodes

    def bound(depth, nodes):
        base, sums, _ = nodes
        # left to right, as ordered_sum adds (and enumeration's total)
        maxima = np.maximum.reduce(sums + terms[depth], axis=0)
        return base + np.add.accumulate(maxima, axis=0)[-1]

    def select(nodes, index):
        base, sums, bits = nodes
        return base[index], sums[:, :, index], bits[index]

    root_bits = np.array([choices[p] == (1,) for p in range(n)])
    root = (np.zeros(1), np.zeros((rows, groups, 1)), root_bits[None])
    last_open = max(p for p in range(n) if choices[p][-1])
    nodes = root
    for depth in range(n):  # the dive: its leaf is the first incumbent
        opened = nodes[2].any()
        nodes = branch(depth, nodes)
        bounds = bound(depth + 1, nodes)
        at = len(bounds) - 1 if depth == last_open and not opened else int(bounds.argmin())
        nodes = select(nodes, slice(at, at + 1))
    best_value, best_bits = bounds[at], nodes[2][0]

    chunk = max(1, FRONTIER_LIMIT // (2 * groups * rows))  # parents per branching
    stack = [(0, root)]
    while stack:
        depth, nodes = stack.pop()
        nodes = branch(depth, nodes)  # drops this chunk's own arrays
        depth += 1
        bounds = bound(depth, nodes)
        if depth == n:
            bits = nodes[2]
            bounds[~bits.any(axis=1)] = np.inf  # the design that opens no plant
            value = bounds.min()
            if value <= best_value:
                ties = bits[bounds == value]
                if value == best_value:
                    ties = np.concatenate([ties, best_bits[None]])
                best_value, best_bits = value, ties[np.lexsort(ties.T[::-1])[0]]
            continue
        keep = ~(bounds > best_value + slack)
        if keep.all() and len(keep) <= chunk:
            stack.append((depth, nodes))
            continue
        kept = np.flatnonzero(keep)  # survivors, copied one chunk at a time
        for at in reversed(range(0, len(kept), chunk)):
            stack.append((depth, select(nodes, kept[at : at + chunk])))
    return Design(open=dict(zip(plants, best_bits.astype(int).tolist()))), float(best_value)


def run_lshaped(
    instance: Instance,
    scenarios: Scenarios,
    epsilon: float,
    forced: dict | None = None,
    max_iterations: int = 500,
    solver: RecourseSolver | None = None,
) -> LShapedResult:
    """Alternate master solves and scenario solves until the gap closes.

    Each iteration solves the N scenario LPs at the master's candidate
    with `pareto` set (see `recourse`), so each cut comes from an optimal
    dual at the candidate that is also optimal at the openings perturbed
    toward the core point: a Magnanti-Wong cut, still valid at every design
    and tight at the candidate.

    The N scenario LPs of one iteration share one basis pool (see
    `simplex`): they share A and the candidate design, so an earlier
    scenario's optimal basis often answers a later one without a pivot.
    The pool lasts one iteration. A pool carried across the run keeps
    growing, and every LP scans it in order: on the `solve_large` benchmark
    workload it avoided under 5% more pivots and more than doubled the
    simplex's own time. It and the iteration's last batch are dropped before
    the next master solve, so their arrays are freed before that call's work
    arrays are allocated.

    A design the master proposes again has its tight cuts in the master
    already, and solving it again would give the same upper bound, so the
    run stops there: it returns if the gap test passes on the master's
    bound and the known upper bound, and raises IterationLimitError naming
    the stall if not. `iterations` counts the iterations that solved
    scenarios, so a run solves iterations x N LPs; the traces hold one
    entry per master solve.
    """
    if not scenarios:
        raise ValidationError("need at least one scenario")
    if not epsilon > 0:
        raise ValidationError("epsilon must be positive")
    n_scen = len(scenarios)
    master = Master(instance, n_scen, forced)
    solver = solver or RecourseSolver(instance)
    data = solver.arrays(scenarios)  # every iteration solves the same scenarios
    groups = master.groups
    group_of = np.arange(n_scen) * groups // n_scen

    lb_trace: list[float] = []
    ub_trace: list[float] = []
    ub = np.inf
    incumbent: Design | None = None
    evaluated = set()
    kept_duals = 0

    def gap(lb):
        return (ub - lb) / ub if ub > 0 else 0.0

    def result():
        return LShapedResult(
            design=incumbent,
            objective=ub,
            iterations=len(evaluated),
            lb_trace=lb_trace,
            ub_trace=ub_trace,
            kept_duals=kept_duals,
        )

    for _ in range(max_iterations):
        candidate, lb = solve_master(master)
        lb_trace.append(lb)
        key = candidate.key()
        if key in evaluated:
            ub_trace.append(ub)
            if gap(lb) <= epsilon:
                return result()
            raise IterationLimitError(
                f"stalled after {len(evaluated)} iterations: the master re-proposed an "
                f"evaluated design at gap {gap(lb):.3g} > epsilon {epsilon!r}",
                lb_trace,
                ub_trace,
            )
        evaluated.add(key)

        fixed = fixed_cost(instance, candidate)
        mean_recourse = 0.0
        constants = np.zeros(groups)
        coefficients = np.zeros((groups, len(master.plants)))
        bases = []
        for batch in solver.batches(candidate, data, bases, pareto=True):
            kept_duals += int(batch.kept_dual.sum())
            mean_recourse = float(ordered_sum(batch.objective / n_scen, mean_recourse))
            const, coeff = cut_terms_from(batch)
            rows = group_of[batch.first : batch.first + batch.size]
            np.add.at(constants, rows, const / n_scen)  # one row at a time, in scenario order
            np.add.at(coefficients, rows, coeff / n_scen)
        del batch, bases
        z_n = fixed + mean_recourse
        if incumbent is None or z_n < ub:
            ub = z_n
            incumbent = candidate
        ub_trace.append(ub)

        if gap(lb) <= epsilon:
            return result()
        master.add_cuts(constants, coefficients)

    raise IterationLimitError(
        f"no convergence within {max_iterations} iterations", lb_trace, ub_trace
    )
