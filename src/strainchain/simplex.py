"""Bounded-variable primal simplex with sparse pivots.

Solves  min c.x  s.t.  A x = b,  0 <= x <= u  (u may be +inf or 0) given a
starting basis that the caller knows to be feasible. The recourse problems
always admit one (slacks plus shortage/excess plus the self-distribution
columns), so no phase-1 is needed here.

Pivot rule is Dantzig with a permanent switch to Bland's rule after a long
degenerate streak, which guarantees termination. The basis inverse is kept
explicitly. A caller that knows the starting basis inverse in closed form
passes it in and saves the first factorization.

Pricing covers only the columns that can ever enter: those whose upper
bound exceeds the pivot tolerance (a gated arc of a closed plant has upper
bound 0 and never moves). Their reduced costs come from a copy of those
columns, taken once per solve and laid out so that each is rounded exactly
as in the full product, and each candidate's bound state is kept as a
direction (-1 at lower, +1 at upper, 0 basic) updated at every pivot. The
candidates are in column order, so Dantzig's first maximum and Bland's
lowest index pick the column that full pricing would.

Each pivot touches only what changes. The entering column d = B^-1 a_e of a
0/+-1 network matrix has a handful of nonzeros, so the ratio test, its
tie-break and the basic-value update run over those rows on Python floats,
and the rank-1 update rewrites only those rows of B^-1: every other entry
would subtract an exact zero, so this is exact in value for any data, and
every pivot decision is the one the dense update makes. The basic costs and
bounds are carried across pivots.

B^-1 is exact while it is integral, every entering column is integral,
every pivot element is +-1 and no sum or product reaches 2^53, which is
read from the start inverse, the entering columns and the pivot elements
themselves. While it holds, the refreshes every REFRESH_EVERY pivots and the
final polish recompute the basic values, duals and reduced costs from the
updated inverse without refactorizing, and the return checks the primal
residual |Ax - b| instead, since no factorization has checked a caller's
start inverse. Otherwise LAPACK's inv refactorizes the basis at those points,
as a drifting inverse needs. On the recourse bases LAPACK's inverse is exact
too, and the two differ only in the sign of zero entries, which no returned
array shows. The returned reduced costs cover every column.

A caller that solves many LPs with the same A (one design's evaluation
batch, or the N scenario LPs of one decomposition iteration, which differ
only in b, the bounds and some costs) may pass a pool:
a list of (basis, at-upper mask, B^-1) entries of earlier optimal bases.
Before pricing, each entry is tried in the order it was added; the first
whose optimality certificate holds answers the LP with no pivot. The
certificate is the one the pivot loop stops on: the basic values B^-1(b -
A_N x_N), from the gemv of the final polish, lie within [0, u_B] up to
POOL_PRIMAL_TOL, and no nonbasic column that can move has a reduced cost of
the wrong sign beyond the pricing tolerance; an entry that holds a column at
an upper bound this LP lacks is skipped. Otherwise the LP is solved from its
start basis on the same pivot path as without a pool, and its final basis
joins the pool only when the exactness proof above holds at the end, so the
pool holds exact inverses only and adds no LAPACK call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REFRESH_EVERY = 60      # pivots between full basis-inverse refactorizations
DEGENERATE_STEP = 1e-11 # step sizes below this count toward the Bland switch
EXACT_LIMIT = 2 ** 53   # integers up to this magnitude add and multiply exactly
RESIDUAL_TOL = 1e-9     # |Ax - b| allowed without a refactorization, relative to the data
POOL_PRIMAL_TOL = 1e-9  # bound violation a pooled basis may show, relative to 1 + max |b|


class SimplexError(RuntimeError):
    """Internal numerical failure (iteration cap, singular basis, unbounded ray)."""


@dataclass
class LpSolution:
    x: np.ndarray          # primal values, length n
    row_duals: np.ndarray  # y = c_B B^-1, length m
    reduced_costs: np.ndarray
    at_upper: np.ndarray   # nonbasic-at-upper-bound mask, length n
    objective: float
    iterations: int


def _pricing_columns(A: np.ndarray, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns `cand` of A, laid out so that y @ copy rounds like y @ A.

    The BLAS vector-matrix product of a C-ordered matrix sums the last
    n % 4 entries in a scalar tail and the others in blocks of four, with
    different rounding. The copy therefore holds the candidates before A's
    tail, padded with copies of column 0 to a multiple of four, followed by
    A's whole tail. Returns the copy and the position of each candidate in it.
    """
    n = A.shape[1]
    tail = n - n % 4
    split = int(np.searchsorted(cand, tail))
    pad = -split % 4
    cols = np.concatenate([cand[:split], np.zeros(pad, dtype=np.intp), np.arange(tail, n)])
    pos = np.concatenate([np.arange(split), cand[split:] + (split + pad - tail)])
    return A.take(cols, axis=1), pos


def _integral(values: np.ndarray) -> bool:
    return np.array_equal(values, np.trunc(values))


def _pooled_answer(pool, A, b, c, upper, finite_ub, movable, rc_tol):
    """(basis, at-upper mask, basic values, duals, reduced costs) of the
    first pooled basis optimal for this LP, or None."""
    tol = POOL_PRIMAL_TOL * (1.0 + float(np.abs(b).max(initial=0.0)))
    rhs = {}  # b - A x_N, by the columns held at upper
    for basis, at_upper, Binv in pool:
        if not finite_ub[at_upper].all():
            continue  # x_N would hold inf, and the basic values NaN
        key = at_upper.tobytes()
        if key not in rhs:
            # basic columns are never at upper, so this is the polish's x_N
            rhs[key] = b - A @ np.where(at_upper, upper, 0.0)
        xB = Binv @ rhs[key]
        if not (xB.min(initial=0.0) >= -tol and (xB - upper[basis]).max(initial=0.0) <= tol):
            continue
        y = c[basis] @ Binv
        rc = c - y @ A
        # a violation is rc times the direction the column may move in
        viol = np.where(at_upper, rc, -rc)
        viol[basis] = 0.0
        if viol[movable].max(initial=0.0) <= rc_tol:
            return basis, at_upper, xB, y, rc
    return None


def _solution(c, upper, finite_ub, basis, at_upper, xB, y, rc, iterations) -> LpSolution:
    x = np.where(at_upper & finite_ub, upper, 0.0)
    x[basis] = xB
    np.clip(x, 0.0, None, out=x)
    return LpSolution(
        x=x,
        row_duals=y,
        reduced_costs=rc,
        at_upper=at_upper,
        objective=float(c @ x),
        iterations=iterations,
    )


def solve_bounded_lp(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    upper: np.ndarray,
    basis: np.ndarray,
    max_iterations: int | None = None,
    basis_inverse: np.ndarray | None = None,
    pool: list | None = None,
) -> LpSolution:
    """Optimal vertex from a feasible starting basis, every nonbasic column at 0.

    basis_inverse, when given, must equal inv(A[:, basis]); it is updated in
    place. A wrong one that no refactorization replaces raises SimplexError
    naming the primal residual. pool, when given, holds earlier optimal bases
    of LPs with this same A; one of them may answer the LP with no pivot
    (iterations 0), and an LP solved by pivoting adds its exact final basis.
    """
    m, n = A.shape
    basis = np.asarray(basis, dtype=np.intp).copy()
    if basis.shape != (m,):
        raise SimplexError("basis must list exactly one column per row")
    at_upper = np.zeros(n, dtype=bool)  # every column starts at 0; False while basic
    finite_ub = np.isfinite(upper)

    if max_iterations is None:
        max_iterations = 500 + 40 * (m + n)
    rc_tol = 1e-9 * max(1.0, float(np.abs(c).max(initial=0.0)))
    piv_tol = 1e-10
    # only a column whose span exceeds piv_tol can ever enter; cand is
    # sorted, so both pivot rules pick the column full pricing would
    movable = upper > piv_tol
    if pool:
        answer = _pooled_answer(pool, A, b, c, upper, finite_ub, movable, rc_tol)
        if answer is not None:
            basis, at_upper, xB, y, rc = answer
            return _solution(c, upper, finite_ub, basis, at_upper.copy(), xB, y, rc, 0)
    cand = np.flatnonzero(movable)
    A_price, price_pos = _pricing_columns(A, cand)
    c_cand = c[cand]
    cand_pos = np.full(n, -1)
    cand_pos[cand] = np.arange(cand.size)
    basis_pos = cand_pos[basis]  # -1 for a basic column that can never enter
    # a candidate's violation is its reduced cost times its direction: -1 at
    # lower (wants rc < 0), +1 at upper (wants rc > 0), 0 in the basis
    direction = np.full(cand.size, -1.0)
    direction[basis_pos[basis_pos >= 0]] = 0.0
    c_basis, ub_basis = c[basis], upper[basis]

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
    # inv_bound is the largest |entry| Binv has held while proven exact (inf
    # once it is not); entered lists the columns whose check is still due
    inv_bound = float(np.abs(Binv).max(initial=0.0)) if _integral(Binv) else np.inf
    entered = []

    def still_exact() -> bool:
        nonlocal inv_bound
        if entered and inv_bound < np.inf:
            cols = A[:, entered]
            if not _integral(cols):
                inv_bound = np.inf
            else:
                # an entry of Binv @ a sums at most bound * |a|_1; the update
                # adds a product of two such values to an entry
                bound, col_norm = int(inv_bound), int(np.abs(cols).sum(axis=0).max())
                if bound * (1 + bound * col_norm) > EXACT_LIMIT:
                    inv_bound = np.inf
            entered.clear()
        return inv_bound < np.inf

    xB = basic_values(Binv)
    bland = False
    degenerate_streak = 0
    pivots_since_refresh = 0

    for iteration in range(1, max_iterations + 1):
        if not cand.size:
            break
        y = c_basis @ Binv
        rc = c_cand - (y @ A_price)[price_pos]
        viol = rc * direction
        if bland:
            idx = np.nonzero(viol > rc_tol)[0]
            if idx.size == 0:
                break
            k = int(idx[0])
        else:
            k = int(viol.argmax())
            if viol[k] <= rc_tol:
                break
        e = int(cand[k])

        sigma = -1.0 if at_upper[e] else 1.0
        d = Binv @ A[:, e]
        # only the handful of rows where d is nonzero move or can block the
        # step, so the ratio test runs over them on Python floats
        rows = np.flatnonzero(d)
        row_list = rows.tolist()
        d_rows = d[rows]
        # xB moves by -t * delta as the entering var moves by sigma*t
        delta = (sigma * d_rows).tolist()
        x_rows = xB[rows].tolist()

        # step length to the first bound: basic vars to lower, basic vars to
        # upper, or the entering variable's own span (a bound flip)
        steps = [
            x / dl if dl > piv_tol
            else (u - x) / -dl if dl < -piv_tol and math.isfinite(u)
            else np.inf
            for dl, x, u in zip(delta, x_rows, ub_basis[rows].tolist())
        ]
        t_flip = upper[e] if finite_ub[e] else np.inf
        t_best = min(min(steps, default=np.inf), t_flip)
        if not np.isfinite(t_best):
            raise SimplexError("unbounded direction in a cost-nonnegative problem")
        t_best = max(t_best, 0.0)
        tie_tol = piv_tol * max(1.0, t_best)

        if t_flip <= t_best + tie_tol:
            leave = -1          # bound flip, basis unchanged (always a strict step here)
            t_best = t_flip     # the entering variable crosses its full span
        else:
            tied = [j for j, step in enumerate(steps) if step <= t_best + tie_tol]
            if bland:
                i = min(tied, key=lambda j: basis[row_list[j]])
            else:
                i = max(tied, key=lambda j: abs(delta[j]))  # the first of equal maxima
            leave = row_list[i]
            leave_to_upper = delta[i] < -piv_tol

        if t_best <= DEGENERATE_STEP:
            degenerate_streak += 1
            if degenerate_streak > 40 + 2 * m:
                bland = True
        else:
            degenerate_streak = 0

        for r, dl, x in zip(row_list, delta, x_rows):
            xB[r] = x - t_best * dl
        if leave < 0:
            at_upper[e] = ~at_upper[e]
            direction[k] = -direction[k]
            continue

        # pivot: entering takes row `leave`
        x_enter = (upper[e] - t_best) if at_upper[e] else t_best
        out_col = int(basis[leave])
        at_upper[out_col] = leave_to_upper
        at_upper[e] = False
        basis[leave] = e
        c_basis[leave], ub_basis[leave] = c[e], upper[e]
        xB[leave] = x_enter
        if basis_pos[leave] >= 0:
            direction[basis_pos[leave]] = 1.0 if leave_to_upper else -1.0
        basis_pos[leave] = k
        direction[k] = 0.0

        piv = d[leave]
        if abs(piv) < piv_tol:
            raise SimplexError("numerically singular pivot")
        # rank-1 update of the rows where d is nonzero; every other row would
        # subtract an exact zero
        row = Binv[leave] / piv
        update = Binv[rows] - np.multiply.outer(d_rows, row)
        update[i] = row
        Binv[rows] = update
        if inv_bound < np.inf and abs(piv) == 1.0:
            entered.append(e)
            inv_bound = max(inv_bound, float(np.abs(update).max()))
        else:
            inv_bound = np.inf

        pivots_since_refresh += 1
        if pivots_since_refresh >= REFRESH_EVERY:
            if not still_exact():
                Binv = inverse()
            xB = basic_values(Binv)
            pivots_since_refresh = 0
    else:
        raise SimplexError(f"iteration cap {max_iterations} exceeded")

    exact = still_exact()
    if not exact:
        Binv = inverse()  # final polish for accurate primals/duals
    xB = basic_values(Binv)
    y = c_basis @ Binv
    rc = c - y @ A

    solution = _solution(c, upper, finite_ub, basis, at_upper, xB, y, rc, iteration)
    if exact:
        # no factorization has checked a caller's start inverse: a wrong one shows here
        x = solution.x
        residual = float(np.abs(A @ x - b).max(initial=0.0))
        scale = 1.0 + max(float(np.abs(b).max(initial=0.0)), float(x.max(initial=0.0)))
        if residual > RESIDUAL_TOL * scale:
            raise SimplexError(
                f"primal residual |Ax - b| = {residual:.3g}: the start basis inverse is wrong"
            )
        if pool is not None:
            pool.append((basis, at_upper.copy(), Binv.copy()))
    return solution
