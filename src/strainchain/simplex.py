"""Dense bounded-variable primal simplex.

Solves  min c.x  s.t.  A x = b,  0 <= x <= u  (u may be +inf or 0) given a
starting basis that the caller knows to be feasible. The recourse problems
always admit one (slacks plus shortage/excess plus the self-distribution
columns), so no phase-1 is needed here.

Pivot rule is Dantzig with a permanent switch to Bland's rule after a long
degenerate streak, which guarantees termination. The basis inverse is kept
explicitly, updated by one rank-1 product per pivot and refreshed from
scratch periodically to control drift. A caller that knows the starting
basis inverse in closed form passes it in and saves the first
factorization.

Pricing covers only the columns that can ever enter: those whose upper
bound exceeds the pivot tolerance (a gated arc of a closed plant has upper
bound 0 and never moves). Their reduced costs come from a copy of those
columns, taken once per solve and laid out so that each is rounded exactly
as in the full product, and each candidate's bound state is kept as a
direction (-1 at lower, +1 at upper, 0 basic) updated at every pivot. The
candidates are in column order, so Dantzig's first maximum and Bland's
lowest index pick the column that full pricing would. The reduced costs
returned after the final refactorization cover every column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REFRESH_EVERY = 60      # pivots between full basis-inverse refactorizations
DEGENERATE_STEP = 1e-11 # step sizes below this count toward the Bland switch


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


def solve_bounded_lp(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    upper: np.ndarray,
    basis: np.ndarray,
    max_iterations: int | None = None,
    basis_inverse: np.ndarray | None = None,
) -> LpSolution:
    """Optimal vertex from a feasible starting basis, every nonbasic column at 0.

    basis_inverse, when given, must equal inv(A[:, basis]); it is updated in
    place.
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
    cand = np.flatnonzero(upper > piv_tol)
    A_price, price_pos = _pricing_columns(A, cand)
    c_cand = c[cand]
    cand_pos = np.full(n, -1)
    cand_pos[cand] = np.arange(cand.size)
    basis_pos = cand_pos[basis]  # -1 for a basic column that can never enter
    # a candidate's violation is its reduced cost times its direction: -1 at
    # lower (wants rc < 0), +1 at upper (wants rc > 0), 0 in the basis
    direction = np.full(cand.size, -1.0)
    direction[basis_pos[basis_pos >= 0]] = 0.0
    no_step = np.full(m, np.inf)

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
        if not cand.size:
            break
        y = c[basis] @ Binv
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
        delta = sigma * d  # xB moves by -t * delta as the entering var moves by sigma*t

        # step length to the first bound: basic vars to lower, basic vars to
        # upper, or the entering variable's own span (a bound flip)
        steps = no_step.copy()
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
            leave = -1          # bound flip, basis unchanged (always a strict step here)
            t_best = t_flip     # the entering variable crosses its full span
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
            direction[k] = -direction[k]
            continue

        # pivot: entering takes row `leave`
        x_enter = (upper[e] - t_best) if at_upper[e] else t_best
        out_col = int(basis[leave])
        at_upper[out_col] = leave_to_upper
        at_upper[e] = False
        basis[leave] = e
        xB[leave] = x_enter
        if basis_pos[leave] >= 0:
            direction[basis_pos[leave]] = 1.0 if leave_to_upper else -1.0
        basis_pos[leave] = k
        direction[k] = 0.0

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

    Binv = inverse()  # final polish for accurate primals/duals
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
        at_upper=at_upper,
        objective=objective,
        iterations=iteration,
    )
