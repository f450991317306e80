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


def solve_bounded_lp(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    upper: np.ndarray,
    basis: np.ndarray,
    at_upper: np.ndarray | None = None,
    max_iterations: int | None = None,
    basis_inverse: np.ndarray | None = None,
) -> LpSolution:
    """Optimal vertex from a feasible starting basis.

    basis_inverse, when given, must equal inv(A[:, basis]); it is updated in
    place.
    """
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
    spannable = upper > piv_tol  # a column with a shorter span never enters

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

        # entering candidate: at-lower wants rc < 0, at-upper wants rc > 0
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
        delta = sigma * d  # xB moves by -t * delta as the entering var moves by sigma*t

        # step length to the first bound: basic vars to lower, basic vars to
        # upper, or the entering variable's own span (a bound flip)
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
            continue

        # pivot: entering takes row `leave`
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
        at_upper=at_upper & ~in_basis,
        objective=objective,
        iterations=iteration,
    )
