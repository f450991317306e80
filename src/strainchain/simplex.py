"""Bounded-variable primal simplex with sparse pivots, exact on totally
unimodular matrices.

Solves  min c.x  s.t.  A x = b,  0 <= x <= u  (u may be +inf or 0) given a
starting basis that the caller knows to be feasible, and its inverse. The
recourse problems always admit one (slacks plus shortage/excess plus the
self-distribution columns) whose inverse has a closed form, so no phase-1
and no factorization is needed here.

Pivot rule is Dantzig with a permanent switch to Bland's rule after a long
degenerate streak, which guarantees termination. The basis inverse is kept
explicitly, from the start inverse the caller passes.

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

A must be totally unimodular (TU): every square submatrix has determinant
0 or +-1. The recourse matrix is (the proof is in `recourse`). Then every
basis inverse is 0/+-1, its entries being cofactors over a determinant of
+-1, and so is every entering column d, since pivoting keeps a matrix TU.
So B^-1 stays exact without a factorization: each pass checks that every
nonzero entry of d is +-1 and raises SimplexError otherwise, as only an A
that is not TU shows one. By induction from a 0/+-1 start inverse, every
pivot element is +-1 and every rank-1 update adds and multiplies small
integers, which floats do exactly. With every nonzero of d at +-1, the
ratio test's steps are basic values or their distances to an upper bound,
and Dantzig's tie-break on the largest |d| takes the first tied row. The
refreshes every REFRESH_EVERY pivots and the final polish recompute the
basic values, and the polish the duals and reduced costs, from the updated
inverse. No guard reads whether the caller's start inverse is the start
basis's own, so the return checks the primal residual |Ax - b|, where a
wrong one shows. The returned reduced costs cover every column.

A caller that solves many LPs with the same A (one design's evaluation
batch, or the N scenario LPs of one decomposition iteration, which differ
only in b, the bounds and some costs) may pass a pool: a list of
`PoolEntry`s, each an earlier optimal basis, its at-upper mask and B^-1.
Before pricing, each entry is tried in the order it was added; the first
whose optimality certificate holds answers the LP with no pivot. The
certificate is the one the pivot loop stops on: the basic values B^-1(b -
A_N x_N), from the gemv of the final polish, lie within [0, u_B] up to
POOL_PRIMAL_TOL, and no nonbasic column that can move has a reduced cost of
the wrong sign beyond the pricing tolerance; an entry that holds a column at
an upper bound this LP lacks is skipped. Otherwise the LP is solved from its
start basis on the same pivot path as without a pool, and its final basis,
with its exact inverse, joins the pool. The start basis may be passed as a
function, so that its inverse is built only when no pooled basis answers.

A caller may also pass a perturbed right-hand side and bounds (b', u') of
the same LP. The call first answers (b, u) as above. Then the primal
simplex re-optimizes from that answer's basis and at-upper mask at
(b', u'), and when the certificate shows the basis it ends on optimal at
(b, u) too, the call returns that basis's duals and reduced costs: an
optimal dual at (b, u) that is also optimal at (b', u'). x, the at-upper
mask and the objective stay the (b, u) answer's. If the start is no
feasible basis at (b', u'), or the re-optimized one fails the certificate
at (b, u), the (b, u) answer's duals are kept and `kept_dual` is set. A
pool entry keeps the basis last re-optimized from it; a later
LP that the entry answers first tries that basis at both points and
re-optimizes only if it fails. `recourse` perturbs the decomposition's LPs
toward a core point, which makes these duals Magnanti-Wong (Pareto-optimal)
ones.

`iterations` counts pricing passes, not pivots: each run of the pivot loop
counts its final pass, which finds no entering column, and a bound flip
counts as a pass like a pivot. A pooled answer makes no pass, and a
perturbation's re-optimization adds its own. A pass after a bound flip
reuses the previous pass's reduced costs, since a flip changes neither the
basis nor B^-1.

Beside the pool, a caller may pass an answer table: a dict from a digest of
an LP's data (b, c, upper and the perturbation, if any) to the compact
`TableAnswer` an earlier call gave for the same data. The table is looked up
before the pool. A hit returns fresh arrays rebuilt from the stored answer,
with the reduced costs recomputed as c - y @ A (the expression every answer
path ends on, so they are the stored answer's bit for bit) and iterations
0; it neither reads nor grows the pool. A miss is answered as without a
table and its answer stored. The digest leaves out A and the start basis,
so a table serves LPs with one A whose start basis is a function of b.
A stored answer is optimal for the same LP, but it came from the pool the
first call had: where the LP has several optimal vertices or duals, a call
with another pool could have returned another of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REFRESH_EVERY = 60      # pivots between recomputations of the basic values from B^-1
DEGENERATE_STEP = 1e-11 # step sizes below this count toward the Bland switch
RESIDUAL_TOL = 1e-9     # |Ax - b| a solve may return, relative to the data
POOL_PRIMAL_TOL = 1e-9  # bound violation a pooled basis may show, relative to 1 + max |b|
PIVOT_TOL = 1e-10       # spans at or below this count as zero; relative ratio-test tie tolerance
ANSWER_KEY_BYTES = 16   # digest size of an answer table's keys


class SimplexError(RuntimeError):
    """A solve that cannot finish: the iteration cap, an unbounded ray, a
    matrix that is not totally unimodular, or a wrong start basis or inverse."""


@dataclass
class LpSolution:
    x: np.ndarray          # primal values, length n
    row_duals: np.ndarray  # y = c_B B^-1, length m
    reduced_costs: np.ndarray
    at_upper: np.ndarray   # nonbasic-at-upper-bound mask, length n
    objective: float
    iterations: int        # pricing passes, not pivots (see the module docstring)
    kept_dual: bool = False  # a perturbation was given, but no re-optimized basis passed


@dataclass(eq=False)
class PoolEntry:
    """An exact optimal basis in a pool: its columns, at-upper mask and B^-1,
    and the (basis, at-upper mask, B^-1) last re-optimized from it at a
    perturbation, if any."""

    basis: np.ndarray
    at_upper: np.ndarray
    inverse: np.ndarray
    pareto: tuple | None = None


@dataclass(frozen=True, eq=False, slots=True)
class TableAnswer:
    """An LP's answer as an answer table keeps it: one bytes object holding
    the row duals and the nonzero entries of x (by bits, so a -0.0 is kept)
    as float64, then the positions of those entries and of the columns at
    upper as intp (index arrays of another type are converted on every
    use); the number of those entries, the objective and `kept_dual`. Four
    arrays per answer would spend about half its memory on array headers."""

    packed: bytes
    nonzeros: int
    objective: float
    kept_dual: bool

    @classmethod
    def of(cls, solution: LpSolution) -> "TableAnswer":
        x_pos = np.flatnonzero(solution.x.view(np.uint64))
        values = np.concatenate([solution.row_duals, solution.x[x_pos]])
        positions = np.concatenate([x_pos, np.flatnonzero(solution.at_upper)])
        return cls(
            packed=values.tobytes() + positions.tobytes(),
            nonzeros=x_pos.size,
            objective=solution.objective,
            kept_dual=solution.kept_dual,
        )

    def solution(self, A: np.ndarray, c: np.ndarray) -> LpSolution:
        m, n = A.shape
        count = m + self.nonzeros
        values = np.frombuffer(self.packed, dtype=np.float64, count=count)
        positions = np.frombuffer(self.packed, dtype=np.intp, offset=8 * count)
        x = np.zeros(n)
        x[positions[: self.nonzeros]] = values[m:]
        at_upper = np.zeros(n, dtype=bool)
        at_upper[positions[self.nonzeros :]] = True
        y = values[:m].copy()
        return LpSolution(
            x=x,
            row_duals=y,
            reduced_costs=c - y @ A,
            at_upper=at_upper,
            objective=self.objective,
            iterations=0,
            kept_dual=self.kept_dual,
        )


def answer_key(b, c, upper, perturbed) -> bytes:
    """The answer table's key of an LP: a digest of its data. With one A the
    lengths tell an LP with a perturbation from one without."""
    # imported here: hashlib loads OpenSSL (about 4 ms), which only a table needs
    import hashlib

    digest = hashlib.blake2b(digest_size=ANSWER_KEY_BYTES)
    for array in (b, c, upper, *(perturbed or ())):
        digest.update(np.asarray(array, dtype=float).tobytes())
    return digest.digest()


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


def _primal_tol(b) -> float:
    return POOL_PRIMAL_TOL * (1.0 + float(np.abs(b).max(initial=0.0)))


def _within_bounds(xB, ub_basis, tol) -> bool:
    return xB.min(initial=0.0) >= -tol and (xB - ub_basis).max(initial=0.0) <= tol


def _primal_feasible(A, b, upper, basis, at_upper, Binv) -> bool:
    """Whether the basis, with the columns at_upper at their bounds, has its
    basic values within their bounds at (b, upper)."""
    if not np.isfinite(upper[at_upper]).all():
        return False  # x_N would hold inf, and the basic values NaN
    # basic columns are never at upper, so this is the polish's x_N
    xB = Binv @ (b - A @ np.where(at_upper, upper, 0.0))
    return _within_bounds(xB, upper[basis], _primal_tol(b))


def _dual_feasible(rc, basis, at_upper, movable, rc_tol) -> bool:
    # a violation is rc times the direction the column may move in
    viol = np.where(at_upper, rc, -rc)
    viol[basis] = 0.0
    return viol[movable].max(initial=0.0) <= rc_tol


def _pooled_answer(pool, A, b, c, upper, finite_ub, movable, rc_tol):
    """(entry, basic values, duals, reduced costs) of the first pooled basis
    optimal for this LP, or None."""
    tol = _primal_tol(b)
    rhs = {}  # b - A x_N, by the columns held at upper
    for entry in pool:
        basis, at_upper, Binv = entry.basis, entry.at_upper, entry.inverse
        if not finite_ub[at_upper].all():
            continue  # x_N would hold inf, and the basic values NaN
        key = at_upper.tobytes()
        if key not in rhs:
            # basic columns are never at upper, so this is the polish's x_N
            rhs[key] = b - A @ np.where(at_upper, upper, 0.0)
        xB = Binv @ rhs[key]
        if not _within_bounds(xB, upper[basis], tol):
            continue
        y = c[basis] @ Binv
        rc = c - y @ A
        if _dual_feasible(rc, basis, at_upper, movable, rc_tol):
            return entry, xB, y, rc
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
    basis,
    max_iterations: int | None = None,
    basis_inverse: np.ndarray | None = None,
    pool: list | None = None,
    perturbed: tuple | None = None,
    answers: dict | None = None,
) -> LpSolution:
    """Optimal vertex from a feasible starting basis, every nonbasic column at 0.

    A must be totally unimodular; a pivot that shows it is not raises
    SimplexError. basis is the start basis, or a function returning (start
    basis, its inverse), called only when no pooled basis answers. An array
    basis needs basis_inverse, which must equal inv(A[:, basis]) and is
    updated in place; a wrong one raises SimplexError naming the primal
    residual. pool, when given, holds `PoolEntry`s of earlier optimal bases
    of LPs with this same A; one of them may answer the LP with no pivot
    (iterations 0), and an LP solved by pivoting adds its final basis.
    perturbed, when given, is (b', upper') of the same LP: the duals returned
    are then those of a basis optimal at both points, when one is found (see
    the module docstring). answers, when given, is an answer table of LPs
    with this same A: an LP it holds is answered from it (iterations 0),
    and any other LP's answer is added to it. iterations counts pricing
    passes, not pivots.
    """
    if answers is not None:
        key = answer_key(b, c, upper, perturbed)
        known = answers.get(key)
        if known is not None:
            return known.solution(A, c)
    solution = _solve(A, b, c, upper, basis, max_iterations, basis_inverse, pool, perturbed)
    if answers is not None:
        answers[key] = TableAnswer.of(solution)
    return solution


def _solve(A, b, c, upper, basis, max_iterations, basis_inverse, pool, perturbed) -> LpSolution:
    """`solve_bounded_lp` without an answer table."""
    m, n = A.shape
    finite_ub = np.isfinite(upper)
    if max_iterations is None:
        max_iterations = 500 + 40 * (m + n)
    rc_tol = 1e-9 * max(1.0, float(np.abs(c).max(initial=0.0)))
    answer = None
    if pool:
        answer = _pooled_answer(pool, A, b, c, upper, finite_ub, upper > PIVOT_TOL, rc_tol)
    if answer is not None:
        entry, xB, y, rc = answer
        basis, at_upper, Binv = entry.basis, entry.at_upper, entry.inverse
        solution = _solution(c, upper, finite_ub, basis, at_upper.copy(), xB, y, rc, 0)
    else:
        entry = None
        if callable(basis):
            basis, basis_inverse = basis()
        basis = np.asarray(basis, dtype=np.intp).copy()
        if basis.shape != (m,):
            raise SimplexError("basis must list exactly one column per row")
        if basis_inverse is None:
            raise SimplexError("a start basis needs its inverse, basis_inverse")
        at_upper = np.zeros(n, dtype=bool)  # every column starts at 0; False while basic
        basis, at_upper, Binv, xB, y, rc, iterations = _pivot(
            A, b, c, upper, basis, at_upper, basis_inverse, max_iterations, rc_tol
        )
        solution = _solution(c, upper, finite_ub, basis, at_upper, xB, y, rc, iterations)
        # nothing has checked a caller's start inverse: a wrong one shows here
        x = solution.x
        residual = float(np.abs(A @ x - b).max(initial=0.0))
        scale = 1.0 + max(float(np.abs(b).max(initial=0.0)), float(x.max(initial=0.0)))
        if residual > RESIDUAL_TOL * scale:
            raise SimplexError(
                f"primal residual |Ax - b| = {residual:.3g}: the start basis inverse is wrong"
            )
        if pool is not None:
            entry = PoolEntry(basis, at_upper.copy(), Binv.copy())
            pool.append(entry)
    if perturbed is None:
        return solution
    duals, passes = _reoptimized(
        A, b, c, upper, perturbed, (basis, at_upper, Binv), entry, max_iterations, rc_tol
    )
    solution.iterations += passes
    if duals is None:
        solution.kept_dual = True
    else:
        solution.row_duals, solution.reduced_costs = duals
    return solution


def _reoptimized(A, b, c, upper, perturbed, start, entry, max_iterations, rc_tol):
    """((duals, reduced costs) of a basis optimal both at `perturbed` and at
    (b, upper), or None; the pricing passes spent).

    start is the (basis, at-upper mask, B^-1) that answered (b, upper), and
    entry its pool entry or None. The entry's stored basis is tried first;
    otherwise the simplex re-optimizes from a copy of start at `perturbed`,
    and the result is stored in the entry.
    """
    b2, upper2 = perturbed
    movable = (upper > PIVOT_TOL) | (upper2 > PIVOT_TOL)

    def optimal_at_both(basis, at_upper, Binv, rc) -> bool:
        return (
            _dual_feasible(rc, basis, at_upper, movable, rc_tol)
            and _primal_feasible(A, b2, upper2, basis, at_upper, Binv)
            and _primal_feasible(A, b, upper, basis, at_upper, Binv)
        )

    if entry is not None and entry.pareto is not None:
        basis, at_upper, Binv = entry.pareto
        y = c[basis] @ Binv
        rc = c - y @ A
        if optimal_at_both(basis, at_upper, Binv, rc):
            return (y, rc), 0
    basis, at_upper, Binv = (array.copy() for array in start)
    if not _primal_feasible(A, b2, upper2, basis, at_upper, Binv):
        return None, 0  # the start is no feasible basis of the perturbed LP
    basis, at_upper, Binv, _, y, rc, passes = _pivot(
        A, b2, c, upper2, basis, at_upper, Binv, max_iterations, rc_tol
    )
    if not optimal_at_both(basis, at_upper, Binv, rc):
        return None, passes
    if entry is not None:
        entry.pareto = (basis, at_upper, Binv)
    return (y, rc), passes


def _pivot(A, b, c, upper, basis, at_upper, Binv, max_iterations, rc_tol):
    """Pivot from a feasible basis to an optimal one.

    basis, at_upper (the nonbasic columns held at upper) and Binv, the
    basis's 0/+-1 inverse, are updated in place. An entering column B^-1 a_e
    with a nonzero entry other than +-1 raises SimplexError: A is not totally
    unimodular. Returns (basis, at_upper, Binv, basic values, duals, reduced
    costs, iterations). iterations counts the pricing passes, the last of
    which finds no entering column; a bound flip's pass counts too.
    """
    m, n = A.shape
    finite_ub = np.isfinite(upper)
    # only a column whose span exceeds PIVOT_TOL can ever enter; cand is
    # sorted, so both pivot rules pick the column full pricing would
    cand = np.flatnonzero(upper > PIVOT_TOL)
    A_price, price_pos = _pricing_columns(A, cand)
    c_cand = c[cand]
    cand_pos = np.full(n, -1)
    cand_pos[cand] = np.arange(cand.size)
    basis_pos = cand_pos[basis]  # -1 for a basic column that can never enter
    # a candidate's violation is its reduced cost times its direction: -1 at
    # lower (wants rc < 0), +1 at upper (wants rc > 0), 0 in the basis
    direction = np.where(at_upper[cand], 1.0, -1.0)
    direction[basis_pos[basis_pos >= 0]] = 0.0
    c_basis, ub_basis = c[basis], upper[basis]

    def basic_values():
        x_nb = np.where(at_upper & finite_ub, upper, 0.0)
        x_nb[basis] = 0.0
        return Binv @ (b - A @ x_nb)

    xB = basic_values()
    bland = False
    degenerate_streak = 0
    pivots_since_refresh = 0

    flipped = False  # a bound flip changes neither the basis nor B^-1, so rc holds
    for iteration in range(1, max_iterations + 1):
        if not cand.size:
            break
        if not flipped:
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
        if any(abs(dl) != 1.0 for dl in delta):
            raise SimplexError(
                "an entering column B^-1 a has an entry other than 0 and +-1:"
                " A is not totally unimodular"
            )
        x_rows = xB[rows].tolist()

        # step length to the first bound: basic vars to lower, basic vars to
        # upper, or the entering variable's own span (a bound flip); each
        # delta is +-1, and u - x is inf at an infinite upper bound
        steps = [
            x if dl > 0.0 else u - x
            for dl, x, u in zip(delta, x_rows, ub_basis[rows].tolist())
        ]
        t_flip = upper[e] if finite_ub[e] else np.inf
        t_best = min(min(steps, default=np.inf), t_flip)
        if not np.isfinite(t_best):
            raise SimplexError("unbounded direction in a cost-nonnegative problem")
        t_best = max(t_best, 0.0)
        tie_tol = PIVOT_TOL * max(1.0, t_best)

        if t_flip <= t_best + tie_tol:
            leave = -1          # bound flip, basis unchanged (always a strict step here)
            t_best = t_flip     # the entering variable crosses its full span
        else:
            tied = [j for j, step in enumerate(steps) if step <= t_best + tie_tol]
            if bland:
                i = min(tied, key=lambda j: basis[row_list[j]])
            else:
                i = tied[0]  # Dantzig's largest |pivot|: every one is 1, so the first
            leave = row_list[i]
            leave_to_upper = delta[i] < 0.0

        if t_best <= DEGENERATE_STEP:
            degenerate_streak += 1
            if degenerate_streak > 40 + 2 * m:
                bland = True
        else:
            degenerate_streak = 0

        for r, dl, x in zip(row_list, delta, x_rows):
            xB[r] = x - t_best * dl
        flipped = leave < 0
        if flipped:
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

        # rank-1 update of the rows where d is nonzero; every other row would
        # subtract an exact zero, and the pivot element is +-1
        row = Binv[leave] / d[leave]
        update = Binv[rows] - np.multiply.outer(d_rows, row)
        update[i] = row
        Binv[rows] = update

        pivots_since_refresh += 1
        if pivots_since_refresh >= REFRESH_EVERY:
            xB = basic_values()
            pivots_since_refresh = 0
    else:
        raise SimplexError(f"iteration cap {max_iterations} exceeded")

    xB = basic_values()  # final polish: basic values, duals and reduced costs from B^-1
    y = c_basis @ Binv
    rc = c - y @ A
    return basis, at_upper, Binv, xB, y, rc, iteration
