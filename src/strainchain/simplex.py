"""Bounded-variable primal simplex with sparse pivots, exact on totally
unimodular matrices.

Solves  min c.x  s.t.  A x = b,  0 <= x <= u  (u may be +inf or 0) given a
starting basis that the caller knows to be feasible, and its inverse. The
recourse problems always admit one (slacks plus shortage/excess plus the
self-distribution columns) whose inverse has a closed form, so no phase-1
and no factorization is needed here.

Pivot rule is Dantzig with a permanent switch to Bland's rule after a long
degenerate streak, which guarantees termination. The basis inverse is kept
explicitly, from the start inverse the caller passes. One `Basis` record
holds a basis: its columns, at-upper mask and B^-1. The pivot loop updates
it in place, and the pool, the final polish and the Pareto step read it.

Pricing covers only the columns that can ever enter: those whose upper
bound exceeds the pivot tolerance (a gated arc of a closed plant has upper
bound 0 and never moves). It reads A through its `Columns`, built once per
A (`recourse` builds one per solver; an array is wrapped on entry), which
hold each column's at most p nonzeros, all +-1, as positions in [y, -y, 0].
Each pass computes y = c_B B^-1 with one gemv, gathers those positions for
the candidates and adds the p rows in row order, c - ((t0 + t1) + t2) for
p = 3: a handful of additions per column instead of an m-long product. The
row order is the order in which a loop over rows adds; a BLAS product may
group two of a column's three nonzeros first, and the two can differ in
the last bit. Each candidate's bound state is kept as a direction (-1 at
lower, +1 at upper, 0 basic) updated at every pivot. The candidates are in
column order, so Dantzig's first maximum and Bland's lowest index pick the
column that full pricing would. The final polish prices every column with
the full product c - y @ A, the expression every answer path ends on, so
the reduced costs a solve returns do not depend on the pricing kernel.

Each pivot touches only what changes. The entering column d = B^-1 a_e of a
0/+-1 network matrix has a handful of nonzeros, so the ratio test, its
tie-break and the basic-value update run over those rows on Python floats,
and the rank-1 update rewrites only those rows of B^-1: every other entry
would subtract an exact zero, so this is exact in value for any data, and
every pivot decision is the one the dense update makes. The basic costs and
bounds are carried across pivots; the basic values and bounds, and each
basic column's place among the candidates, are Python lists between
refreshes, as a pass reads only a few entries of each.

Basic values are B^-1 (b - A x_N), where x_N holds the nonbasic columns at
upper at their bounds. With no column at upper the product A x_N is skipped
and b itself is used: A @ 0 is +0 in every entry, and b - (+0) is b bit for
bit, -0.0 included.

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
`PoolEntry`s, each the `Basis` an earlier LP ended on.
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
An entry that fails the primal test remembers a row that failed it, its
witness: the lowest basic value, or the one furthest above its bound. A
later lookup first computes that one basic value, a dot product, and passes
the entry over when it violates a bound by more than the tolerance plus a
rounding bound: a row of the 0/+-1 inverse sums the entries of b - A_N x_N
with signs, so any summation order lands within gamma_m ||b - A_N x_N||_1
of the exact value, and the full test would fail too. Otherwise the full
test runs as before. The same entry answers as without the screen.

A caller may also pass a perturbed right-hand side and bounds (b', u') of
the same LP. The call first answers (b, u) as above. Then the primal
simplex re-optimizes from that answer's basis and at-upper mask at
(b', u'), and when the certificate shows the basis it ends on optimal at
(b, u) too, the call returns that basis's duals and reduced costs: an
optimal dual at (b, u) that is also optimal at (b', u'). x, the at-upper
mask and the objective stay the (b, u) answer's. If the start is no
feasible basis at (b', u'), or the re-optimized one fails the certificate
at (b, u), the (b, u) answer's duals are kept and `kept_dual` is set. A
`Basis` keeps the one last re-optimized from it as its `pareto`, so a later
LP that a pool entry answers first tries the entry's `pareto` at both points
and re-optimizes only if it fails. `recourse` perturbs the decomposition's LPs
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

from dataclasses import dataclass, field

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
class Basis:
    """A basis of A and the state the simplex keeps with it: its columns, one
    per row, the nonbasic columns held at their upper bounds, its exact
    0/+-1 inverse B^-1, and the basis last re-optimized from it at a
    perturbation, if any. The pivot loop updates the first three in place."""

    columns: np.ndarray  # intp, length m
    at_upper: np.ndarray  # bool, length n; False while basic
    inverse: np.ndarray  # m x m
    pareto: Basis | None = None

    def copy(self) -> Basis:
        """A basis with copies of the three arrays and no re-optimized one."""
        return Basis(self.columns.copy(), self.at_upper.copy(), self.inverse.copy())


@dataclass(eq=False)
class PoolEntry(Basis):
    """An exact optimal basis in a pool. The columns held at upper, which
    every LP the entry is tried on reads, and their bytes, which key the LP's
    b - A x_N, are taken once. `witness` is the row whose basic value last
    showed the basis primal infeasible, or -1."""

    upper_cols: np.ndarray = field(init=False, repr=False)
    upper_key: bytes = field(init=False, repr=False)
    witness: int = field(default=-1, init=False, repr=False)

    def __post_init__(self):
        self.upper_cols = self.at_upper.nonzero()[0]
        self.upper_key = self.upper_cols.tobytes()


class Columns:
    """A 0/+-1 matrix, built once per A, and each column's nonzeros as
    positions in y_ext = [y, -y, 0], a vector of length 2m + 1.

    index[i, j] is r where column j's i-th nonzero, in row order, is a +1 in
    row r, m + r where it is a -1, and 2m past the column's last nonzero;
    index has p rows, the most nonzeros any column has. Adding the p rows
    of y_ext gathered at index, in order, gives y @ a_j with column j's
    nonzeros added in row order. Any other entry raises SimplexError: a
    totally unimodular matrix has none.
    """

    __slots__ = ("matrix", "index")

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        bad = (A != 0.0) & (A != 1.0) & (A != -1.0)
        if bad.any():
            r, j = np.argwhere(bad)[0]
            raise SimplexError(
                f"A[{r}, {j}] = {A[r, j]!r} is not 0 or +-1: A is not totally unimodular"
            )
        m, n = A.shape
        cols, rows = (A.T != 0.0).nonzero()  # column by column, rows ascending
        counts = np.bincount(cols, minlength=n)
        slot = np.arange(cols.size) - np.repeat(np.cumsum(counts) - counts, counts)
        self.index = np.full((max(1, int(counts.max(initial=0))), n), 2 * m)
        self.index[slot, cols] = rows + m * (A[rows, cols] < 0.0)
        self.matrix = A

    @classmethod
    def of(cls, A) -> "Columns":
        """A itself if it is a Columns, else A wrapped."""
        return A if isinstance(A, cls) else cls(A)


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
        x = solution.x
        x_pos = x.view(np.uint64).nonzero()[0]
        parts = (solution.row_duals, x[x_pos], x_pos, solution.at_upper.nonzero()[0])
        return cls(
            packed=b"".join(part.tobytes() for part in parts),
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

    # each array is hashed through its buffer, with no bytes copy: copying
    # them, whether one by one or joined for a single call, costs more
    digest = hashlib.blake2b(digest_size=ANSWER_KEY_BYTES)
    for array in (b, c, upper, *(perturbed or ())):
        digest.update(np.ascontiguousarray(array, dtype=float))
    return digest.digest()


def _abs_max(v) -> float:
    return float(np.maximum.reduce(np.abs(v), initial=0.0))


def _primal_tol(b) -> float:
    return POOL_PRIMAL_TOL * (1.0 + _abs_max(b))


def _violated_row(xB, upper, basis, tol) -> int:
    """A row whose basic value lies below 0 or above its column's upper bound
    by more than tol, the worst of either kind, or -1 if none does; NaN
    violates."""
    if not xB.size:
        return -1
    low = int(xB.argmin())
    if not xB[low] >= -tol:
        return low
    over = xB - upper[basis.columns]
    high = int(over.argmax())
    if not over[high] <= tol:
        return high
    return -1


def _reduced_costs(c_cand, y_ext, index) -> np.ndarray:
    """c_j - y @ a_j for the columns of index, a gather from `Columns.index`,
    each column's at most p nonzeros added in row order: c - ((t0 + t1) + t2)
    for p = 3. y_ext is [y, -y, 0]."""
    terms = y_ext[index]
    priced = terms[0]
    for i in range(1, len(terms)):
        priced += terms[i]
    return c_cand - priced


def _nonbasic_values(upper, cols) -> np.ndarray:
    """x_N: the columns cols at their upper bounds, every other column at 0.
    Basic columns are never at upper, so this is the polish's x_N."""
    x_N = np.zeros(upper.shape)
    x_N[cols] = upper[cols]
    return x_N


def _rhs(A, b, upper, cols) -> np.ndarray:
    """b - A x_N with the columns cols held at upper. With none held this is
    b itself: A @ 0 is +0 in every entry, and b - (+0) is b, -0.0 included."""
    if not cols.size:
        return b
    return b - A @ _nonbasic_values(upper, cols)


def _duals(A, c, basis):
    """(y, rc): the basis's duals y = c_B B^-1 and every column's reduced cost
    c - y @ A, the full product every answer path ends on."""
    y = c[basis.columns] @ basis.inverse
    return y, c - y @ A


def _primal_feasible(A, b, upper, basis, tol) -> bool:
    """Whether the basis, its at-upper columns at their bounds, has its basic
    values within their bounds at (b, upper), up to tol."""
    cols = basis.at_upper.nonzero()[0]
    if not np.isfinite(upper[cols]).all():
        return False  # x_N would hold inf, and the basic values NaN
    return _violated_row(basis.inverse @ _rhs(A, b, upper, cols), upper, basis, tol) < 0


def _dual_feasible(rc, basis, movable, rc_tol) -> bool:
    # a violation is rc times the direction the column may move in
    viol = np.where(basis.at_upper, rc, -rc)
    viol[basis.columns] = 0.0
    return np.maximum.reduce(viol[movable], initial=0.0) <= rc_tol


def _screen_bound(rhs_N, tol) -> float:
    """The violation beyond which one basic value, a row of a 0/+-1 inverse
    times rhs_N summed in any order, shows the primal test failing.

    Such a sum lies within gamma_m ||rhs_N||_1 of its exact value (gamma_m =
    m u / (1 - m u), u = 2^-53), and so does the test's gemv, so the two
    differ by at most 2 gamma_m ||rhs_N||_1; 2^-50 m (||rhs_N||_1 + tol) is
    more than that plus the rounding of the comparisons.
    """
    return tol + 2.0**-50 * rhs_N.size * (float(np.abs(rhs_N).sum()) + tol)


def _pooled_answer(pool, A, b, c, upper, finite_ub, movable, rc_tol, tol):
    """(entry, basic values, duals, reduced costs) of the first pooled basis
    optimal for this LP, or None.

    An entry that failed the primal test before is first tested on its
    witness row alone, with one dot product; a violation there beyond
    `_screen_bound` is one the full test makes too, so the entry is passed
    over as the full test would pass it over.
    """
    rhs = {}  # (b - A x_N, its screen bound), by the entries' columns held at upper
    for entry in pool:
        cols = entry.upper_cols
        if cols.size and not finite_ub[cols].all():
            continue  # x_N would hold inf, and the basic values NaN
        known = rhs.get(entry.upper_key)
        if known is None:
            rhs_N = _rhs(A, b, upper, cols)
            known = rhs[entry.upper_key] = (rhs_N, _screen_bound(rhs_N, tol))
        rhs_N, bound = known
        w = entry.witness
        if w >= 0:
            x_w = float(entry.inverse[w] @ rhs_N)
            if x_w < -bound or x_w - upper[entry.columns[w]] > bound:
                continue
        xB = entry.inverse @ rhs_N
        row = _violated_row(xB, upper, entry, tol)
        if row >= 0:
            entry.witness = row
            continue
        y, rc = _duals(A, c, entry)
        if _dual_feasible(rc, entry, movable, rc_tol):
            return entry, xB, y, rc
    return None


def _solution(c, upper, finite_ub, basis, xB, y, rc, iterations) -> LpSolution:
    """The LP's answer at the basis; its at-upper mask is a copy."""
    x = np.where(basis.at_upper & finite_ub, upper, 0.0)
    x[basis.columns] = xB
    np.clip(x, 0.0, None, out=x)
    return LpSolution(
        x=x,
        row_duals=y,
        reduced_costs=rc,
        at_upper=basis.at_upper.copy(),
        objective=float(c @ x),
        iterations=iterations,
    )


def solve_bounded_lp(
    A: np.ndarray | Columns,
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

    A must be totally unimodular, and is passed as its `Columns` or as an
    array, which is wrapped; an entry other than 0 and +-1, or a pivot that
    shows A is not TU, raises SimplexError. basis is the start basis, or a
    function returning (start basis, its inverse), called only when no
    pooled basis answers. An array basis needs basis_inverse, which must
    equal inv(A[:, basis]) and is updated in place; a wrong one raises
    SimplexError naming the primal residual. pool, when given, holds
    `PoolEntry`s of earlier optimal bases of LPs with this same A; one of
    them may answer the LP with no pivot (iterations 0), and an LP solved by
    pivoting adds its final basis. perturbed, when given, is (b', upper') of
    the same LP: the duals returned are then those of a basis optimal at
    both points, when one is found (see the module docstring). answers, when
    given, is an answer table of LPs with this same A: an LP it holds is
    answered from it (iterations 0), and any other LP's answer is added to
    it. iterations counts pricing passes, not pivots.
    """
    A = Columns.of(A)
    if answers is not None:
        key = answer_key(b, c, upper, perturbed)
        known = answers.get(key)
        if known is not None:
            return known.solution(A.matrix, c)
    solution = _solve(A, b, c, upper, basis, max_iterations, basis_inverse, pool, perturbed)
    if answers is not None:
        answers[key] = TableAnswer.of(solution)
    return solution


def _solve(cols, b, c, upper, basis, max_iterations, basis_inverse, pool, perturbed) -> LpSolution:
    """`solve_bounded_lp` without an answer table; cols is A's `Columns`."""
    A = cols.matrix
    m, n = A.shape
    finite_ub = np.isfinite(upper)
    if max_iterations is None:
        max_iterations = 500 + 40 * (m + n)
    rc_tol = 1e-9 * max(1.0, _abs_max(c))
    b_max = _abs_max(b)
    tol = POOL_PRIMAL_TOL * (1.0 + b_max)
    answer = None
    if pool:
        answer = _pooled_answer(pool, A, b, c, upper, finite_ub, upper > PIVOT_TOL, rc_tol, tol)
    if answer is not None:
        basis, xB, y, rc = answer
        solution = _solution(c, upper, finite_ub, basis, xB, y, rc, 0)
    else:
        if callable(basis):
            basis, basis_inverse = basis()
        columns = np.asarray(basis, dtype=np.intp).copy()
        if columns.shape != (m,):
            raise SimplexError("basis must list exactly one column per row")
        if basis_inverse is None:
            raise SimplexError("a start basis needs its inverse, basis_inverse")
        # every column starts at 0
        basis = Basis(columns, np.zeros(n, dtype=bool), basis_inverse)
        xB, y, rc, iterations = _pivot(cols, b, c, upper, basis, max_iterations, rc_tol)
        solution = _solution(c, upper, finite_ub, basis, xB, y, rc, iterations)
        # nothing has checked a caller's start inverse: a wrong one shows here
        x = solution.x
        residual = float(np.abs(A @ x - b).max(initial=0.0))
        scale = 1.0 + max(b_max, float(x.max(initial=0.0)))
        if residual > RESIDUAL_TOL * scale:
            raise SimplexError(
                f"primal residual |Ax - b| = {residual:.3g}: the start basis inverse is wrong"
            )
        if pool is not None:
            basis = PoolEntry(basis.columns, basis.at_upper, basis.inverse.copy())
            pool.append(basis)
    if perturbed is None:
        return solution
    duals, passes = _reoptimized(cols, b, c, upper, perturbed, basis, max_iterations, rc_tol, tol)
    solution.iterations += passes
    if duals is None:
        solution.kept_dual = True
    else:
        solution.row_duals, solution.reduced_costs = duals
    return solution


def _reoptimized(cols, b, c, upper, perturbed, start, max_iterations, rc_tol, tol):
    """((duals, reduced costs) of a basis optimal both at `perturbed` and at
    (b, upper), or None; the pricing passes spent).

    start is the `Basis` that answered (b, upper). Its `pareto` basis is
    tried first; otherwise the simplex re-optimizes from a copy of start at
    `perturbed`, and a result optimal at both points becomes start's
    `pareto`. tol is the primal tolerance at b.
    """
    A = cols.matrix
    b2, upper2 = perturbed
    movable = (upper > PIVOT_TOL) | (upper2 > PIVOT_TOL)
    tol2 = _primal_tol(b2)

    def optimal_at_both(basis, rc, xB2=None) -> bool:
        """xB2, when given, is the basis's basic values at `perturbed`."""
        if not _dual_feasible(rc, basis, movable, rc_tol):
            return False
        if xB2 is None:
            feasible2 = _primal_feasible(A, b2, upper2, basis, tol2)
        else:
            feasible2 = _violated_row(xB2, upper2, basis, tol2) < 0
        return feasible2 and _primal_feasible(A, b, upper, basis, tol)

    pareto = start.pareto
    if pareto is not None:
        y, rc = _duals(A, c, pareto)
        if optimal_at_both(pareto, rc):
            return (y, rc), 0
    if not _primal_feasible(A, b2, upper2, start, tol2):
        return None, 0  # the start is no feasible basis of the perturbed LP
    pareto = start.copy()
    xB2, y, rc, passes = _pivot(cols, b2, c, upper2, pareto, max_iterations, rc_tol)
    # the polish's xB2 is what the test at b' computes: every column the
    # pivots hold at upper has a finite bound there
    if not optimal_at_both(pareto, rc, xB2):
        return None, passes
    start.pareto = pareto
    return (y, rc), passes


def _pivot(cols, b, c, upper, basis, max_iterations, rc_tol):
    """Pivot from a feasible basis to an optimal one.

    cols is the matrix's `Columns`. basis, a `Basis`, is updated in place:
    its columns, at-upper mask and inverse become the optimal basis's. An
    entering column B^-1 a_e with a nonzero entry other than +-1 raises
    SimplexError: A is not totally unimodular. Returns (basic values, duals,
    reduced costs, iterations). iterations counts the pricing passes, the
    last of which finds no entering column; a bound flip's pass counts too.
    """
    A = cols.matrix
    m, n = A.shape
    finite_ub = np.isfinite(upper)
    # only a column whose span exceeds PIVOT_TOL can ever enter; cand is
    # sorted, so both pivot rules pick the column full pricing would
    cand = (upper > PIVOT_TOL).nonzero()[0]
    index = cols.index[:, cand]
    c_cand = c[cand]
    position = np.full(n, -1)
    position[cand] = np.arange(cand.size)
    # bound once: the passes read and write these locals, not the record
    basic, at_upper, Binv = basis.columns, basis.at_upper, basis.inverse
    basis_pos = position[basic]  # -1 for a basic column that can never enter
    # a candidate's violation is its reduced cost times its direction: -1 at
    # lower (wants rc < 0), +1 at upper (wants rc > 0), 0 in the basis
    direction = np.where(at_upper[cand], 1.0, -1.0)
    direction[basis_pos[basis_pos >= 0]] = 0.0
    c_basis = c[basic]
    # the per-row state the ratio test reads is kept in Python lists, which
    # a pass reads a few entries of at a time
    basis_pos, ub_basis = basis_pos.tolist(), upper[basic].tolist()
    y_ext = np.zeros(2 * m + 1)  # [y, -y, 0], which `index` points into
    y, neg_y = y_ext[:m], y_ext[m : 2 * m]

    def basic_values():
        return Binv @ _rhs(A, b, upper, (at_upper & finite_ub).nonzero()[0])

    xB = basic_values().tolist()
    bland = False
    degenerate_streak = 0
    pivots_since_refresh = 0

    flipped = False  # a bound flip changes neither the basis nor B^-1, so rc holds
    for iteration in range(1, max_iterations + 1):
        if not cand.size:
            break
        if not flipped:
            np.matmul(c_basis, Binv, out=y)  # c_basis @ Binv, written into y_ext
            np.negative(y, out=neg_y)
            rc = _reduced_costs(c_cand, y_ext, index)
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
        at_upper_e = bool(at_upper[e])
        d = Binv @ A[:, e]
        # only the handful of rows where d is nonzero move or can block the
        # step, so the ratio test runs over them on Python floats
        rows = d.nonzero()[0]
        row_list = rows.tolist()
        d_list = d[rows].tolist()
        if not set(map(abs, d_list)) <= {1.0}:
            raise SimplexError(
                "an entering column B^-1 a has an entry other than 0 and +-1:"
                " A is not totally unimodular"
            )
        # xB moves by -t * delta as the entering var moves by sigma*t, sigma
        # -1 from upper and +1 from lower
        delta = [-dl for dl in d_list] if at_upper_e else d_list
        x_rows = [xB[r] for r in row_list]

        # step length to the first bound: basic vars to lower, basic vars to
        # upper, or the entering variable's own span (a bound flip); each
        # delta is +-1, and u - x is inf at an infinite upper bound
        steps = [
            x if dl > 0.0 else ub_basis[r] - x for r, dl, x in zip(row_list, delta, x_rows)
        ]
        t_flip = float(upper[e])  # inf at an infinite upper bound
        t_best = min(min(steps, default=np.inf), t_flip)
        if not t_best < np.inf:
            raise SimplexError("unbounded direction in a cost-nonnegative problem")
        t_best = max(t_best, 0.0)
        tie_tol = PIVOT_TOL * max(1.0, t_best)

        if t_flip <= t_best + tie_tol:
            leave = -1          # bound flip, basis unchanged (always a strict step here)
            t_best = t_flip     # the entering variable crosses its full span
        else:
            tied = [j for j, step in enumerate(steps) if step <= t_best + tie_tol]
            if bland:
                i = min(tied, key=lambda j: basic[row_list[j]])
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
            at_upper[e] = not at_upper_e
            direction[k] = -1.0 if at_upper_e else 1.0
            continue

        # pivot: entering takes row `leave`
        x_enter = (t_flip - t_best) if at_upper_e else t_best
        out_col = int(basic[leave])
        at_upper[out_col] = leave_to_upper
        at_upper[e] = False
        basic[leave] = e
        c_basis[leave] = c[e]
        ub_basis[leave] = t_flip
        xB[leave] = x_enter
        if basis_pos[leave] >= 0:
            direction[basis_pos[leave]] = 1.0 if leave_to_upper else -1.0
        basis_pos[leave] = k
        direction[k] = 0.0

        # rank-1 update of the rows where d is nonzero; every other row would
        # subtract an exact zero. Each d_r is +-1, so dividing the pivot row
        # by d_leave keeps or negates it, and subtracting d_r times it from
        # row r subtracts or adds it: in place, with the same bits
        pivot_row = Binv[leave]
        if d_list[i] < 0.0:
            np.negative(pivot_row, out=pivot_row)
        for r, dr in zip(row_list, d_list):
            if r != leave:
                if dr > 0.0:
                    Binv[r] -= pivot_row
                else:
                    Binv[r] += pivot_row

        pivots_since_refresh += 1
        if pivots_since_refresh >= REFRESH_EVERY:
            xB = basic_values().tolist()
            pivots_since_refresh = 0
    else:
        raise SimplexError(f"iteration cap {max_iterations} exceeded")

    xB = basic_values()  # final polish: basic values, duals and reduced costs from B^-1
    y, rc = _duals(A, c, basis)
    return xB, y, rc, iteration
