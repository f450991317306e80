import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

from strainchain import (
    Design,
    RecourseSolver,
    RiskOverrides,
    generate_synthetic_instance,
    run_lshaped,
    sample_batch,
    simplex,
)
from strainchain.simplex import (
    LpSolution,
    SimplexError,
    Columns,
    TableAnswer,
    solve_bounded_lp,
)

import helpers
from helpers import (
    assert_same_lp_solution,
    count_calls,
    record_recourse_lps,
    reference_solve_bounded_lp,
    small_random_instance,
    solve_one,
)


def random_lp(rng):
    """Random feasible bounded LP on a totally unimodular matrix, in the
    solver's equality form, plus a start basis and its inverse.

    The rows are nodes of a random digraph and the first columns its arcs,
    each a column of the node-arc incidence matrix; one more node has no
    row, so an arc to or from it has a single nonzero. The first rows are
    equalities with big-cost +-1 artificials, signed so that the
    all-artificial/slack basis is feasible, and the others are <= rows with
    slacks; unit columns keep the matrix TU. A point within the bounds meets
    every row, so the optimum drives the artificials to zero. A negative
    cost sits only on a bounded arc, so no ray lowers the objective.
    """
    m_eq = int(rng.integers(1, 5))
    m_le = int(rng.integers(1, 5))
    m = m_eq + m_le
    n0 = int(rng.integers(3, 12))
    tails = rng.integers(0, m + 1, n0)
    heads = (tails + rng.integers(1, m + 1, n0)) % (m + 1)  # no loops
    incidence = np.zeros((m + 1, n0))
    incidence[tails, np.arange(n0)] = 1.0
    incidence[heads, np.arange(n0)] = -1.0
    A_eq, A_le = incidence[:m_eq], incidence[m_eq:m]
    u = np.where(rng.random(n0) < 0.4, np.inf, rng.uniform(0.0, 5.0, n0))
    cost = np.where(np.isfinite(u), rng.normal(size=n0), np.abs(rng.normal(size=n0)))
    c = cost * rng.choice([0.0, 1.0, 1.0], size=n0)
    x0 = np.where(np.isfinite(u), rng.uniform(0, 1) * np.minimum(u, 3.0), rng.uniform(0, 3.0, n0))
    b_eq = A_eq @ x0
    b_le = np.maximum(A_le @ x0, 0.0) + rng.uniform(0.0, 2.0, m_le)

    big = 1e5
    sign = np.where(b_eq >= 0, 1.0, -1.0)
    A = np.zeros((m, n0 + m_le + m_eq))
    A[:m_eq, :n0] = A_eq
    A[m_eq:, :n0] = A_le
    A[m_eq:, n0 : n0 + m_le] = np.eye(m_le)
    A[:m_eq, n0 + m_le :] = np.diag(sign)
    b = np.concatenate([b_eq, b_le])
    cc = np.concatenate([c, np.zeros(m_le), big * np.ones(m_eq)])
    uu = np.concatenate([u, np.full(m_le, np.inf), np.full(m_eq, np.inf)])
    basis = np.concatenate(
        [np.arange(n0 + m_le, n0 + m_le + m_eq), np.arange(n0, n0 + m_le)]
    )
    start = np.diag(np.concatenate([sign, np.ones(m_le)]))  # A[:, basis] is its own inverse
    return (A, b, cc, uu, basis), start, (c, A_le, b_le, A_eq, b_eq, u)


def test_matches_reference_solver_on_random_problems():
    rng = np.random.default_rng(42)
    for _ in range(150):
        (A, b, cc, uu, basis), start, (c, A_le, b_le, A_eq, b_eq, u) = random_lp(rng)
        sol = solve_bounded_lp(A, b, cc, uu, basis, basis_inverse=start)
        ref = linprog(
            c,
            A_ub=A_le,
            b_ub=b_le,
            A_eq=A_eq,
            b_eq=b_eq,
            bounds=[(0, None if not np.isfinite(ub) else ub) for ub in u],
            method="highs",
        )
        assert ref.status == 0
        assert sol.objective == pytest.approx(ref.fun, rel=1e-6, abs=1e-7)


def test_duality_identity_holds_exactly():
    rng = np.random.default_rng(7)
    for _ in range(80):
        (A, b, cc, uu, basis), start, _ = random_lp(rng)
        sol = solve_bounded_lp(A, b, cc, uu, basis, basis_inverse=start)
        mu = float(np.sum(sol.reduced_costs[sol.at_upper] * uu[sol.at_upper]))
        dual = float(sol.row_duals @ b) + mu
        assert dual == pytest.approx(sol.objective, rel=1e-7, abs=1e-7)


def test_primal_point_is_feasible():
    rng = np.random.default_rng(9)
    for _ in range(40):
        (A, b, cc, uu, basis), start, _ = random_lp(rng)
        sol = solve_bounded_lp(A, b, cc, uu, basis, basis_inverse=start)
        resid = np.abs(A @ sol.x - b).max()
        assert resid <= 1e-7 * (1.0 + np.abs(b).max())
        assert (sol.x >= -1e-9).all()
        finite = np.isfinite(uu)
        assert (sol.x[finite] <= uu[finite] + 1e-7 * (1 + uu[finite])).all()


def test_iteration_cap_raises():
    A = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    c = np.array([-0.0, 1.0])
    u = np.array([np.inf, np.inf])
    with pytest.raises(SimplexError, match="iteration cap"):
        solve_bounded_lp(A, b, c, u, np.array([1]), max_iterations=0, basis_inverse=np.eye(1))


def test_bad_basis_shape_raises():
    A = np.eye(2)
    with pytest.raises(SimplexError):
        solve_bounded_lp(A, np.ones(2), np.ones(2), np.full(2, np.inf), np.array([0]))
    # an array basis must come with its inverse
    with pytest.raises(SimplexError, match="inverse"):
        solve_bounded_lp(A, np.ones(2), np.ones(2), np.full(2, np.inf), np.array([0, 1]))


def _assert_same_solution(args, kwargs=None):
    """Restricted pricing and sparse pivots against the dense, refactorizing
    full-pricing reference, byte for byte.

    Both get their own copy of a passed basis inverse (it is updated in place).
    """
    kwargs = dict(kwargs or {})
    inverse = kwargs.pop("basis_inverse", None)

    def run(solve):
        extra = {} if inverse is None else {"basis_inverse": inverse.copy()}
        return solve(*args, **kwargs, **extra)

    got = run(solve_bounded_lp)
    assert_same_lp_solution(got, run(reference_solve_bounded_lp))
    return got


def _sampled_recourse_lps(monkeypatch, solvers=None):
    """72 scenario LPs of random small instances and designs, as the solver
    posed them; `solvers`, when given, gets the solver of each LP in turn."""
    with monkeypatch.context() as patch:
        lps = record_recourse_lps(patch)
        rng = np.random.default_rng(31)
        for trial in range(12):
            inst = small_random_instance(seed=900 + trial, n_countries=int(rng.integers(3, 8)))
            plants = list(inst.plant_candidates)
            solver = RecourseSolver(inst)
            scens = sample_batch(
                inst, (31, trial), 6, RiskOverrides(export_prob_scale=0.6, ban_threshold=0.9)
            )
            for scen in scens:
                opened, closed = rng.choice(plants, size=2, replace=False)
                open_map = {j: int(rng.integers(0, 2)) for j in plants}
                open_map.update({opened: 1, closed: 0})
                solve_one(solver, Design(open=open_map), scen)
                if solvers is not None:
                    solvers.append(solver)
    assert len(lps) == 72
    return lps


def test_restricted_pricing_matches_full_pricing_on_recourse_lps(monkeypatch):
    for args, start, _, _ in _sampled_recourse_lps(monkeypatch):
        assert (args[3] <= 1e-10).any()  # columns that can never enter
        _assert_same_solution(args, {"basis_inverse": start})


def test_recourse_lps_refreshed_every_two_pivots_match_without_inv(monkeypatch):
    # no workload LP reaches REFRESH_EVERY pivots; at 2 every one with three
    # or more pivots recomputes its basic values from the updated inverse
    lps = _sampled_recourse_lps(monkeypatch)
    monkeypatch.setattr(simplex, "REFRESH_EVERY", 2)
    monkeypatch.setattr(helpers, "REFRESH_EVERY", 2)
    assert max(sol.iterations for _, _, sol, _ in lps) > 10
    inv_calls = count_calls(monkeypatch, np.linalg, "inv")
    for args, start, _, _ in lps:
        got = solve_bounded_lp(*args, basis_inverse=start.copy())
        assert not inv_calls
        assert_same_lp_solution(got, reference_solve_bounded_lp(*args, basis_inverse=start.copy()))
        inv_calls.clear()


# suppliers, plant candidates and countries of the benchmark's three workloads
WORKLOAD_SIZES = ((3, 5, 10), (8, 16, 60), (3, 21, 21))


def _workload_lps(monkeypatch):
    """Scenario LPs of the benchmark workloads' instances as the
    decomposition poses them: each design's batch with one basis pool and
    the LPs perturbed toward the core point."""
    with monkeypatch.context() as patch:
        lps = record_recourse_lps(patch)
        for sizes in WORKLOAD_SIZES:
            inst = generate_synthetic_instance(*sizes, seed=1)
            solver = RecourseSolver(inst)
            scens = sample_batch(inst, (41, sizes[1]), 5, RiskOverrides(export_prob_scale=0.8))
            rng = np.random.default_rng(sizes[1])
            for _ in range(3):
                opened = rng.random(len(solver.pl)) < 0.4
                opened[rng.integers(len(opened))] = True
                design = Design(open=dict(zip(solver.pl, opened.astype(int).tolist())))
                for _ in solver.batches(design, scens, [], pareto=True):
                    pass
    assert len(lps) == 45 and all(perturbed is not None for *_, perturbed in lps)
    return lps


def test_workload_lps_pivot_as_the_reference_simplex(monkeypatch):
    """The pivot loop against the full-pricing reference, bit for bit: each
    LP cold from its start basis, then the Pareto step's re-optimization
    from that optimal basis at the perturbed point, where it is feasible."""
    reoptimized = 0
    for (A, b, c, upper, basis), start, _, (b2, upper2) in _workload_lps(monkeypatch):
        pool = []
        cold = solve_bounded_lp(A, b, c, upper, basis, basis_inverse=start.copy(), pool=pool)
        ref = reference_solve_bounded_lp(A, b, c, upper, basis, basis_inverse=start.copy())
        assert_same_lp_solution(cold, ref)
        entry = pool[0]
        at_upper = entry.at_upper
        if not np.isfinite(upper2[at_upper]).all():
            continue
        xB = entry.inverse @ (b2 - A @ np.where(at_upper, upper2, 0.0))
        tol = 1e-9 * (1.0 + np.abs(b2).max())
        if not ((xB >= -tol) & (xB <= upper2[entry.columns] + tol)).all():
            continue  # no feasible start at the perturbed point: no re-optimization
        m, n = A.shape
        rc_tol = 1e-9 * max(1.0, float(np.abs(c).max()))
        basis2 = entry.copy()
        xB2, y2, rc2, passes = simplex._pivot(
            Columns(A), b2, c, upper2, basis2, 500 + 40 * (m + n), rc_tol
        )
        got = simplex._solution(c, upper2, np.isfinite(upper2), basis2, xB2, y2, rc2, passes)
        ref = reference_solve_bounded_lp(
            A, b2, c, upper2, entry.columns, at_upper=at_upper, basis_inverse=entry.inverse.copy()
        )
        assert_same_lp_solution(got, ref)
        reoptimized += passes > 1
    assert reoptimized >= 20


@pytest.mark.parametrize(
    "entering, b",
    [
        # column 0 enters first (Dantzig's first maximum) at the slack basis,
        # so the entering column B^-1 a_0 is column 0 itself
        ([2.0, 1.0], [4.0, 3.0]),          # the ratio test's pivot element would be 2
        ([1.0, 0.5], [4.0, 3.0]),          # a fractional column
        ([1.0, 2.0**53], [1.0, 2.0**60]),  # B^-1 would reach 2^53
        ([1.0, 2.0**27], [1.0, 2.0**40]),  # B^-1 would hold 2^27
    ],
    ids=["pivot_element_two", "fractional_column", "beyond_2_53", "inverse_grows"],
)
def test_lps_outside_the_tu_class_raise(entering, b):
    A = np.array([[entering[0], 1.0, 1.0, 0.0], [entering[1], 1.0, 0.0, 1.0]])
    args = (A, np.array(b), np.array([-1.0, -1.0, 0.0, 0.0]), np.full(4, np.inf), [2, 3])
    pool = []
    with pytest.raises(SimplexError, match="not totally unimodular"):
        solve_bounded_lp(*args, basis_inverse=np.eye(2), pool=pool)
    assert not pool  # a solve that raises pools nothing


def test_wrong_start_inverse_raises_naming_the_primal_residual(monkeypatch):
    (A, b, c, upper, basis), start, _, _ = _sampled_recourse_lps(monkeypatch)[0]
    row = int(np.flatnonzero(b)[-1])  # a row whose basic value the flip changes
    start[row, row] = -start[row, row]
    with pytest.raises(SimplexError, match="primal residual"):
        solve_bounded_lp(A, b, c, upper, basis, basis_inverse=start)


def _variant(kind, args, solver, entry, rng):
    """The LP `args` with one part changed so that only one half of the
    pooled entry's certificate can fail: its b, its S2 costs, or the bound of
    a column the entry holds at upper."""
    A, b, c, upper, basis = args
    b, c, upper = b.copy(), c.copy(), upper.copy()
    if kind == "capacities":
        # the start basis keeps its slacks feasible at any nonnegative capacity
        b[: solver.rDem] *= rng.uniform(0.0, 1.0, solver.rDem)
    elif kind == "s2_costs":
        c[solver.oS2 : solver.oS2 + solver.nK] *= rng.uniform(0.0, 2.0, solver.nK)
    else:
        upper[np.flatnonzero(entry.at_upper)[0]] = np.inf
    return A, b, c, upper, basis


def _certificate_holds(kind, variant, entry):
    """The reference's answer: is the pooled basis optimal for the variant?"""
    A, b, c, upper, _ = variant
    basis, at_upper, Binv = entry.columns, entry.at_upper, entry.inverse
    if kind == "capacities":  # the costs and bounds are the entry's own: only b can break it
        xB = Binv @ (b - A @ np.where(at_upper, upper, 0.0))
        scale = 1.0 + np.abs(b).max()
        return bool(((xB >= -1e-9 * scale) & (xB <= upper[basis] + 1e-9 * scale)).all())
    if kind == "s2_costs":  # b is the entry's own: optimal iff the reference stops at once
        ref = reference_solve_bounded_lp(
            A, b, c, upper, basis, at_upper=at_upper, basis_inverse=Binv.copy()
        )
        return ref.iterations == 1
    return False  # a column held at an upper bound the LP no longer has


# an entry holding a column at an infinite bound is skipped before any
# arithmetic, which would make its basic values NaN with a RuntimeWarning
# (an error under the suite's warning filter)
@pytest.mark.parametrize("kind", ["capacities", "s2_costs", "unbounded_at_upper"])
def test_a_pooled_basis_answers_only_where_its_certificate_holds(monkeypatch, kind):
    solvers = []
    lps = _sampled_recourse_lps(monkeypatch, solvers)
    rng = np.random.default_rng(17)
    outcomes = []
    for (args, start, _, _), solver in zip(lps, solvers):
        pool = []
        first = solve_bounded_lp(*args, basis_inverse=start.copy(), pool=pool)
        assert len(pool) == 1 and first.iterations > 0
        if kind == "unbounded_at_upper" and not pool[0].at_upper.any():
            continue
        variant = _variant(kind, args, solver, pool[0], rng)
        expected = _certificate_holds(kind, variant, pool[0])
        got = solve_bounded_lp(*variant, basis_inverse=start.copy(), pool=pool)
        cold = solve_bounded_lp(*variant, basis_inverse=start.copy())
        if expected:
            assert got.iterations == 0 and len(pool) == 1  # a pooled answer adds nothing
            assert got.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
        else:
            assert_same_lp_solution(got, cold)
            assert len(pool) == 2  # a cold solve adds its final basis
        outcomes.append(expected)
    # both outcomes occur, except that an unbounded at-upper column always skips
    assert outcomes.count(False) >= 4
    assert kind == "unbounded_at_upper" or outcomes.count(True) >= 5


def test_a_pooled_basis_answers_its_own_lp_to_the_bit(monkeypatch):
    for args, start, _, _ in _sampled_recourse_lps(monkeypatch):
        pool = []
        cold = solve_bounded_lp(*args, basis_inverse=start.copy(), pool=pool)
        again = solve_bounded_lp(*args, basis_inverse=start.copy(), pool=pool)
        assert again.iterations == 0 and len(pool) == 1
        assert_same_lp_solution(dataclasses.replace(again, iterations=cold.iterations), cold)


def test_lp_with_every_column_fixed_stops_at_once():
    rng = np.random.default_rng(5)
    m, n = 3, 7
    # one +-1 per column keeps A totally unimodular
    A = np.hstack([np.eye(m), np.eye(m)[:, rng.integers(0, m, n - m)] * rng.choice([-1, 1], n - m)])
    args = (A, np.zeros(m), rng.normal(size=n), np.zeros(n), np.arange(m))
    sol = _assert_same_solution(args, {"basis_inverse": np.eye(m)})
    assert sol.iterations == 1
    assert np.array_equal(sol.x, np.zeros(n))


def test_a_long_degenerate_streak_switches_to_blands_rule(monkeypatch):
    # one row x_1 + ... + x_60 + s = b over 60 bounded columns of negative
    # cost: Dantzig's rule flips the cheapest columns to their bounds one
    # pass at a time. With every step counted as degenerate, the streak
    # passes 40 + 2m and Bland's rule, which enters the lowest index
    # instead, takes more passes to the same optimum
    rng = np.random.default_rng(21)
    n, m = 60, 1
    A = np.ones((m, n + 1))
    c = np.concatenate([-rng.uniform(1.0, 2.0, n), [0.0]])
    upper = np.concatenate([rng.uniform(0.5, 1.5, n), [np.inf]])
    args = (A, np.array([0.8 * upper[:n].sum()]), c, upper, [n])
    dantzig = _assert_same_solution(args, {"basis_inverse": np.eye(m)})
    monkeypatch.setattr(simplex, "DEGENERATE_STEP", np.inf)
    monkeypatch.setattr(helpers, "DEGENERATE_STEP", np.inf)
    sol = _assert_same_solution(args, {"basis_inverse": np.eye(m)})
    assert sol.iterations > 40 + 2 * m
    assert sol.iterations > dantzig.iterations
    assert sol.objective == pytest.approx(dantzig.objective, rel=1e-12)
    # the greedy fill of the cheapest columns is optimal
    order = np.argsort(c[:n])
    before = np.concatenate([[0.0], np.cumsum(upper[order])[:-1]])
    fill = np.clip(args[1][0] - before, 0.0, upper[order])
    assert sol.objective == pytest.approx(float(c[order] @ fill), rel=1e-12)


def test_tied_columns_enter_in_column_order():
    # every column twice, the first copy of some fixed at zero: the first
    # maximum must be the copy full pricing picks, or x lands on the other
    rng = np.random.default_rng(8)
    for _ in range(40):
        (A, b, cc, uu, basis), start, _ = random_lp(rng)
        fixed = np.where(rng.random(len(uu)) < 0.3, 0.0, uu)
        fixed[basis] = uu[basis]
        _assert_same_solution(
            (np.hstack([A, A]), b, np.concatenate([cc, cc]), np.concatenate([fixed, uu]), basis),
            {"basis_inverse": start},
        )


def _sparse_matrix(rng, m, n, p):
    """A random m x n 0/+-1 matrix whose columns hold 1 to p nonzeros."""
    A = np.zeros((m, n))
    for j in range(n):
        rows = rng.choice(m, size=int(rng.integers(1, min(p, m) + 1)), replace=False)
        A[rows, j] = rng.choice([-1.0, 1.0], size=rows.size)
    return A


def _row_order_reduced_costs(A, c, y, cand):
    """c_j - y @ a_j with a_j's nonzeros added one at a time in row order,
    then the padding zeros up to the most nonzeros any column has."""
    p = max(1, int((A != 0).sum(axis=0).max(initial=0)))
    out = []
    for j in cand.tolist():
        terms = [float(y[r] * A[r, j]) for r in np.flatnonzero(A[:, j])]
        terms += [0.0] * (p - len(terms))
        acc = terms[0]
        for term in terms[1:]:
            acc += term
        out.append(float(c[j]) - acc)
    return np.array(out)


def _recourse_matrices():
    for seed in range(6):
        inst = small_random_instance(seed=70 + seed, n_countries=3 + seed % 4)
        yield RecourseSolver(inst).A


def _kernel_matrices(rng):
    for A in _recourse_matrices():
        yield A
    for _ in range(60):
        m, n = int(rng.integers(1, 40)), int(rng.integers(1, 300))
        yield _sparse_matrix(rng, m, n, int(rng.integers(1, 5)))
    for _ in range(20):  # network shaped: a node-arc incidence with one node's row dropped
        (A, *_), _, _ = random_lp(rng)
        yield A


def test_sparse_pricing_adds_in_row_order_and_matches_the_full_product():
    rng = np.random.default_rng(3)
    checked = 0
    for A in _kernel_matrices(rng):
        m, n = A.shape
        columns = Columns(A)
        assert columns.index.shape[0] == max(1, int((A != 0).sum(axis=0).max()))
        for _ in range(5):
            y = rng.normal(size=m) * rng.choice([1e-3, 1.0, 1e3], size=m)
            c = rng.normal(size=n)
            cand = np.flatnonzero(rng.random(n) < rng.random())
            y_ext = np.concatenate([y, -y, [0.0]])
            got = simplex._reduced_costs(c[cand], y_ext, columns.index[:, cand])
            assert got.tobytes() == _row_order_reduced_costs(A, c, y, cand).tobytes()
            # another summation order than the BLAS product's, within 2 ulps of
            # the terms' scale
            scale = np.abs(c) + np.abs(y) @ np.abs(A)
            assert (np.abs(got - (c - y @ A)[cand]) <= 2 * np.spacing(scale[cand])).all()
            checked += cand.size
    assert checked > 10_000


@pytest.mark.parametrize("entry", [2.0, 0.5, -3.0, np.nan])
def test_a_matrix_with_an_entry_other_than_0_and_1_is_not_totally_unimodular(entry):
    A = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 1.0]])
    A[1, 2] = entry
    with pytest.raises(SimplexError, match=r"A\[1, 2\] = .* not totally unimodular"):
        Columns(A)


def _slack_pool_lp(b):
    """Two rows with their slacks basic, and a pool entry holding that basis
    whose witness is row 0: the entry's basic values are b itself."""
    A = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    b = np.array(b, dtype=float)
    upper = np.array([5.0, 5.0, 4.0, 4.0])
    entry = simplex.PoolEntry(np.array([2, 3]), np.zeros(4, dtype=bool), np.eye(2))
    entry.witness = 0
    tol = simplex._primal_tol(b)
    args = (A, b, np.zeros(4), upper, np.isfinite(upper), upper > 1e-10, 1e-9, tol)
    return entry, args, tol


def test_the_witness_row_rejects_a_pooled_basis_without_the_full_test(monkeypatch):
    entry, args, _ = _slack_pool_lp([-1.0, 1.0])
    full_tests = count_calls(monkeypatch, simplex, "_violated_row")
    assert simplex._pooled_answer([entry], *args) is None
    assert not full_tests and entry.witness == 0
    entry, args, _ = _slack_pool_lp([4.5, 1.0])  # above the upper bound
    assert simplex._pooled_answer([entry], *args) is None
    assert not full_tests


def test_a_witness_row_that_passes_leaves_the_full_test_to_reject(monkeypatch):
    entry, args, _ = _slack_pool_lp([1.0, -1.0])
    full_tests = count_calls(monkeypatch, simplex, "_violated_row")
    assert simplex._pooled_answer([entry], *args) is None
    assert len(full_tests) == 1
    assert entry.witness == 1  # the row that rejected it now screens it


@pytest.mark.parametrize("beyond_tol", [True, False])
def test_a_violation_inside_the_rounding_margin_falls_through_to_the_exact_test(
    monkeypatch, beyond_tol
):
    tol = simplex._primal_tol(np.array([0.0, 1.0]))
    margin = simplex._screen_bound(np.array([tol, 1.0]), tol) - tol
    assert 0.0 < margin < tol
    # just beyond tol, which the exact test rejects, or just inside it
    x0 = tol + margin / 2 if beyond_tol else tol / 2
    entry, args, _ = _slack_pool_lp([-x0, 1.0])
    full_tests = count_calls(monkeypatch, simplex, "_violated_row")
    answer = simplex._pooled_answer([entry], *args)
    assert len(full_tests) == 1
    assert (answer is None) == beyond_tol


def test_a_right_hand_side_of_minus_zero_keeps_its_bits_with_nothing_at_upper():
    A = np.array([[1.0, -1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    b = np.array([-0.0, 0.0])
    none = np.array([], dtype=np.intp)
    assert simplex._rhs(A, b, np.full(4, 3.0), none) is b
    assert (b - A @ np.zeros(4)).tobytes() == b.tobytes()
    for c in ([1.0, 2.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]):
        _assert_same_solution(
            (A, b, np.array(c), np.full(4, 3.0), [2, 3]), {"basis_inverse": np.eye(2)}
        )


def test_a_perturbation_changes_only_duals_it_certifies_at_both_points():
    # min -x1 - 2 x2  s.t.  x1 + x2 + s = 1, with x2 fixed at 0: x1 is basic
    # at 1 and the row dual is -1
    A = np.array([[1.0, 1.0, 1.0]])
    b, c = np.array([1.0]), np.array([-1.0, -2.0, 0.0])
    upper = np.array([np.inf, 0.0, np.inf])
    plain = solve_bounded_lp(A, b, c, upper, [2], basis_inverse=np.eye(1))
    assert plain.row_duals.tolist() == [-1.0]

    def perturbed(b2, upper2):
        got = solve_bounded_lp(
            A, b, c, upper, [2], basis_inverse=np.eye(1), perturbed=(b2, upper2)
        )
        same = dataclasses.replace(got, iterations=plain.iterations, kept_dual=False)
        assert_same_lp_solution(same, plain)  # the unperturbed answer and its duals
        return got

    # x2 may reach 2: re-optimized, it is basic at 1, above its unperturbed bound
    got = perturbed(b, np.array([np.inf, 2.0, np.inf]))
    assert got.kept_dual and got.iterations > plain.iterations
    # x1 may not stay at 1: the start is no feasible basis there, and no pivot is made
    got = perturbed(b, np.array([0.5, 0.0, np.inf]))
    assert got.kept_dual and got.iterations == plain.iterations
    # a larger right-hand side: the start stays optimal at both points
    got = perturbed(2.0 * b, upper)
    assert not got.kept_dual and got.iterations == plain.iterations + 1


def _pareto_recourse_lps(monkeypatch):
    """The scenario LPs of one decomposition run, each with its perturbation."""
    with monkeypatch.context() as patch:
        lps = record_recourse_lps(patch)
        inst = small_random_instance(seed=907, n_countries=5)
        run_lshaped(inst, sample_batch(inst, (32,), 6, RiskOverrides(export_prob_scale=0.6)), 1e-5)
    assert lps and all(perturbed is not None for *_, perturbed in lps)
    return lps


def test_a_pooled_answer_reuses_the_pareto_basis_stored_with_it(monkeypatch):
    """The second solve of an LP is answered by the pool entry the first
    added, and the basis re-optimized from that entry certifies its duals
    again at both points with no pass."""
    checked = 0
    for args, start, _, perturbed in _pareto_recourse_lps(monkeypatch):
        A = args[0]
        pool = []
        first = solve_bounded_lp(*args, basis_inverse=start.copy(), pool=pool, perturbed=perturbed)
        if first.kept_dual:
            continue
        pareto = pool[0].pareto
        assert np.array_equal(pareto.inverse @ A[:, pareto.columns], np.eye(A.shape[0]))
        again = solve_bounded_lp(*args, basis_inverse=start.copy(), pool=pool, perturbed=perturbed)
        assert again.iterations == 0 and not again.kept_dual and len(pool) == 1
        for name in ("row_duals", "reduced_costs"):
            assert getattr(again, name).tobytes() == getattr(first, name).tobytes(), name
        checked += 1
    assert checked >= 10


# -- the answer table ------------------------------------------------------------


@pytest.mark.parametrize("perturbation", [False, True])
def test_a_repeated_lp_is_answered_from_the_table_to_the_bit(monkeypatch, perturbation):
    lps = (_pareto_recourse_lps if perturbation else _sampled_recourse_lps)(monkeypatch)
    for args, start, _, perturbed in lps:
        answers = {}
        first = solve_bounded_lp(
            *args, basis_inverse=start.copy(), perturbed=perturbed, answers=answers
        )
        pool = [None]  # a hit reads no pool, or this entry would fail it
        again = solve_bounded_lp(
            *args, basis_inverse=start.copy(), pool=pool, perturbed=perturbed, answers=answers
        )
        assert again.iterations == 0 and len(answers) == 1 and pool == [None]
        assert again.kept_dual == first.kept_dual
        assert_same_lp_solution(dataclasses.replace(again, iterations=first.iterations), first)
        for name in ("x", "row_duals", "reduced_costs", "at_upper"):
            assert not np.shares_memory(getattr(again, name), getattr(first, name)), name


def test_an_lp_differing_in_one_entry_misses_the_table(monkeypatch):
    args, start, _, perturbed = _pareto_recourse_lps(monkeypatch)[0]
    A, b, c, upper, basis = args
    b2, upper2 = perturbed

    def nudged(array):
        # one ulp up on the first positive finite entry keeps the start basis feasible
        out = array.copy()
        j = np.flatnonzero(np.isfinite(out) & (out > 0))[0]
        out[j] = np.nextafter(out[j], np.inf)
        return out

    answers = {}
    solve_bounded_lp(*args, basis_inverse=start.copy(), perturbed=perturbed, answers=answers)
    variants = [
        (nudged(b), c, upper, perturbed),
        (b, nudged(c), upper, perturbed),
        (b, c, nudged(upper), perturbed),
        (b, c, upper, (nudged(b2), upper2)),
        (b, c, upper, (b2, nudged(upper2))),
        (b, c, upper, None),
    ]
    for size, (b_, c_, upper_, perturbed_) in enumerate(variants, start=2):
        got = solve_bounded_lp(
            A, b_, c_, upper_, basis, basis_inverse=start.copy(), perturbed=perturbed_,
            answers=answers,
        )
        assert got.iterations > 0 and len(answers) == size


def test_a_table_answer_keeps_the_sign_of_a_zero():
    A, c = np.eye(3), np.array([1.0, 2.0, 3.0])
    y = np.array([0.5, -1.0, 2.0])
    solution = LpSolution(
        x=np.array([-0.0, 0.0, 4.0]),
        row_duals=y,
        reduced_costs=c - y @ A,
        at_upper=np.array([False, True, False]),
        objective=12.0,
        iterations=3,
        kept_dual=True,
    )
    got = TableAnswer.of(solution).solution(A, c)
    assert_same_lp_solution(dataclasses.replace(got, iterations=3), solution)
    assert got.iterations == 0 and got.kept_dual
