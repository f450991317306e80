import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

from strainchain import Design, RecourseSolver, RiskOverrides, sample_batch, simplex
from strainchain.simplex import SimplexError, _pricing_columns, solve_bounded_lp

import helpers
from helpers import (
    assert_same_lp_solution,
    count_calls,
    record_recourse_lps,
    reference_solve_bounded_lp,
    small_random_instance,
)


def random_lp(rng):
    """Random feasible bounded LP in the solver's equality form plus a start basis.

    Equality rows get big-cost artificials so the all-artificial/slack basis is
    feasible; the optimum drives them to zero because the RHS is attainable.
    """
    m_eq = int(rng.integers(1, 5))
    m_le = int(rng.integers(1, 5))
    n0 = int(rng.integers(3, 12))
    A_eq = rng.normal(size=(m_eq, n0))
    A_le = np.abs(rng.normal(size=(m_le, n0)))
    c = np.abs(rng.normal(size=n0)) * rng.choice([0.0, 1.0, 1.0], size=n0)
    u = np.where(rng.random(n0) < 0.4, np.inf, rng.uniform(0.0, 5.0, n0))
    x0 = np.where(np.isfinite(u), rng.uniform(0, 1) * np.minimum(u, 3.0), rng.uniform(0, 3.0, n0))
    b_eq = A_eq @ x0
    b_le = A_le @ x0 + rng.uniform(0.0, 2.0, m_le)

    big = 1e5
    A = np.zeros((m_eq + m_le, n0 + m_le + m_eq))
    A[:m_eq, :n0] = A_eq
    A[m_eq:, :n0] = A_le
    A[m_eq:, n0 : n0 + m_le] = np.eye(m_le)
    A[:m_eq, n0 + m_le :] = np.diag(np.where(b_eq >= 0, 1.0, -1.0))
    b = np.concatenate([b_eq, b_le])
    cc = np.concatenate([c, np.zeros(m_le), big * np.ones(m_eq)])
    uu = np.concatenate([u, np.full(m_le, np.inf), np.full(m_eq, np.inf)])
    basis = np.concatenate(
        [np.arange(n0 + m_le, n0 + m_le + m_eq), np.arange(n0, n0 + m_le)]
    )
    return (A, b, cc, uu, basis), (c, A_le, b_le, A_eq, b_eq, u)


def test_matches_reference_solver_on_random_problems():
    rng = np.random.default_rng(42)
    for _ in range(150):
        (A, b, cc, uu, basis), (c, A_le, b_le, A_eq, b_eq, u) = random_lp(rng)
        sol = solve_bounded_lp(A, b, cc, uu, basis)
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
        (A, b, cc, uu, basis), _ = random_lp(rng)
        sol = solve_bounded_lp(A, b, cc, uu, basis)
        mu = float(np.sum(sol.reduced_costs[sol.at_upper] * uu[sol.at_upper]))
        dual = float(sol.row_duals @ b) + mu
        assert dual == pytest.approx(sol.objective, rel=1e-7, abs=1e-7)


def test_primal_point_is_feasible():
    rng = np.random.default_rng(9)
    for _ in range(40):
        (A, b, cc, uu, basis), _ = random_lp(rng)
        sol = solve_bounded_lp(A, b, cc, uu, basis)
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
    with pytest.raises(SimplexError):
        solve_bounded_lp(A, b, c, u, np.array([1]), max_iterations=0)


def test_bad_basis_shape_raises():
    A = np.eye(2)
    with pytest.raises(SimplexError):
        solve_bounded_lp(A, np.ones(2), np.ones(2), np.full(2, np.inf), np.array([0]))


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
                solver.solve(Design(open=open_map), scen)
                if solvers is not None:
                    solvers.append(solver)
    assert len(lps) == 72
    return lps


def test_restricted_pricing_matches_full_pricing_on_recourse_lps(monkeypatch):
    for args, start, _ in _sampled_recourse_lps(monkeypatch):
        assert (args[3] <= 1e-10).any()  # columns that can never enter
        _assert_same_solution(args, {"basis_inverse": start})


def test_recourse_lps_refreshed_every_two_pivots_match_without_inv(monkeypatch):
    # no workload LP reaches REFRESH_EVERY pivots; at 2 every one with three
    # or more pivots recomputes its basic values from the updated inverse
    lps = _sampled_recourse_lps(monkeypatch)
    monkeypatch.setattr(simplex, "REFRESH_EVERY", 2)
    monkeypatch.setattr(helpers, "REFRESH_EVERY", 2)
    assert max(sol.iterations for _, _, sol in lps) > 10
    inv_calls = count_calls(monkeypatch, np.linalg, "inv")
    for args, start, _ in lps:
        got = solve_bounded_lp(*args, basis_inverse=start.copy())
        assert not inv_calls
        assert_same_lp_solution(got, reference_solve_bounded_lp(*args, basis_inverse=start.copy()))
        inv_calls.clear()


@pytest.mark.parametrize("refresh", [simplex.REFRESH_EVERY, 2])
def test_real_valued_lps_refactorize_and_match_the_reference(monkeypatch, refresh):
    # the first pivot brings in a real-valued column, so every later refresh
    # and the final polish refactorize, as the reference does
    monkeypatch.setattr(simplex, "REFRESH_EVERY", refresh)
    monkeypatch.setattr(helpers, "REFRESH_EVERY", refresh)
    inv_calls = count_calls(monkeypatch, np.linalg, "inv")
    rng = np.random.default_rng(12)
    pivoted = 0
    for _ in range(60):
        (A, b, cc, uu, basis), _ = random_lp(rng)
        start = np.linalg.inv(A[:, basis])  # the +-1 slack and artificial columns
        inv_calls.clear()
        got = solve_bounded_lp(A, b, cc, uu, basis, basis_inverse=start.copy())
        mine = len(inv_calls)
        ref = reference_solve_bounded_lp(A, b, cc, uu, basis, basis_inverse=start.copy())
        assert_same_lp_solution(got, ref)
        if got.iterations > 1:
            assert mine == len(inv_calls) - mine
            pivoted += 1
    assert pivoted > 30


@pytest.mark.parametrize(
    "entering, b",
    [
        # column 0 enters first (Dantzig's first maximum) and leaves row 0
        ([2.0, 1.0], [4.0, 3.0]),          # at ratio 4/2 < 3/1: pivot element 2
        ([1.0, 0.5], [4.0, 3.0]),          # at 4/1 < 3/0.5: a fractional column
        ([1.0, 2.0**53], [1.0, 2.0**60]),  # at 1/1 < 2^60/2^53: B^-1 reaches 2^53
        # at 1/1 < 2^40/2^27: B^-1 holds 2^27, which times a column of norm
        # 2^27 + 1 could pass 2^53
        ([1.0, 2.0**27], [1.0, 2.0**40]),
    ],
    ids=["pivot_element_two", "fractional_column", "beyond_2_53", "inverse_grows"],
)
def test_lps_outside_the_exact_class_refactorize(monkeypatch, entering, b):
    A = np.array([[entering[0], 1.0, 1.0, 0.0], [entering[1], 1.0, 0.0, 1.0]])
    args = (A, np.array(b), np.array([-1.0, -1.0, 0.0, 0.0]), np.full(4, np.inf), [2, 3])
    inv_calls = count_calls(monkeypatch, np.linalg, "inv")
    pool = []
    got = solve_bounded_lp(*args, basis_inverse=np.eye(2), pool=pool)
    assert inv_calls
    assert not pool  # only a proven-exact inverse is pooled
    assert_same_lp_solution(got, reference_solve_bounded_lp(*args, basis_inverse=np.eye(2)))


def test_wrong_start_inverse_raises_naming_the_primal_residual(monkeypatch):
    (A, b, c, upper, basis), start, _ = _sampled_recourse_lps(monkeypatch)[0]
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
        upper[np.flatnonzero(entry[1])[0]] = np.inf
    return A, b, c, upper, basis


def _certificate_holds(kind, variant, entry):
    """The reference's answer: is the pooled basis optimal for the variant?"""
    A, b, c, upper, _ = variant
    basis, at_upper, Binv = entry
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
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["capacities", "s2_costs", "unbounded_at_upper"])
def test_a_pooled_basis_answers_only_where_its_certificate_holds(monkeypatch, kind):
    solvers = []
    lps = _sampled_recourse_lps(monkeypatch, solvers)
    rng = np.random.default_rng(17)
    outcomes = []
    for (args, start, _), solver in zip(lps, solvers):
        pool = []
        first = solve_bounded_lp(*args, basis_inverse=start.copy(), pool=pool)
        assert len(pool) == 1 and first.iterations > 0
        if kind == "unbounded_at_upper" and not pool[0][1].any():
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
            assert len(pool) == 2  # an exact cold solve adds its final basis
        outcomes.append(expected)
    # both outcomes occur, except that an unbounded at-upper column always skips
    assert outcomes.count(False) >= 4
    assert kind == "unbounded_at_upper" or outcomes.count(True) >= 5


def test_a_pooled_basis_answers_its_own_lp_to_the_bit(monkeypatch):
    for args, start, _ in _sampled_recourse_lps(monkeypatch):
        pool = []
        cold = solve_bounded_lp(*args, basis_inverse=start.copy(), pool=pool)
        again = solve_bounded_lp(*args, basis_inverse=start.copy(), pool=pool)
        assert again.iterations == 0 and len(pool) == 1
        assert_same_lp_solution(dataclasses.replace(again, iterations=cold.iterations), cold)


def test_lp_with_every_column_fixed_stops_at_once():
    rng = np.random.default_rng(5)
    m, n = 3, 7
    A = np.hstack([np.eye(m), rng.normal(size=(m, n - m))])
    sol = _assert_same_solution((A, np.zeros(m), rng.normal(size=n), np.zeros(n), np.arange(m)))
    assert sol.iterations == 1
    assert np.array_equal(sol.x, np.zeros(n))


def test_degenerate_cycle_switches_to_blands_rule():
    # Hall and McKinnon's two-row LP, on which Dantzig's rule cycles through
    # degenerate pivots at the origin, closed by a sum row x1..x4 <= 1 so it
    # is bounded; every pivot of the cycle is degenerate, so more than
    # 40 + 2m iterations means the solver switched to Bland's rule
    B = np.array([[0.4, 0.2, -1.4, -0.2], [-7.8, -1.4, 7.8, 0.4], [1.0, 1.0, 1.0, 1.0]])
    m = B.shape[0]
    A = np.hstack([B, np.eye(m)])
    c = np.array([-2.3, -2.15, 13.55, 0.4, 0.0, 0.0, 0.0])
    upper = np.full(7, np.inf)
    upper[2] = 3.0  # a finite bound too, to exercise the flip test
    sol = _assert_same_solution((A, np.array([0.0, 0.0, 1.0]), c, upper, np.arange(4, 7)))
    assert sol.iterations > 40 + 2 * m
    assert sol.objective == pytest.approx(-0.875)


def test_tied_columns_enter_in_column_order():
    # every column twice, the first copy of some fixed at zero: the first
    # maximum must be the copy full pricing picks, or x lands on the other
    rng = np.random.default_rng(8)
    for _ in range(40):
        (A, b, cc, uu, basis), _ = random_lp(rng)
        fixed = np.where(rng.random(len(uu)) < 0.3, 0.0, uu)
        fixed[basis] = uu[basis]
        _assert_same_solution(
            (np.hstack([A, A]), b, np.concatenate([cc, cc]), np.concatenate([fixed, uu]), basis)
        )


def test_pricing_columns_round_like_the_full_product():
    rng = np.random.default_rng(3)
    for _ in range(300):
        m, n = int(rng.integers(1, 120)), int(rng.integers(1, 1400))
        A = rng.normal(size=(m, n)) * (rng.random((m, n)) < rng.random())
        y = rng.normal(size=m)
        cand = np.flatnonzero(rng.random(n) < rng.random())
        copy, pos = _pricing_columns(A, cand)
        assert np.array_equal((y @ copy)[pos], (y @ A)[cand])
