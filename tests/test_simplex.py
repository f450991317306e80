import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

from strainchain import Design, RecourseSolver, RiskOverrides, run_lshaped, sample_batch, simplex
from strainchain.simplex import (
    LpSolution,
    SimplexError,
    TableAnswer,
    _pricing_columns,
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
    basis, at_upper, Binv = entry.basis, entry.at_upper, entry.inverse
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
    A = np.hstack([np.eye(m), rng.normal(size=(m, n - m))])
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


def test_pricing_columns_round_like_the_full_product():
    rng = np.random.default_rng(3)
    for _ in range(300):
        m, n = int(rng.integers(1, 120)), int(rng.integers(1, 1400))
        A = rng.normal(size=(m, n)) * (rng.random((m, n)) < rng.random())
        y = rng.normal(size=m)
        cand = np.flatnonzero(rng.random(n) < rng.random())
        copy, pos = _pricing_columns(A, cand)
        assert np.array_equal((y @ copy)[pos], (y @ A)[cand])


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


# -- the answer table ------------------------------------------------------------


def _pareto_recourse_lps(monkeypatch):
    """The scenario LPs of one decomposition run, each with its perturbation."""
    with monkeypatch.context() as patch:
        lps = record_recourse_lps(patch)
        inst = small_random_instance(seed=907, n_countries=5)
        run_lshaped(inst, sample_batch(inst, (32,), 6, RiskOverrides(export_prob_scale=0.6)), 1e-5)
    assert lps and all(perturbed is not None for *_, perturbed in lps)
    return lps


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
