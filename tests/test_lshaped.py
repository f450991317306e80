import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strainchain import (
    CutPool,
    RecourseSolver,
    RiskOverrides,
    ValidationError,
    generate_synthetic_instance,
    run_lshaped,
    sample_batch,
    solve_master,
)
from strainchain.lshaped import (
    IterationLimitError,
    MasterState,
    _bound_terms,
    cut_groups,
)
from strainchain.simplex import solve_bounded_lp

from helpers import (
    OptimalityCut,
    assert_same_lp_solution,
    enumeration_optimum,
    master_values,
    plain_scenario,
    pool_from_cuts,
    pool_from_rows,
    record_recourse_lps,
    reference_master_by_enumeration,
    small_random_instance,
    tiny_instance,
)

EXACT = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def two_plant_instance():
    inst = tiny_instance(countries=("a", "b"))
    return inst.perturbed(fixed_cost={"a": 5.0, "b": 7.0})


def _one_cut_pool(cut):
    return pool_from_cuts(["a", "b"], [cut])


def test_master_without_cuts_opens_the_cheapest_plant():
    design, lb = solve_master(two_plant_instance(), CutPool(2, 1))
    assert design.open == {"a": 1, "b": 0}
    assert lb == pytest.approx(5.0)


def test_master_with_one_cut_hand_enumeration():
    cut = OptimalityCut(constant=10.0, coeff={"a": -3.0, "b": -2.0})
    design, lb = solve_master(two_plant_instance(), _one_cut_pool(cut))
    # candidates: (1,0)->12, (0,1)->15, (1,1)->17
    assert design.open == {"a": 1, "b": 0}
    assert lb == pytest.approx(12.0)


def test_master_honors_forced_assignments():
    cut = OptimalityCut(constant=10.0, coeff={"a": -3.0, "b": -2.0})
    design, lb = solve_master(two_plant_instance(), _one_cut_pool(cut), forced={"b": 1})
    assert design.open == {"a": 0, "b": 1}
    assert lb == pytest.approx(15.0)


def test_master_rejects_unsatisfiable_forcing():
    with pytest.raises(ValidationError):
        solve_master(two_plant_instance(), CutPool(2, 1), forced={"a": 0, "b": 0})
    with pytest.raises(ValidationError):
        solve_master(two_plant_instance(), CutPool(2, 1), forced={"zzz": 1})


def test_theta_floor_applies_when_cuts_go_negative():
    cut = OptimalityCut(constant=-100.0, coeff={"a": 0.0, "b": 0.0})
    design, lb = solve_master(two_plant_instance(), _one_cut_pool(cut))
    assert lb == pytest.approx(5.0)  # theta clamps at zero, not -100


def test_group_floors_apply_one_group_at_a_time():
    # group 0's cut is negative at every design, group 1's positive: only
    # group 0 clamps, and the master adds 0 + group 1's cut
    pool = pool_from_rows([[-100.0, 10.0]], [[[0.0, 0.0], [-3.0, -2.0]]])
    design, lb = solve_master(two_plant_instance(), pool)
    assert design.open == {"a": 1, "b": 0}
    assert lb == 12.0
    assert solve_master(two_plant_instance(), pool, enumeration_limit=0) == (design, lb)


def _tie_count(inst, plants, pool, forced):
    """How many designs attain the master's optimum (brute force, exact for integer data)."""
    values = [
        value for bits, value in master_values(inst, plants, pool).items()
        if all(bits[plants.index(j)] == v for j, v in forced.items())
    ]
    return values.count(min(values))


def _random_pool(rng, plants, rows, groups, integer):
    draw = rng.integers if integer else rng.uniform
    const_range, coef_range = ((0, 20), (-6, 3)) if integer else ((0, 300), (-120, 20))
    return pool_from_rows(
        draw(*const_range, size=(rows, groups)).astype(float),
        draw(*coef_range, size=(rows, groups, len(plants))).astype(float),
    )


def test_branch_and_bound_agrees_with_enumeration():
    rng = np.random.default_rng(12)
    tied = 0
    for trial in range(60):
        inst = small_random_instance(
            seed=int(rng.integers(1_000_000)), n_countries=int(rng.integers(5, 13))
        )
        plants = list(inst.plant_candidates)
        integer = trial % 3 == 0  # small integer data: exact ties between designs
        if integer:
            inst = inst.perturbed(fixed_cost={j: float(rng.integers(0, 4)) for j in plants})
        groups = int(rng.integers(1, 5))
        pool = _random_pool(rng, plants, int(rng.integers(0, 61)) // groups, groups, integer)
        pinned = rng.choice(len(plants), size=int(rng.integers(0, 4)), replace=False)
        forced = {plants[p]: int(rng.integers(0, 2)) for p in pinned}
        d1, v1 = solve_master(inst, pool, forced)
        d2, v2 = solve_master(inst, pool, forced, enumeration_limit=0)
        assert v1 == v2
        assert d1.open == d2.open
        if integer:
            tied += _tie_count(inst, plants, pool, forced) > 1
        closed = {j: 0 for j in plants}
        for limit in (len(plants), 0):
            with pytest.raises(ValidationError, match="close every plant"):
                solve_master(inst, pool, closed, enumeration_limit=limit)
    assert tied >= 5  # the integer batch really exercises the tie rule


def test_forcing_tightens_the_node_bound():
    # forcing replaces min(0, term) by the term (open) or 0 (closed) in every
    # suffix that covers the plant, so no node bound can fall
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, rows, groups = int(rng.integers(1, 8)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
        fixed = rng.uniform(0, 50, n)
        constants = rng.uniform(0, 300, (rows, groups))
        coefficients = rng.uniform(-120, 60, (rows, groups, n))
        pinned = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
        forced_pos = {int(p): int(rng.integers(0, 2)) for p in pinned}
        free = _bound_terms(fixed, constants, coefficients, {})
        forcing = _bound_terms(fixed, constants, coefficients, forced_pos)
        assert free.shape == forcing.shape == (n + 1, groups, rows)
        assert (forcing >= free - 1e-9).all()
        assert np.array_equal(forcing[n], constants.T) and np.array_equal(free[n], constants.T)
    # a forced-open plant whose term is positive lifts the bound at the root
    fixed = np.array([5.0, 7.0])
    one = _bound_terms(fixed, np.array([[10.0]]), np.array([[[-3.0, -2.0]]]), {1: 1})
    assert one[0, 0, 0] == 15.0
    assert _bound_terms(fixed, np.array([[10.0]]), np.array([[[-3.0, -2.0]]]), {})[0, 0, 0] == 10.0


def test_branch_and_bound_keeps_a_leaf_its_ancestors_bound_rounds_above():
    # found by a random search: the all-open design is worth 251.8, but a
    # bound above it rounds to at least 251.80000000000007, the value of the
    # incumbent found first (p02 closed); pruning at bound >= incumbent
    # returned that incumbent
    inst, plants = _plants_instance([0.30000000000000004, 0.2, 0.30000000000000004, 0.0])
    pool = pool_from_rows([[1002.1]], [[[-249.8, -250.6, -0.30000000000000004, -250.4]]])
    by_enumeration = solve_master(inst, pool)
    by_bnb = solve_master(inst, pool, enumeration_limit=0)
    assert by_enumeration[0].open == {j: 1 for j in plants}
    assert by_enumeration[1] == 251.8
    assert (by_bnb[0].open, by_bnb[1]) == (by_enumeration[0].open, by_enumeration[1])


def test_every_design_tied_goes_to_the_first_in_lexicographic_order():
    # zero fixed costs and no cut: all 2^20 - 1 nonempty designs tie
    inst, plants = _plants_instance([0.0] * 20)
    design, value = solve_master(inst, CutPool(20, 1))
    assert value == 0.0
    assert design.open == {j: int(j == "p19") for j in plants}
    design, _ = solve_master(inst, CutPool(20, 1), {"p19": 0, "p05": 1})
    assert design.open == {j: int(j == "p05") for j in plants}


def test_cut_groups_bound_the_enumeration_envelope():
    assert cut_groups(16, 15) == 15
    assert cut_groups(17, 15) == 8
    assert cut_groups(20, 30) == 1
    assert cut_groups(5, 30) == 30
    assert cut_groups(21, 10) == 10  # branch and bound: one group per scenario
    for n in range(1, 21):
        assert cut_groups(n, 1000) << n <= 1 << 20


def _plants_instance(fixed):
    plants = tuple(f"p{n:02d}" for n in range(len(fixed)))
    return tiny_instance(countries=plants, fixed_cost=dict(zip(plants, fixed))), list(plants)


def _grow_and_compare(inst, plants, cuts, forced, exact_from=0):
    """Feed the cuts one at a time to a carried state; after each (and before
    the first) the state's answer must equal a fresh stateless call and the
    former single-cut master, design and value alike.

    The former master sums fixed costs with a gemv, and with a single cut
    its cut product is one too; either may round a float sum differently
    from the plant-order accumulation. Values are compared exactly to the
    reference with plant-order fixed costs from `exact_from` cuts on (to
    1e-12 before that), and to the former master exactly on integer data
    (`exact_from` 0) and to 1e-12 otherwise.
    """
    state = MasterState()
    pool = CutPool(len(plants), 1)
    for k in range(len(cuts) + 1):
        if k:
            pool.append([cuts[k - 1].constant], [[cuts[k - 1].coeff[j] for j in plants]])
        carried = solve_master(inst, pool, forced, state=state)
        fresh = solve_master(inst, pool, forced)
        former = reference_master_by_enumeration(inst, plants, cuts[:k], forced)
        ref = reference_master_by_enumeration(
            inst, plants, cuts[:k], forced, plant_order_fixed=True
        )
        assert carried[0].open == fresh[0].open == ref[0].open == former[0].open
        assert carried[1] == fresh[1]
        if k >= exact_from:
            assert carried[1] == ref[1]
        else:
            assert carried[1] == pytest.approx(ref[1], rel=1e-12, abs=1e-12)
        if exact_from == 0:
            assert carried[1] == former[1]
        else:
            assert carried[1] == pytest.approx(former[1], rel=1e-12, abs=1e-12)
        assert state.folded == k + 1


@st.composite
def _master_cases(draw):
    n = draw(st.integers(1, 12))
    integer = draw(st.booleans())
    number = (
        (lambda lo, hi: st.integers(lo, hi).map(float))
        if integer
        else (lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False))
    )
    fixed = draw(st.lists(number(0, 3) if integer else number(0, 50), min_size=n, max_size=n))
    inst, plants = _plants_instance(fixed)
    const_range, coef_range = ((0, 20), (-6, 3)) if integer else ((0, 300), (-120, 20))
    cuts = draw(
        st.lists(
            st.builds(
                lambda const, coefs: OptimalityCut(constant=const, coeff=dict(zip(plants, coefs))),
                number(*const_range),
                st.lists(number(*coef_range), min_size=n, max_size=n),
            ),
            max_size=8,
        )
    )
    pinned = draw(st.lists(st.sampled_from(plants), max_size=min(3, n), unique=True))
    forced = {j: draw(st.integers(0, 1)) for j in pinned}
    return inst, plants, cuts, forced, integer


@EXACT
@given(_master_cases())
def test_carried_envelope_matches_the_stateless_reference(case):
    inst, plants, cuts, forced, integer = case
    if not any(forced.get(j, 1) for j in plants):
        with pytest.raises(ValidationError, match="close every plant"):
            solve_master(inst, pool_from_cuts(plants, cuts), forced, state=MasterState())
        return
    _grow_and_compare(inst, plants, cuts, forced, exact_from=0 if integer else 2)
    closed = {j: 0 for j in plants}
    with pytest.raises(ValidationError, match="close every plant"):
        solve_master(inst, pool_from_cuts(plants, cuts), closed, state=MasterState())


def test_carried_envelope_across_two_enumeration_chunks():
    # 17 plants: the former master split the codes into chunks of 2^16,
    # codes 1..2^16 the first, every later code (plant p00 open with
    # others) the second
    fixed = [0.0] * 17
    inst, plants = _plants_instance(fixed)
    # value 0 at 2^16 (p00 alone, first chunk) and at 2^16 + 1 (p00 and
    # p16, second chunk): the tie must go to the first chunk's design
    tie = OptimalityCut(constant=5.0, coeff={j: -5.0 if j == "p00" else 0.0 for j in plants})
    design, value = solve_master(inst, pool_from_cuts(plants, [tie]))
    assert value == 0.0
    assert design.open == {j: int(j == "p00") for j in plants}

    rng = np.random.default_rng(17)
    for forced in ({}, {"p00": 1}, {"p03": 0, "p16": 1}):
        inst, plants = _plants_instance([float(v) for v in rng.integers(0, 4, size=17)])
        cuts = [tie] + [
            OptimalityCut(
                constant=float(rng.integers(0, 20)),
                coeff={j: float(rng.integers(-6, 4)) for j in plants},
            )
            for _ in range(3)
        ]
        _grow_and_compare(inst, plants, cuts, forced)
    closed = {j: 0 for j in plants}
    with pytest.raises(ValidationError, match="close every plant"):
        solve_master(inst, pool_from_cuts(plants, cuts), closed, state=MasterState())


def test_decomposition_with_a_stateless_master(monkeypatch):
    pools = []
    for trial in range(4):
        inst = small_random_instance(seed=780 + trial, n_countries=5)
        pools.append((inst, _scenario_pool(inst, (17, trial), 12)))
    carried = [run_lshaped(inst, scens, epsilon=1e-9) for inst, scens in pools]
    monkeypatch.setattr(
        "strainchain.lshaped.solve_master",
        lambda instance, cuts, forced=None, state=None: solve_master(instance, cuts, forced),
    )
    stateless = [run_lshaped(inst, scens, epsilon=1e-9) for inst, scens in pools]
    for first, second in zip(carried, stateless):
        assert first.iterations > 1
        assert second.design.open == first.design.open
        assert second.objective == first.objective
        assert second.lb_trace == first.lb_trace


def _scenario_pool(inst, seed, n):
    return sample_batch(inst, seed, n, RiskOverrides(export_prob_scale=0.5, ban_threshold=0.95))


def test_deterministic_instance_matches_design_enumeration():
    inst = small_random_instance(seed=21, n_countries=4)
    scen = [plain_scenario(inst)]
    solver = RecourseSolver(inst)
    result = run_lshaped(inst, scen, epsilon=1e-9, solver=solver)
    best_val, best_design = enumeration_optimum(inst, scen, solver)
    assert result.objective == pytest.approx(best_val, rel=1e-6)
    assert result.design.open == best_design.open


def test_exactness_against_enumeration_on_sampled_pools():
    for trial in range(8):
        inst = small_random_instance(seed=700 + trial, n_countries=4)
        scens = _scenario_pool(inst, (9, trial), 15)
        solver = RecourseSolver(inst)
        result = run_lshaped(inst, scens, epsilon=1e-9, solver=solver)
        best_val, best_design = enumeration_optimum(inst, scens, solver)
        assert result.objective == pytest.approx(best_val, rel=1e-6)
        assert result.design.open == best_design.open


def test_each_decomposition_iteration_shares_one_basis_pool(monkeypatch):
    # criterion 1's first instance and sample
    inst = generate_synthetic_instance(2, 3, 5, seed=9000)
    scens = sample_batch(
        inst, (40, 0), 20, RiskOverrides(export_prob_scale=0.6, ban_threshold=0.95)
    )
    solver = RecourseSolver(inst)
    lps = record_recourse_lps(monkeypatch)
    result = run_lshaped(inst, scens, epsilon=1e-9, solver=solver)
    n = len(scens)
    assert result.iterations > 1 and len(lps) == result.iterations * n
    pooled = 0
    for at, (args, start, solution) in enumerate(lps):
        cold = solve_bounded_lp(*args, basis_inverse=start)
        # an iteration's first LP meets an empty pool, and an LP no pooled
        # basis answers pivots on its own path
        if at % n == 0 or solution.iterations:
            assert_same_lp_solution(solution, cold)
        else:
            pooled += cold.iterations > 0
    assert pooled
    best_val, best_design = enumeration_optimum(inst, scens, solver)
    assert result.objective == pytest.approx(best_val, rel=1e-6)
    assert result.design.open == best_design.open


def test_decomposition_on_the_branch_and_bound_master(monkeypatch):
    pools = []
    for trial in range(4):
        inst = small_random_instance(seed=760 + trial, n_countries=5)
        pools.append((inst, _scenario_pool(inst, (16, trial), 12)))
    by_enumeration = [run_lshaped(inst, scens, epsilon=1e-9) for inst, scens in pools]
    monkeypatch.setattr(
        "strainchain.lshaped.solve_master", functools.partial(solve_master, enumeration_limit=0)
    )
    by_bnb = [run_lshaped(inst, scens, epsilon=1e-9) for inst, scens in pools]
    for first, second in zip(by_enumeration, by_bnb):
        assert second.design.open == first.design.open
        assert second.objective == first.objective
        assert second.iterations == first.iterations
        assert second.lb_trace == first.lb_trace


def test_infinite_tolerance_stops_after_the_first_iteration():
    inst = small_random_instance(seed=33, n_countries=4)
    scens = _scenario_pool(inst, (10, 0), 8)
    result = run_lshaped(inst, scens, epsilon=np.inf)
    assert result.iterations == 1
    no_cut_design, _ = solve_master(inst, CutPool(len(inst.plant_candidates), 1))
    assert result.design.open == no_cut_design.open


def test_traces_are_monotone_and_runs_are_reproducible():
    inst = small_random_instance(seed=44, n_countries=5)
    scens = _scenario_pool(inst, (11, 0), 25)
    first = run_lshaped(inst, scens, epsilon=1e-9)
    second = run_lshaped(inst, scens, epsilon=1e-9)
    assert first == second
    assert all(b >= a - 1e-9 for a, b in zip(first.lb_trace, first.lb_trace[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(first.ub_trace, first.ub_trace[1:]))
    assert (first.ub_trace[-1] - first.lb_trace[-1]) <= 1e-9 * max(1.0, first.ub_trace[-1])


def test_forced_opening_restricts_the_feasible_set():
    inst = small_random_instance(seed=55, n_countries=4)
    scens = _scenario_pool(inst, (12, 0), 10)
    free = run_lshaped(inst, scens, epsilon=1e-9)
    c1 = inst.interest_country
    forced = run_lshaped(inst, scens, epsilon=1e-9, forced={c1: 1})
    assert forced.design.open[c1] == 1
    assert forced.objective >= free.objective - 1e-9


def test_empty_scenario_list_is_rejected():
    inst = small_random_instance(seed=67, n_countries=3)
    with pytest.raises(ValidationError):
        run_lshaped(inst, [], epsilon=1e-5)
    with pytest.raises(ValidationError):
        run_lshaped(inst, _scenario_pool(inst, (14, 0), 3), epsilon=0.0)


def test_iteration_cap_carries_traces():
    inst = small_random_instance(seed=66, n_countries=5)
    scens = _scenario_pool(inst, (13, 0), 20)
    with pytest.raises(IterationLimitError) as err:
        run_lshaped(inst, scens, epsilon=1e-12, max_iterations=1)
    assert len(err.value.lb_trace) == 1
    assert len(err.value.ub_trace) == 1
