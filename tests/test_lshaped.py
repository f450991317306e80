import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strainchain import (
    Design,
    Master,
    RecourseSolver,
    RiskOverrides,
    SaaConfig,
    ValidationError,
    check_forcing,
    generate_synthetic_instance,
    run_lshaped,
    sample_batch,
    solve_master,
)
from strainchain.lshaped import (
    ENUMERATION_LIMIT,
    ENVELOPE_LIMIT,
    FRONTIER_LIMIT,
    IterationLimitError,
    _bound_terms,
)
from strainchain import lshaped
from strainchain.saa import ROLE_OPTIMIZE

from helpers import (
    OptimalityCut,
    assert_same_lp_solution,
    enumeration_optimum,
    master_from_cuts,
    master_from_rows,
    master_values,
    plain_scenario,
    record_recourse_lps,
    reference_branch_and_bound,
    reference_master_by_enumeration,
    small_random_instance,
    solve_lp,
    stack,
    tiny_instance,
)

EXACT = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def two_plant_instance():
    inst = tiny_instance(countries=("a", "b"))
    return inst.perturbed(fixed_cost={"a": 5.0, "b": 7.0})


def _one_cut_master(cut, forced=None):
    return master_from_cuts(two_plant_instance(), ["a", "b"], [cut], forced)


def test_master_without_cuts_opens_the_cheapest_plant():
    design, lb = solve_master(Master(two_plant_instance(), 1))
    assert design.open == {"a": 1, "b": 0}
    assert lb == pytest.approx(5.0)


def test_master_with_one_cut_hand_enumeration():
    cut = OptimalityCut(constant=10.0, coeff={"a": -3.0, "b": -2.0})
    design, lb = solve_master(_one_cut_master(cut))
    # candidates: (1,0)->12, (0,1)->15, (1,1)->17
    assert design.open == {"a": 1, "b": 0}
    assert lb == pytest.approx(12.0)


def test_master_honors_forced_assignments():
    cut = OptimalityCut(constant=10.0, coeff={"a": -3.0, "b": -2.0})
    design, lb = solve_master(_one_cut_master(cut, forced={"b": 1}))
    assert design.open == {"a": 0, "b": 1}
    assert lb == pytest.approx(15.0)


@pytest.mark.parametrize(
    "forced, named",
    [
        ({"a": 0, "b": 0}, "forced_open: forced assignments close every plant"),
        ({"zzz": 1}, r"forced_open names non-candidates: \['zzz'\]"),
        ({"a": 1, "zzz": 0}, r"forced_open names non-candidates: \['zzz'\]"),
        ({"a": 2}, r"forced_open\['a'\] must be 0 or 1, got 2$"),
        ({"a": 1, "b": 0.5}, r"forced_open\['b'\] must be 0 or 1, got 0.5$"),
        ({"b": True}, r"forced_open\['b'\] must be 0 or 1, got True$"),
        ({"a": 1.0}, r"forced_open\['a'\] must be 0 or 1, got 1.0$"),
        ({"a": "1"}, r"forced_open\['a'\] must be 0 or 1, got '1'$"),
    ],
)
@pytest.mark.parametrize("enumeration_limit", [2, 0])
def test_a_bad_forcing_is_rejected_when_the_master_is_built(forced, named, enumeration_limit):
    inst = two_plant_instance()
    with pytest.raises(ValidationError, match=named):
        check_forcing(inst, forced)
    with pytest.raises(ValidationError, match=named):
        Master(inst, 3, forced, enumeration_limit)
    with pytest.raises(ValidationError, match=named):
        run_lshaped(inst, stack([plain_scenario(inst)]), epsilon=1e-9, forced=forced)
    assert check_forcing(inst, {"a": 0}) == {"a": 0}
    assert check_forcing(inst, None) == {}


def test_theta_floor_applies_when_cuts_go_negative():
    cut = OptimalityCut(constant=-100.0, coeff={"a": 0.0, "b": 0.0})
    design, lb = solve_master(_one_cut_master(cut))
    assert lb == pytest.approx(5.0)  # theta clamps at zero, not -100


def test_group_floors_apply_one_group_at_a_time():
    # group 0's cut is negative at every design, group 1's positive: only
    # group 0 clamps, and the master adds 0 + group 1's cut
    rows = ([[-100.0, 10.0]], [[[0.0, 0.0], [-3.0, -2.0]]])
    design, lb = solve_master(master_from_rows(two_plant_instance(), *rows))
    assert design.open == {"a": 1, "b": 0}
    assert lb == 12.0
    by_bnb = master_from_rows(two_plant_instance(), *rows, enumeration_limit=0)
    assert not by_bnb.enumerates
    assert solve_master(by_bnb) == (design, lb)


def _tie_count(inst, plants, master, forced):
    """How many designs attain the master's optimum (brute force, exact for integer data)."""
    values = [
        value for bits, value in master_values(inst, plants, master).items()
        if all(bits[plants.index(j)] == v for j, v in forced.items())
    ]
    return values.count(min(values))


def _random_rows(rng, plants, rows, groups, integer):
    draw = rng.integers if integer else rng.uniform
    const_range, coef_range = ((0, 20), (-6, 3)) if integer else ((0, 300), (-120, 20))
    return (
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
        rows = _random_rows(rng, plants, int(rng.integers(0, 61)) // groups, groups, integer)
        pinned = rng.choice(len(plants), size=int(rng.integers(0, 4)), replace=False)
        forced = {plants[p]: int(rng.integers(0, 2)) for p in pinned}
        by_enumeration = master_from_rows(inst, *rows, forced)
        by_bnb = master_from_rows(inst, *rows, forced, enumeration_limit=0)
        assert by_enumeration.enumerates and not by_bnb.enumerates
        d1, v1 = solve_master(by_enumeration)
        d2, v2 = solve_master(by_bnb)
        assert v1 == v2
        assert d1.open == d2.open
        if integer:
            tied += _tie_count(inst, plants, by_enumeration, forced) > 1
        closed = {j: 0 for j in plants}
        for limit in (len(plants), 0):
            with pytest.raises(ValidationError, match="close every plant"):
                Master(inst, groups, closed, limit)
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
    rows = ([[1002.1]], [[[-249.8, -250.6, -0.30000000000000004, -250.4]]])
    by_enumeration = solve_master(master_from_rows(inst, *rows))
    by_bnb = solve_master(master_from_rows(inst, *rows, enumeration_limit=0))
    assert by_enumeration[0].open == {j: 1 for j in plants}
    assert by_enumeration[1] == 251.8
    assert (by_bnb[0].open, by_bnb[1]) == (by_enumeration[0].open, by_enumeration[1])


def test_frontier_search_keeps_a_leaf_whose_ancestors_round_above_the_dive():
    # found by a random search: the dive reaches the all-open design, worth
    # 0.7, but p00 and p02 alone are worth 0.6999999999999886, and a bound
    # above that leaf rounds above 0.7; pruning at bound > incumbent, with
    # no slack, returned the all-open design
    inst, plants = _plants_instance([0.3, 0.2, 0.2])
    rows = ([[132.0]], [[[-71.0, -50.7, -60.8]]])
    want = (Design(open={"p00": 1, "p01": 0, "p02": 1}), 0.6999999999999886)
    _same_answer(solve_master(master_from_rows(inst, *rows)), want)
    by_bnb = master_from_rows(inst, *rows, enumeration_limit=0)
    _same_answer(solve_master(by_bnb), want)
    _same_answer(reference_branch_and_bound(by_bnb), want)


def test_every_design_tied_goes_to_the_first_in_lexicographic_order():
    # zero fixed costs and no cut: all 2^20 - 1 nonempty designs tie
    inst, plants = _plants_instance([0.0] * 20)
    design, value = solve_master(Master(inst, 1))
    assert value == 0.0
    assert design.open == {j: int(j == "p19") for j in plants}
    design, _ = solve_master(Master(inst, 1, {"p19": 0, "p05": 1}))
    assert design.open == {j: int(j == "p05") for j in plants}


def _same_answer(got, want):
    assert got[0].open == want[0].open
    assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()


@st.composite
def _branch_and_bound_cases(draw):
    """A random master: 1-12 free plants among up to 22, 1-5 groups, forcing,
    integer data with ties and zero fixed costs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_free, n_pinned = draw(st.integers(1, 12)), draw(st.integers(0, 10))
    n = n_free + n_pinned
    integer, zero_fixed = draw(st.booleans()), draw(st.booleans())
    if zero_fixed:
        fixed = [0.0] * n
    else:
        fixed = rng.integers(0, 4, n) if integer else rng.uniform(0, 50, n)
    inst, plants = _plants_instance([float(v) for v in fixed])
    groups = draw(st.integers(1, 5))
    rows = _random_rows(rng, plants, draw(st.integers(0, 8)), groups, integer)
    pinned = rng.choice(n, n_pinned, replace=False)
    forced = {plants[p]: int(rng.integers(0, 2)) for p in pinned}
    return inst, plants, rows, forced


@EXACT
@given(_branch_and_bound_cases())
def test_frontier_search_matches_the_recursive_reference(case):
    inst, plants, rows, forced = case
    if not any(forced.get(j, 1) for j in plants):
        return  # rejected when the master is built (see the forcing tests)
    master = master_from_rows(inst, *rows, forced, enumeration_limit=0)
    got = solve_master(master)
    _same_answer(got, reference_branch_and_bound(master))
    groups = rows[0].shape[1]
    if len(plants) <= ENUMERATION_LIMIT and groups <= ENVELOPE_LIMIT >> len(plants):
        _same_answer(got, solve_master(master_from_rows(inst, *rows, forced)))


def test_frontier_search_above_62_plants():
    # 70 plants, most of them pinned: no 64-bit design code could hold a design
    rng = np.random.default_rng(62)
    for trial in range(6):
        integer = trial % 2 == 0
        fixed = rng.integers(0, 4, 70) if integer else rng.uniform(0, 50, 70)
        inst, plants = _plants_instance([float(v) for v in fixed])
        rows = _random_rows(rng, plants, int(rng.integers(1, 6)), int(rng.integers(1, 6)), integer)
        free = rng.choice(70, 10, replace=False)
        forced = {j: int(rng.integers(0, 2)) for p, j in enumerate(plants) if p not in free}
        master = master_from_rows(inst, *rows, forced, enumeration_limit=0)
        _same_answer(solve_master(master), reference_branch_and_bound(master))
    # every design ties: the first in lexicographic order differs from the
    # others only in plants 64 to 69
    inst, plants = _plants_instance([0.0] * 70)
    for forced, opened in (
        ({j: 0 for j in plants[:64]}, {"p69"}),
        ({"p00": 1, **{j: 0 for j in plants[1:64]}}, {"p00"}),
    ):
        master = Master(inst, 3, forced, enumeration_limit=0)
        design, value = solve_master(master)
        assert value == 0.0
        assert {j for j in plants if design.open[j]} == opened
        _same_answer((design, value), reference_branch_and_bound(master))


@pytest.mark.parametrize("limit", [FRONTIER_LIMIT, 1 << 12])
def test_all_ties_frontier_stays_within_its_chunks(monkeypatch, limit):
    # zero fixed costs and no cut: nothing is pruned, all 2^16 - 1 designs tie
    monkeypatch.setattr("strainchain.lshaped.FRONTIER_LIMIT", limit)
    inst, plants = _plants_instance([0.0] * 16)
    master = Master(inst, 10, enumeration_limit=0)
    assert (master.rows, master.groups) == (1, 10)
    tracemalloc.start()
    try:
        design, value = solve_master(master)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 0.0
    assert design.open == {j: int(j == "p15") for j in plants}
    # live at once: at most one pending chunk per depth, and the branching
    # in hand (its children, their bound work array and their copies into
    # chunks), each of at most 2 x chunk nodes; a node is G x rows = 10
    # floats of sums, 16 design bits and its fixed cost
    chunk = limit // (2 * 10)
    node_bytes = 10 * 8 + 16 + 8
    assert peak < (16 + 6) * chunk * node_bytes


def test_the_master_chooses_its_path_and_groups_once():
    def master(n_plants, n_scenarios):
        return Master(_plants_instance([1.0] * n_plants)[0], n_scenarios)

    assert master(16, 15).groups == 15
    assert master(17, 15).groups == 8
    assert master(20, 30).groups == 1
    assert master(5, 30).groups == 30
    assert master(20, 1).enumerates
    by_bnb = master(21, 10)
    assert not by_bnb.enumerates
    assert by_bnb.groups == 10  # branch and bound: one group per scenario
    for n in range(1, 21):
        assert master(n, 1000).envelope.size <= ENVELOPE_LIMIT


def _plants_instance(fixed):
    plants = tuple(f"p{n:02d}" for n in range(len(fixed)))
    return tiny_instance(countries=plants, fixed_cost=dict(zip(plants, fixed))), list(plants)


def _grow_and_compare(inst, plants, cuts, forced, exact_from=0):
    """Feed the cuts one at a time to a carried master on each path; after
    each (and before the first) its answer must equal, bit for bit, a
    master rebuilt from its rows, and match the former single-cut master,
    design and value alike.

    The former master sums fixed costs with a gemv, and with a single cut
    its cut product is one too; either may round a float sum differently
    from the plant-order accumulation. Values are compared exactly to the
    reference with plant-order fixed costs from `exact_from` cuts on (to
    1e-12 before that), and to the former master exactly on integer data
    (`exact_from` 0) and to 1e-12 otherwise.
    """
    for limit in (ENUMERATION_LIMIT, 0):
        master = Master(inst, 1, forced, limit)
        for k in range(len(cuts) + 1):
            if k:
                master.add_cuts([cuts[k - 1].constant], [[cuts[k - 1].coeff[j] for j in plants]])
            carried = solve_master(master)
            rebuilt = solve_master(master_from_cuts(inst, plants, cuts[:k], forced, limit))
            former = reference_master_by_enumeration(inst, plants, cuts[:k], forced)
            ref = reference_master_by_enumeration(
                inst, plants, cuts[:k], forced, plant_order_fixed=True
            )
            assert carried[0].open == rebuilt[0].open == ref[0].open == former[0].open
            assert carried[1] == rebuilt[1]
            if k >= exact_from:
                assert carried[1] == ref[1]
            else:
                assert carried[1] == pytest.approx(ref[1], rel=1e-12, abs=1e-12)
            if exact_from == 0:
                assert carried[1] == former[1]
            else:
                assert carried[1] == pytest.approx(former[1], rel=1e-12, abs=1e-12)
            assert master.folded == master.rows == k + 1


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
def test_a_carried_master_matches_one_rebuilt_from_its_rows(case):
    inst, plants, cuts, forced, integer = case
    if not any(forced.get(j, 1) for j in plants):
        with pytest.raises(ValidationError, match="close every plant"):
            Master(inst, 1, forced)
        return
    _grow_and_compare(inst, plants, cuts, forced, exact_from=0 if integer else 2)
    _assert_closing_every_plant_fails(inst, plants)


def _assert_closing_every_plant_fails(inst, plants):
    closed = {j: 0 for j in plants}
    for limit in (ENUMERATION_LIMIT, 0):
        with pytest.raises(ValidationError, match="close every plant"):
            Master(inst, 1, closed, limit)


def test_carried_envelope_across_two_enumeration_chunks():
    # 17 plants: the former master split the codes into chunks of 2^16,
    # codes 1..2^16 the first, every later code (plant p00 open with
    # others) the second
    fixed = [0.0] * 17
    inst, plants = _plants_instance(fixed)
    # value 0 at 2^16 (p00 alone, first chunk) and at 2^16 + 1 (p00 and
    # p16, second chunk): the tie must go to the first chunk's design
    tie = OptimalityCut(constant=5.0, coeff={j: -5.0 if j == "p00" else 0.0 for j in plants})
    design, value = solve_master(master_from_cuts(inst, plants, [tie]))
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
    _assert_closing_every_plant_fails(inst, plants)


@pytest.mark.parametrize("enumeration_limit", [ENUMERATION_LIMIT, 0])
def test_decomposition_master_matches_one_rebuilt_at_every_iteration(
    monkeypatch, enumeration_limit
):
    monkeypatch.setattr(
        "strainchain.lshaped.Master", functools.partial(Master, enumeration_limit=enumeration_limit)
    )
    calls = []

    def rebuilt_alongside(master):
        carried = solve_master(master)
        rebuilt = master_from_rows(
            inst, master.constants[1:], master.coefficients[1:], master.forced, enumeration_limit
        )
        assert master.enumerates == rebuilt.enumerates == (enumeration_limit > 0)
        assert solve_master(rebuilt) == carried
        calls.append(master.rows)
        return carried

    monkeypatch.setattr("strainchain.lshaped.solve_master", rebuilt_alongside)
    for trial in range(4):
        inst = small_random_instance(seed=780 + trial, n_countries=5)
        forced = {inst.interest_country: 1} if trial % 2 else None
        calls.clear()
        result = run_lshaped(inst, _scenario_pool(inst, (17, trial), 12), 1e-9, forced)
        assert result.iterations > 1
        # the last master solve re-proposes an evaluated design and ends the run
        assert calls == list(range(1, result.iterations + 2))


def _scenario_pool(inst, seed, n):
    return sample_batch(inst, seed, n, RiskOverrides(export_prob_scale=0.5, ban_threshold=0.95))


def test_deterministic_instance_matches_design_enumeration():
    inst = small_random_instance(seed=21, n_countries=4)
    scen = stack([plain_scenario(inst)])
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


@pytest.mark.parametrize("enumeration_limit", [ENUMERATION_LIMIT, 0])
def test_a_seeded_run_returns_the_enumeration_optimum(monkeypatch, enumeration_limit):
    monkeypatch.setattr(
        "strainchain.lshaped.Master", functools.partial(Master, enumeration_limit=enumeration_limit)
    )
    for trial in range(6):
        inst = small_random_instance(seed=780 + trial, n_countries=4)
        solver = RecourseSolver(inst)
        store = run_lshaped(inst, _scenario_pool(inst, (18, trial), 12), 1e-9, solver=solver).store
        scens = _scenario_pool(inst, (19, trial), 12)
        result = run_lshaped(inst, scens, epsilon=1e-9, solver=solver, seed_from=store)
        assert result.seeded_rows == len(store.designs) > 0
        best_val, best_design = enumeration_optimum(inst, scens, solver)
        assert result.objective == pytest.approx(best_val, rel=1e-6)
        assert result.design.open == best_design.open


def test_a_run_seeded_with_its_own_store_is_tight_at_every_stored_design():
    # each solve's dual is in the store, so on the same scenarios the best
    # stored cut at an evaluated design is that design's optimal cost
    inst = small_random_instance(seed=790, n_countries=5)
    scens = _scenario_pool(inst, (20, 0), 10)
    solver = RecourseSolver(inst)
    store = run_lshaped(inst, scens, epsilon=1e-9, solver=solver).store
    assert len(store.designs) > 1
    constants, coefficients = solver.seeded_cut_terms(
        solver.arrays(scens), store.duals, store.designs
    )
    for d, y in enumerate(store.designs):
        design = Design(open=dict(zip(inst.plant_candidates, y.astype(int).tolist())))
        for batch in solver.batches(design, scens):
            for row, objective in enumerate(batch.objective):
                s = batch.first + row
                value = constants[d, s] + coefficients[d, s] @ y
                assert value == pytest.approx(objective, rel=1e-6, abs=1e-7)


def _dual_value(duals, rc, b, upper):
    """The bounded LP's dual objective: y b minus each finite bound times
    the part of its reduced cost below zero."""
    finite = np.isfinite(upper)
    return float(duals @ b - np.maximum(0.0, -rc[finite]) @ upper[finite])


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
    pooled = reoptimized = 0
    for at, (args, start, solution, perturbed) in enumerate(lps):
        if at % n == 0:
            bases = []  # one pool per iteration, of unperturbed answers only
        A, b, c, upper, _ = args
        # x, the objective and the at-upper mask are the answer without a
        # perturbation through the iteration's pool, which an LP no pooled
        # basis answers pivots to on its own path
        unperturbed = solve_lp(*args, start, pool=bases)
        for name in ("x", "at_upper"):
            assert getattr(solution, name).tobytes() == getattr(unperturbed, name).tobytes()
        assert solution.objective == unperturbed.objective
        assert solution.iterations >= unperturbed.iterations
        cold = solve_lp(*args, start)
        if unperturbed.iterations:
            assert_same_lp_solution(unperturbed, cold)
        else:
            pooled += cold.iterations > 0
        # the duals are optimal at the candidate: dual feasible on every
        # unbounded column, and the dual value is the objective
        duals, rc = solution.row_duals, solution.reduced_costs
        assert np.array_equal(rc, c - duals @ A)
        assert rc[~np.isfinite(upper)].min() >= -1e-9 * np.abs(c).max()
        assert _dual_value(duals, rc, b, upper) == pytest.approx(solution.objective, rel=1e-9)
        # and, unless the unperturbed dual was kept, at the perturbed point too
        if not solution.kept_dual:
            reoptimized += 1
            # the start basis is feasible there: only plant capacities change
            b_mu, upper_mu = perturbed
            at_perturbed = solve_lp(A, b_mu, c, upper_mu, args[4], start)
            assert _dual_value(duals, rc, b_mu, upper_mu) == pytest.approx(
                at_perturbed.objective, rel=1e-9
            )
    assert pooled and reoptimized
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
        "strainchain.lshaped.Master", functools.partial(Master, enumeration_limit=0)
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
    no_cut_design, _ = solve_master(Master(inst, 1))
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
        run_lshaped(inst, _scenario_pool(inst, (14, 0), 3)[:0], epsilon=1e-5)
    with pytest.raises(ValidationError):
        run_lshaped(inst, _scenario_pool(inst, (14, 0), 3), epsilon=0.0)


def test_iteration_cap_carries_traces():
    inst = small_random_instance(seed=66, n_countries=5)
    scens = _scenario_pool(inst, (13, 0), 20)
    with pytest.raises(IterationLimitError) as err:
        run_lshaped(inst, scens, epsilon=1e-12, max_iterations=1)
    assert len(err.value.lb_trace) == 1
    assert len(err.value.ub_trace) == 1


def test_a_run_ends_when_the_master_re_proposes_a_design(monkeypatch):
    inst = small_random_instance(seed=44, n_countries=5)
    scens = _scenario_pool(inst, (11, 0), 25)
    lps = record_recourse_lps(monkeypatch)
    proposed = []

    def recorded(master):
        design, value = solve_master(master)
        proposed.append(design.key())
        return design, value

    monkeypatch.setattr("strainchain.lshaped.solve_master", recorded)
    result = run_lshaped(inst, scens, epsilon=1e-9)
    # every master solve but the last proposed a new design and solved the
    # N scenarios there; the last re-proposed one and solved nothing
    assert len(lps) == result.iterations * len(scens)
    assert len(proposed) == result.iterations + 1
    assert len(set(proposed)) == result.iterations and proposed[-1] in proposed[:-1]
    assert len(result.lb_trace) == len(result.ub_trace) == len(proposed)
    assert result.ub_trace[-1] == result.ub_trace[-2] == result.objective


def test_a_stall_raises_naming_it(monkeypatch):
    # every cut lowered by one unit stays valid but is tight nowhere, so the
    # master re-proposes an evaluated design before the gap closes
    inst = small_random_instance(seed=44, n_countries=5)
    scens = _scenario_pool(inst, (11, 0), 25)
    real = lshaped.cut_terms_from

    def lowered(batch):
        constants, coefficients = real(batch)
        return constants - 1.0, coefficients

    monkeypatch.setattr(lshaped, "cut_terms_from", lowered)
    with pytest.raises(IterationLimitError, match="re-proposed an evaluated design") as err:
        run_lshaped(inst, scens, epsilon=1e-9, max_iterations=500)
    assert len(err.value.lb_trace) < 500
    assert err.value.ub_trace[-1] - err.value.lb_trace[-1] > 1e-9 * err.value.ub_trace[-1]


def test_few_decomposition_lps_keep_the_unperturbed_dual():
    # the solve_bnb benchmark's instance and its two replications' samples
    inst = generate_synthetic_instance(3, 21, 21, seed=1)
    assert len(inst.plant_candidates) > ENUMERATION_LIMIT
    kept = lps = 0
    for m in range(2):
        scens = sample_batch(inst, (20240101, 0, ROLE_OPTIMIZE, m), 10)
        result = run_lshaped(inst, scens, epsilon=SaaConfig().inner_gap_tolerance)
        kept += result.kept_duals
        lps += result.iterations * len(scens)
    assert kept < 0.05 * lps, (kept, lps)
