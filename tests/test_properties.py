"""Hypothesis-driven properties on random small instances and cut pools.

Each scenario example draws an instance of one to four countries (every
country a plant candidate, or only the first), a scenario that is either
sampled or pushed into a degenerate corner (all suppliers down, zero
demand, every country banning), and a design. The recourse objective must
match the HiGHS row formulation, and the optimality cut built from the
solve must underestimate the recourse value at all 2^J designs and touch it
at the design it came from. The all-closed design has no package solve (a
design must open a plant), so HiGHS prices it. Each scenario LP must also
be byte-equal to the dense, refactorizing reference simplex while calling
no LAPACK inverse: on these 0/+-1 problems the updated basis inverse is
exact. A batch of such scenarios evaluated through one basis pool must
answer each LP the pool answers with the objective of a solve without a
pool, within 1e-9 relative, and each LP it solves cold byte-equal to one.

The master examples draw random multi-group cut pools, or pools built from
real scenario solves: enumeration and branch and bound return the same
design and value bit for bit, a one-group pool reproduces the former
single-cut master, per-group cuts never value a design below the averaged
cut, and forcing every plant closed fails on both paths.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strainchain import (
    Design,
    RecourseSolver,
    SaaConfig,
    ValidationError,
    evaluate_design,
    run_saa,
    sample_batch,
)
from strainchain.lshaped import MasterState, solve_master
from strainchain.recourse import cut_terms_from
from strainchain.scenarios import RiskOverrides
from strainchain.simplex import solve_bounded_lp

from helpers import (
    CORNERS,
    OptimalityCut,
    aggregated_pool,
    assert_same_lp_solution,
    count_calls,
    corner_scenario,
    design_from_code,
    master_values,
    pool_from_rows,
    raw_lp_objective,
    record_recourse_lps,
    recourse_cut_terms,
    reference_master_by_enumeration,
    reference_solve_bounded_lp,
    small_random_instance,
    tiny_instance,
    with_plants,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
CUT_TOL = 1e-7  # absolute, as in acceptance criterion 3


@st.composite
def cases(draw):
    n_countries = draw(st.integers(1, 4))
    inst = small_random_instance(
        draw(st.integers(0, 10_000)), n_countries, with_allies=draw(st.booleans())
    )
    if draw(st.booleans()):
        inst = with_plants(inst, inst.plant_candidates[:1])
    scen = corner_scenario(inst, draw(st.integers(0, 10_000)), draw(st.sampled_from(CORNERS)))
    return inst, scen, design_from_code(inst, draw(st.integers(0, 1 << 8)))


def _all_designs(inst):
    plants = inst.plant_candidates
    for bits in itertools.product((0, 1), repeat=len(plants)):
        yield Design(open=dict(zip(plants, bits)))


@PROPERTY
@given(cases())
def test_recourse_objective_matches_the_highs_row_formulation(case):
    inst, scen, design = case
    mine = RecourseSolver(inst).solve(design, scen).objective
    assert mine == pytest.approx(raw_lp_objective(inst, design, scen), rel=1e-6, abs=1e-7)


@PROPERTY
@given(cases())
def test_scenario_lp_matches_the_refactorizing_reference_bit_for_bit_without_inv(case):
    inst, scen, design = case
    with pytest.MonkeyPatch.context() as patch:
        lps = record_recourse_lps(patch)
        inv_calls = count_calls(patch, np.linalg, "inv")
        RecourseSolver(inst).solve(design, scen)
    assert len(lps) == 1 and not inv_calls
    args, start, solution = lps[0]
    assert_same_lp_solution(solution, reference_solve_bounded_lp(*args, basis_inverse=start))


@st.composite
def evaluation_batches(draw):
    inst, _, design = draw(cases())
    seed = draw(st.integers(0, 10_000))
    corners = draw(st.lists(st.sampled_from(CORNERS), min_size=2, max_size=8))
    return inst, [corner_scenario(inst, seed + w, c) for w, c in enumerate(corners)], design


@PROPERTY
@given(evaluation_batches())
def test_pooled_evaluation_answers_match_solves_without_a_pool(batch):
    inst, scens, design = batch
    with pytest.MonkeyPatch.context() as patch:
        lps = record_recourse_lps(patch)
        evaluate_design(inst, design, scens, RecourseSolver(inst))
    assert len(lps) == len(scens)
    for args, start, solution in lps:
        cold = solve_bounded_lp(*args, basis_inverse=start)
        if solution.iterations == 0:  # answered by a pooled basis
            assert solution.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
        else:
            assert_same_lp_solution(solution, cold)


@PROPERTY
@given(cases())
def test_cut_is_valid_at_every_design_and_tight_at_its_source(case):
    inst, scen, source = case
    solver = RecourseSolver(inst)
    solution = solver.solve(source, scen)
    constant, coeff = recourse_cut_terms(inst, scen, solution)

    def cut(design):
        return constant + sum(coeff[j] * design.open[j] for j in inst.plant_candidates)

    assert cut(source) == pytest.approx(solution.objective, abs=CUT_TOL)
    for design in _all_designs(inst):
        if any(design.open.values()):
            value = solver.solve(design, scen).objective
        else:
            value = raw_lp_objective(inst, design, scen)
        assert cut(design) <= value + CUT_TOL, design.open


# -- the master over multi-group cut pools -----------------------------------


@st.composite
def pools(draw, max_plants=10):
    """(instance, plants, pool, forced, integer): a random pool of G groups
    and 0-3 forced plants; integer data makes exact ties between designs."""
    n = draw(st.integers(1, max_plants))
    integer = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 12))
    number = rng.integers if integer else rng.uniform
    plants = tuple(f"p{p:02d}" for p in range(n))
    fixed = number(0, 4 if integer else 50, size=n).astype(float)
    inst = tiny_instance(countries=plants, fixed_cost=dict(zip(plants, fixed.tolist())))
    const_range, coef_range = ((0, 20), (-6, 3)) if integer else ((0, 300), (-120, 20))
    pool = pool_from_rows(
        number(*const_range, size=(rows, groups)).astype(float),
        number(*coef_range, size=(rows, groups, n)).astype(float),
    )
    pinned = draw(st.lists(st.sampled_from(plants), max_size=min(3, n), unique=True))
    forced = {j: draw(st.integers(0, 1)) for j in pinned}
    return inst, list(plants), pool, forced, integer


def _master_or_error(inst, pool, forced, **kwargs):
    try:
        design, value = solve_master(inst, pool, forced, **kwargs)
    except ValidationError as exc:
        return str(exc)
    return design.open, value


@PROPERTY
@given(pools())
def test_enumeration_and_branch_and_bound_agree_exactly(case):
    inst, plants, pool, forced, _ = case
    by_enumeration = _master_or_error(inst, pool, forced)
    assert _master_or_error(inst, pool, forced, enumeration_limit=0) == by_enumeration
    if isinstance(by_enumeration, str):
        assert not any(forced.get(j, 1) for j in plants)
        return
    allowed = {
        bits: value
        for bits, value in master_values(inst, plants, pool).items()
        if all(bits[plants.index(j)] == v for j, v in forced.items())
    }
    design, value = by_enumeration
    assert value == pytest.approx(min(allowed.values()), rel=1e-12, abs=1e-9)
    assert value == pytest.approx(allowed[tuple(design[j] for j in plants)], rel=1e-12, abs=1e-9)


@PROPERTY
@given(pools())
def test_one_group_pool_reproduces_the_former_single_cut_master(case):
    inst, plants, pool, forced, integer = case
    pool = pool_from_rows(pool.constants[1:, :1], pool.coefficients[1:, :1])
    cuts = [
        OptimalityCut(constant=float(c[0]), coeff=dict(zip(plants, a[0].tolist())))
        for c, a in zip(pool.constants[1:], pool.coefficients[1:])
    ]
    try:
        former = reference_master_by_enumeration(inst, plants, cuts, forced)
    except ValidationError:
        with pytest.raises(ValidationError, match="close every plant"):
            solve_master(inst, pool, forced)
        return
    in_plant_order = reference_master_by_enumeration(
        inst, plants, cuts, forced, plant_order_fixed=True
    )
    design, value = solve_master(inst, pool, forced)
    assert design.open == former[0].open == in_plant_order[0].open
    if integer:
        assert value == former[1] == in_plant_order[1]
        return
    # the former master sums fixed costs with a matrix-vector product, and a
    # single cut's values too; neither accumulates in plant order
    assert value == pytest.approx(former[1], rel=1e-12, abs=1e-12)
    if len(cuts) != 1:
        assert value == in_plant_order[1]
    else:
        assert value == pytest.approx(in_plant_order[1], rel=1e-12, abs=1e-12)


def _scenario_cut_pools(inst, scens, designs, groups):
    """One row per design: every scenario's cut terms there, summed into G
    groups and into one averaged cut, each divided by N in scenario order."""
    solver = RecourseSolver(inst)
    n_scen, n = len(scens), len(inst.plant_candidates)
    multi_c, multi_a = np.zeros((len(designs), groups)), np.zeros((len(designs), groups, n))
    avg_c, avg_a = np.zeros((len(designs), 1)), np.zeros((len(designs), 1, n))
    for k, design in enumerate(designs):
        for s, scen in enumerate(scens):
            const, coeff = cut_terms_from(scen, solver.solve(design, scen))
            multi_c[k, s * groups // n_scen] += const / n_scen
            multi_a[k, s * groups // n_scen] += coeff / n_scen
            avg_c[k, 0] += const / n_scen
            avg_a[k, 0] += coeff / n_scen
    return pool_from_rows(multi_c, multi_a), pool_from_rows(avg_c, avg_a)


@PROPERTY
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 6), st.data())
def test_group_cuts_never_value_a_design_below_the_averaged_cut(seed, n_countries, n_scen, data):
    inst = small_random_instance(seed, n_countries)
    plants = list(inst.plant_candidates)
    groups = data.draw(st.integers(1, n_scen))
    scens = sample_batch(inst, (seed, 1), n_scen, RiskOverrides(export_prob_scale=0.5))
    codes = data.draw(st.lists(st.integers(0, 1 << 8), min_size=1, max_size=3))
    multi, averaged = _scenario_cut_pools(
        inst, scens, [design_from_code(inst, code) for code in codes], groups
    )
    # a row's group cuts sum to the averaged cut up to rounding
    summed = aggregated_pool(multi)
    assert np.allclose(summed.constants, averaged.constants, rtol=1e-12, atol=1e-9)
    assert np.allclose(summed.coefficients, averaged.coefficients, rtol=1e-12, atol=1e-9)

    solver = RecourseSolver(inst)
    fixed = np.array([inst.fixed_cost[j] for j in plants])
    averaged_values = master_values(inst, plants, averaged)
    for bits, value in master_values(inst, plants, multi).items():
        assert value >= averaged_values[bits] - 1e-9 * max(1.0, abs(value))
        design = Design(open=dict(zip(plants, bits)))
        recourse = [solver.solve(design, scen).objective for scen in scens]
        sampled = float(fixed @ np.array(bits)) + sum(recourse) / n_scen
        assert value <= sampled + CUT_TOL * max(1.0, sampled)  # still a lower bound
    assert solve_master(inst, multi)[1] >= solve_master(inst, averaged)[1] - 1e-9


@PROPERTY
@given(pools(max_plants=6), st.integers(0, 10_000))
def test_forcing_every_plant_closed_fails_on_both_paths(case, seed):
    inst, plants, pool, _, _ = case
    closed = {j: 0 for j in plants}
    for limit in (len(plants), 0):
        with pytest.raises(ValidationError, match="close every plant"):
            solve_master(inst, pool, closed, enumeration_limit=limit, state=MasterState())
    config = SaaConfig(
        replications=2, optimization_scenarios=2, evaluation_scenarios=2, max_passes=1,
        base_seed=seed, forced_open=closed,
    )
    with pytest.raises(ValidationError, match="close every plant"):
        run_saa(inst, config)
