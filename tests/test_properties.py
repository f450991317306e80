"""Hypothesis-driven properties on random small instances and master cuts.

Each scenario example draws an instance of one to four countries (every
country a plant candidate, or only the first), a scenario that is either
sampled or pushed into a degenerate corner (all suppliers down, zero
demand, every country banning), and a design. The recourse objective must
match the HiGHS row formulation, and the optimality cut built from the
solve must underestimate the recourse value at all 2^J designs and touch it
at the design it came from. The all-closed design has no package solve (a
design must open a plant), so HiGHS prices it. Each scenario LP must also
be byte-equal to the dense reference simplex, which refactorizes with
LAPACK, while calling no LAPACK inverse: the matrix is totally unimodular,
so the updated 0/+-1 basis inverse is exact. A batch of such scenarios
evaluated through one basis pool must answer each LP the pool answers with
the objective of a solve without a pool, within 1e-9 relative, and each LP
it solves cold byte-equal to one.
Solved through a pool with the decomposition's perturbation, such a batch
(one plant may have no capacity) must keep each unperturbed answer's flows
and objective to the bit, and each cut from the re-optimized duals must be
valid at every design, tight at its own and, at the core point, worth at
least the cut from the unperturbed duals.

The master examples draw random multi-group cut rows, or rows built from
real scenario solves: enumeration and branch and bound return the same
design and value bit for bit, a one-group master reproduces the former
single-cut master, per-group cuts never value a design below the averaged
cut, and forcing every plant closed fails on both paths when the master
is built.
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
from strainchain.lshaped import Master, solve_master
from strainchain.recourse import CORE_POINT, cut_terms_from
from strainchain.scenarios import RiskOverrides
from strainchain.simplex import solve_bounded_lp

from helpers import (
    CORNERS,
    OptimalityCut,
    assert_same_lp_solution,
    corner_scenario,
    count_calls,
    design_from_code,
    master_from_rows,
    master_values,
    raw_lp_objective,
    record_recourse_lps,
    recourse_cut_terms,
    reference_master_by_enumeration,
    reference_solve_bounded_lp,
    small_random_instance,
    solve_one,
    stack,
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
    mine = solve_one(RecourseSolver(inst), design, scen).objective
    assert mine == pytest.approx(raw_lp_objective(inst, design, scen), rel=1e-6, abs=1e-7)


@PROPERTY
@given(cases())
def test_scenario_lp_matches_the_refactorizing_reference_bit_for_bit_without_inv(case):
    inst, scen, design = case
    with pytest.MonkeyPatch.context() as patch:
        lps = record_recourse_lps(patch)
        inv_calls = count_calls(patch, np.linalg, "inv")
        solve_one(RecourseSolver(inst), design, scen)
    assert len(lps) == 1 and not inv_calls
    args, start, solution, _ = lps[0]
    assert_same_lp_solution(solution, reference_solve_bounded_lp(*args, basis_inverse=start))


@st.composite
def evaluation_batches(draw):
    inst, _, design = draw(cases())
    seed = draw(st.integers(0, 10_000))
    corners = draw(st.lists(st.sampled_from(CORNERS), min_size=2, max_size=8))
    return inst, stack([corner_scenario(inst, seed + w, c) for w, c in enumerate(corners)]), design


@PROPERTY
@given(evaluation_batches())
def test_pooled_evaluation_answers_match_solves_without_a_pool(batch):
    inst, scens, design = batch
    with pytest.MonkeyPatch.context() as patch:
        lps = record_recourse_lps(patch)
        evaluate_design(inst, design, scens, RecourseSolver(inst))
    assert len(lps) == len(scens)
    for args, start, solution, _ in lps:
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
    solution = solve_one(solver, source, scen)
    constant, coeff = recourse_cut_terms(inst, scen, solution)

    def cut(design):
        return constant + sum(coeff[j] * design.open[j] for j in inst.plant_candidates)

    assert cut(source) == pytest.approx(solution.objective, abs=CUT_TOL)
    for design in _all_designs(inst):
        if any(design.open.values()):
            value = solve_one(solver, design, scen).objective
        else:
            value = raw_lp_objective(inst, design, scen)
        assert cut(design) <= value + CUT_TOL, design.open


@st.composite
def pareto_batches(draw):
    """A design and a batch of scenarios; one plant may have no capacity."""
    inst, _, design = draw(cases())
    if draw(st.booleans()):
        empty = draw(st.sampled_from(inst.plant_candidates))
        inst = inst.perturbed(plant_capacity={**inst.plant_capacity, empty: 0.0})
    seed = draw(st.integers(0, 10_000))
    corners = draw(st.lists(st.sampled_from(CORNERS), min_size=1, max_size=6))
    return inst, [corner_scenario(inst, seed + w, c) for w, c in enumerate(corners)], design


@PROPERTY
@given(pareto_batches())
def test_pareto_cuts_are_valid_tight_and_dominant(batch):
    # the batch through one pool as a decomposition iteration solves it, and
    # through another as evaluation does; the flows agree to the bit, and the
    # re-optimized dual's cut is valid, tight and worth at least as much at
    # the core point
    inst, scens, source = batch
    solver = RecourseSolver(inst)
    bases, pareto_bases = [], []
    for scen in scens:
        sol = solve_one(solver, source, scen, bases)
        pareto = solve_one(solver, source, scen, pareto_bases, pareto=True)
        assert pareto.objective == sol.objective
        assert pareto.drug.tobytes() == sol.drug.tobytes()
        constant, coeff = recourse_cut_terms(inst, scen, pareto)
        base_constant, base_coeff = recourse_cut_terms(inst, scen, sol)

        def cut(design):
            return constant + sum(coeff[j] * design.open[j] for j in inst.plant_candidates)

        assert cut(source) == pytest.approx(sol.objective, abs=CUT_TOL)
        for design in _all_designs(inst):
            if any(design.open.values()):
                value = solve_one(solver, design, scen).objective
            else:
                value = raw_lp_objective(inst, design, scen)
            assert cut(design) <= value + CUT_TOL, design.open
        at_core = constant + CORE_POINT * sum(coeff.values())
        assert at_core >= base_constant + CORE_POINT * sum(base_coeff.values()) - CUT_TOL


# -- the master over multi-group cuts ----------------------------------------


@st.composite
def cut_rows(draw, max_plants=10):
    """(instance, plants, constants, coefficients, forced, integer): random
    cut rows of G groups and 0-3 forced plants; integer data makes exact
    ties between designs."""
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
    constants = number(*const_range, size=(rows, groups)).astype(float)
    coefficients = number(*coef_range, size=(rows, groups, n)).astype(float)
    pinned = draw(st.lists(st.sampled_from(plants), max_size=min(3, n), unique=True))
    forced = {j: draw(st.integers(0, 1)) for j in pinned}
    return inst, list(plants), constants, coefficients, forced, integer


def _master_or_error(inst, constants, coefficients, forced, **kwargs):
    try:
        master = master_from_rows(inst, constants, coefficients, forced, **kwargs)
        design, value = solve_master(master)
    except ValidationError as exc:
        return str(exc)
    return design.open, value


@PROPERTY
@given(cut_rows())
def test_enumeration_and_branch_and_bound_agree_exactly(case):
    inst, plants, constants, coefficients, forced, _ = case
    by_enumeration = _master_or_error(inst, constants, coefficients, forced)
    by_bnb = _master_or_error(inst, constants, coefficients, forced, enumeration_limit=0)
    assert by_bnb == by_enumeration
    if isinstance(by_enumeration, str):
        assert not any(forced.get(j, 1) for j in plants)
        return
    allowed = {
        bits: value
        for bits, value in master_values(
            inst, plants, master_from_rows(inst, constants, coefficients)
        ).items()
        if all(bits[plants.index(j)] == v for j, v in forced.items())
    }
    design, value = by_enumeration
    assert value == pytest.approx(min(allowed.values()), rel=1e-12, abs=1e-9)
    assert value == pytest.approx(allowed[tuple(design[j] for j in plants)], rel=1e-12, abs=1e-9)


@PROPERTY
@given(cut_rows())
def test_one_group_master_reproduces_the_former_single_cut_master(case):
    inst, plants, constants, coefficients, forced, integer = case
    constants, coefficients = constants[:, :1], coefficients[:, :1]
    cuts = [
        OptimalityCut(constant=float(c[0]), coeff=dict(zip(plants, a[0].tolist())))
        for c, a in zip(constants, coefficients)
    ]
    try:
        former = reference_master_by_enumeration(inst, plants, cuts, forced)
    except ValidationError:
        with pytest.raises(ValidationError, match="close every plant"):
            master_from_rows(inst, constants, coefficients, forced)
        return
    in_plant_order = reference_master_by_enumeration(
        inst, plants, cuts, forced, plant_order_fixed=True
    )
    design, value = solve_master(master_from_rows(inst, constants, coefficients, forced))
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


def _scenario_cut_masters(inst, scens, designs, groups):
    """One row per design: every scenario's cut terms there, summed into G
    groups and into one averaged cut, each divided by N in scenario order."""
    solver = RecourseSolver(inst)
    n_scen, n = len(scens), len(inst.plant_candidates)
    multi_c, multi_a = np.zeros((len(designs), groups)), np.zeros((len(designs), groups, n))
    avg_c, avg_a = np.zeros((len(designs), 1)), np.zeros((len(designs), 1, n))
    for k, design in enumerate(designs):
        for batch in solver.batches(design, scens):
            for row, (const, coeff) in enumerate(zip(*cut_terms_from(batch))):
                s = batch.first + row
                multi_c[k, s * groups // n_scen] += const / n_scen
                multi_a[k, s * groups // n_scen] += coeff / n_scen
                avg_c[k, 0] += const / n_scen
                avg_a[k, 0] += coeff / n_scen
    return master_from_rows(inst, multi_c, multi_a), master_from_rows(inst, avg_c, avg_a)


@PROPERTY
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 6), st.data())
def test_group_cuts_never_value_a_design_below_the_averaged_cut(seed, n_countries, n_scen, data):
    inst = small_random_instance(seed, n_countries)
    plants = list(inst.plant_candidates)
    groups = data.draw(st.integers(1, n_scen))
    scens = sample_batch(inst, (seed, 1), n_scen, RiskOverrides(export_prob_scale=0.5))
    codes = data.draw(st.lists(st.integers(0, 1 << 8), min_size=1, max_size=3))
    multi, averaged = _scenario_cut_masters(
        inst, scens, [design_from_code(inst, code) for code in codes], groups
    )
    # a row's group cuts sum to the averaged cut up to rounding
    summed_constants = multi.constants.sum(axis=1, keepdims=True)
    summed_coefficients = multi.coefficients.sum(axis=1, keepdims=True)
    assert np.allclose(summed_constants, averaged.constants, rtol=1e-12, atol=1e-9)
    assert np.allclose(summed_coefficients, averaged.coefficients, rtol=1e-12, atol=1e-9)

    solver = RecourseSolver(inst)
    fixed = np.array([inst.fixed_cost[j] for j in plants])
    averaged_values = master_values(inst, plants, averaged)
    for bits, value in master_values(inst, plants, multi).items():
        assert value >= averaged_values[bits] - 1e-9 * max(1.0, abs(value))
        design = Design(open=dict(zip(plants, bits)))
        recourse = [solve_one(solver, design, scen).objective for scen in scens]
        sampled = float(fixed @ np.array(bits)) + sum(recourse) / n_scen
        assert value <= sampled + CUT_TOL * max(1.0, sampled)  # still a lower bound
    assert solve_master(multi)[1] >= solve_master(averaged)[1] - 1e-9


@PROPERTY
@given(cut_rows(max_plants=6), st.integers(0, 10_000))
def test_forcing_every_plant_closed_fails_on_both_paths(case, seed):
    inst, plants, _, _, _, _ = case
    closed = {j: 0 for j in plants}
    for limit in (len(plants), 0):
        with pytest.raises(ValidationError, match="close every plant"):
            Master(inst, 1, closed, limit)
    config = SaaConfig(
        replications=2, optimization_scenarios=2, evaluation_scenarios=2, max_passes=1,
        base_seed=seed, forced_open=closed,
    )
    with pytest.raises(ValidationError, match="close every plant"):
        run_saa(inst, config)
