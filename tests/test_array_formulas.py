"""The array formulas of the scenario hot path against their dict references.

Every comparison is exact (`==`): the array forms add the same terms in the
same order as the dict loops, which is what keeps report bytes stable.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from strainchain import RecourseSolver, evaluate_design, sample_batch
from strainchain.recourse import cut_terms_from
from strainchain.scenarios import retained_by_country, retained_exports

from helpers import (
    CORNERS,
    corner_scenario,
    country_retained,
    design_from_code,
    reference_cut_terms,
    reference_evaluation,
    scenario_maps,
    small_random_instance,
    solve_one,
    stack,
    tiny_instance,
)

EXACT = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _random_duals(sol, seed):
    """The solve's multipliers replaced by random ones, nonzero on every arc.

    An optimal solve leaves most multipliers at zero, and zeros add in any
    order; random values make the term order of each sum observable.
    """
    rng = np.random.default_rng(seed)
    s, batch = sol.solver, sol.batch

    def draw(size, sign=-1.0):
        return sign * rng.uniform(0.1, 10.0, (1, size))

    batch.pi_supplier = draw(s.nI)
    batch.pi_supply_gate = np.where(s.u_cross, draw(len(s.u_arcs)), 0.0)
    batch.pi_plant = draw(s.nJ)
    batch.pi_distribution_gate = np.where(s.v_cross, draw(len(s.v_arcs)), 0.0)
    batch.pi_demand = draw(s.nK, rng.choice([-1.0, 1.0]))
    batch.pi_aux = draw(s.nK, 1.0)
    return batch.solution(0)


def _assert_cut_terms_match(inst, scen, sol):
    constants, coefficients = cut_terms_from(sol.batch)
    ref_constant, ref_coeff = reference_cut_terms(inst, scen, sol)
    assert constants[sol.row] == ref_constant
    assert coefficients[sol.row].tolist() == [ref_coeff[j] for j in inst.plant_candidates]


@EXACT
@given(
    inst_seed=st.integers(0, 10_000),
    n_countries=st.integers(2, 5),
    with_allies=st.booleans(),
    design_code=st.integers(0, 1 << 10),
    scen_seed=st.integers(0, 10_000),
    corner=st.sampled_from(CORNERS),
)
def test_cut_terms_equal_the_dict_reference(
    inst_seed, n_countries, with_allies, design_code, scen_seed, corner
):
    inst = small_random_instance(inst_seed, n_countries, with_allies)
    scen = corner_scenario(inst, scen_seed, corner)
    sol = solve_one(RecourseSolver(inst), design_from_code(inst, design_code), scen)
    _assert_cut_terms_match(inst, scen, sol)


@EXACT
@given(
    inst_seed=st.integers(0, 10_000),
    n_countries=st.integers(4, 8),
    with_allies=st.booleans(),
    design_code=st.integers(0, 1 << 10),
    scen_seed=st.integers(0, 10_000),
)
def test_cut_terms_add_in_the_reference_order(
    inst_seed, n_countries, with_allies, design_code, scen_seed
):
    inst = small_random_instance(inst_seed, n_countries, with_allies)
    scen = sample_batch(inst, (scen_seed,), 1)[0]
    sol = solve_one(RecourseSolver(inst), design_from_code(inst, design_code), scen)
    _assert_cut_terms_match(inst, scen, _random_duals(sol, scen_seed))


@EXACT
@given(
    inst_seed=st.integers(0, 10_000),
    n_countries=st.integers(2, 5),
    scen_seed=st.integers(0, 10_000),
    corner=st.sampled_from(CORNERS),
)
def test_retained_exports_equal_the_dict_reference(inst_seed, n_countries, scen_seed, corner):
    inst = small_random_instance(inst_seed, n_countries)
    scen = corner_scenario(inst, scen_seed, corner)
    maps = scenario_maps(inst, scen)
    g, ga = maps.ban_general, maps.ban_ally
    kept = retained_by_country(inst, scen.flags)
    assert (kept[:, 0] + kept[:, 1]).tolist() == [
        country_retained(inst, k, g, ga) for k in inst.countries
    ]
    total = 0.0
    ally_group = set(inst.ally_group)
    for k in inst.countries:
        total += inst.exports_general[k] * (1 - g[k])
        total += inst.exports_to_c1[k] * (1 - (ga[k] if k in ally_group else g[k]))
    assert retained_exports(inst, scen.flags) == total


@settings(EXACT, max_examples=20)
@given(
    inst_seed=st.integers(0, 10_000),
    n_countries=st.integers(2, 5),
    design_code=st.integers(0, 1 << 10),
    scen_seed=st.integers(0, 10_000),
    corners=st.lists(st.sampled_from(CORNERS), min_size=1, max_size=6),
)
def test_evaluation_equals_the_dict_loop(inst_seed, n_countries, design_code, scen_seed, corners):
    inst = small_random_instance(inst_seed, n_countries)
    scenarios = stack([corner_scenario(inst, scen_seed + w, c) for w, c in enumerate(corners)])
    design = design_from_code(inst, design_code)
    solver = RecourseSolver(inst)
    expected = reference_evaluation(inst, design, scenarios, solver)
    assert evaluate_design(inst, design, scenarios, solver) == expected


@st.composite
def plant_layouts(draw):
    n = draw(st.integers(1, 6))
    countries = [f"k{c}" for c in range(n)]
    subset = st.lists(st.sampled_from(countries), min_size=1, unique=True)
    inst = tiny_instance(countries=countries, suppliers=draw(subset), plants=draw(subset))
    signs = draw(st.lists(st.sampled_from((-1.0, 0.0, 1.0)), min_size=n, max_size=n))
    return inst, np.array(signs)


@EXACT
@given(plant_layouts())
def test_closed_form_start_inverse_equals_linalg_inv(layout):
    inst, rhs_dem = layout
    solver = RecourseSolver(inst)
    basis, inverse = solver.start_basis(rhs_dem)
    assert np.array_equal(inverse, np.linalg.inv(solver.A[:, basis]))
    # countries short of demand start on S2, those with surplus on E
    dem_cols = basis[solver.rDem : solver.rDem + solver.nK]
    on_excess = dem_cols >= solver.oE
    assert on_excess.tolist() == (rhs_dem < 0).tolist()
