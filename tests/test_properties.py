"""Hypothesis-driven properties of the scenario solve on random small instances.

Each example draws an instance of one to four countries (every country a
plant candidate, or only the first), a scenario that is either sampled or
pushed into a degenerate corner (all suppliers down, zero demand, every
country banning), and a design. The recourse objective must match the
HiGHS row formulation, and the optimality cut built from the solve must
underestimate the recourse value at all 2^J designs and touch it at the
design it came from. The all-closed design has no package solve (a design
must open a plant), so HiGHS prices it.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strainchain import Design, RecourseSolver, recourse_cut_terms

from helpers import (
    CORNERS,
    corner_scenario,
    design_from_code,
    raw_lp_objective,
    small_random_instance,
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
