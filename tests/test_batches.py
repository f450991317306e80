"""Scenario batches: the batched sums against the per-scenario loops, the
count identities the traced benchmark checks, and failures that name their
scenario."""

from collections import Counter

import numpy as np
import pytest

from strainchain import (
    RecourseSolver,
    RiskOverrides,
    SaaConfig,
    evaluate_design,
    run_lshaped,
    run_saa,
    sample_batch,
)
from strainchain import lshaped, recourse, saa
from strainchain.lshaped import IterationLimitError
from strainchain.recourse import RecourseError

from helpers import (
    design_from_code,
    reference_evaluate_design,
    reference_run_lshaped,
    small_random_instance,
)

BAN_HEAVY = RiskOverrides(export_prob_scale=0.5, ban_threshold=0.95)


def _chunk_rows(monkeypatch, inst, rows):
    """Batches of `rows` rows on this instance (None keeps BATCH_LIMIT)."""
    if rows is not None:
        monkeypatch.setattr(recourse, "BATCH_LIMIT", rows * RecourseSolver(inst).n)


@pytest.mark.parametrize("rows", [1, 7, None])
@pytest.mark.parametrize("n_eval", [1, 10, 14])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_evaluation_equals_the_per_scenario_loop(monkeypatch, seed, n_eval, rows):
    inst = small_random_instance(seed=900 + seed, n_countries=4)
    scens = sample_batch(inst, (31, seed), n_eval, BAN_HEAVY)
    design = design_from_code(inst, 5 + seed)
    expected = reference_evaluate_design(inst, design, scens, RecourseSolver(inst))
    _chunk_rows(monkeypatch, inst, rows)
    got = evaluate_design(inst, design, scens, RecourseSolver(inst))
    assert got == expected
    assert repr(got) == repr(expected)  # the sign of a zero counts too


@pytest.mark.parametrize("rows", [1, 7, None])
@pytest.mark.parametrize("n_scen, groups", [(1, 1), (10, 1), (10, 3), (14, 4), (14, 14)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_decomposition_equals_the_per_scenario_loop(monkeypatch, seed, n_scen, groups,
                                                            rows):
    inst = small_random_instance(seed=910 + seed, n_countries=4)
    scens = sample_batch(inst, (32, seed), n_scen, BAN_HEAVY)
    # G = min(N, ENVELOPE_LIMIT >> plants) groups, so some span two batches
    monkeypatch.setattr(lshaped, "ENVELOPE_LIMIT", groups << len(inst.plant_candidates))
    expected, reference_master = reference_run_lshaped(inst, scens, 1e-9, RecourseSolver(inst))
    masters = []

    class Recorded(lshaped.Master):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            masters.append(self)

    monkeypatch.setattr(lshaped, "Master", Recorded)
    _chunk_rows(monkeypatch, inst, rows)
    try:
        got = run_lshaped(inst, scens, epsilon=1e-9, solver=RecourseSolver(inst))
    except IterationLimitError:
        got = None
    assert (got is None) == (expected is None)
    if got is not None:
        assert got == expected
        assert repr(got) == repr(expected)
    (master,) = masters
    assert master.groups == groups
    assert np.array_equal(master.constants, reference_master.constants)
    assert np.array_equal(master.coefficients, reference_master.coefficients)


def _trace(monkeypatch):
    """Record what perfbench's traced run records: the innermost traced call
    around every simplex call and solve, and the calls of each cut-term
    binding. Returns (events, counts of cut-term calls by binding)."""
    stack, events, cut_terms = [], [], Counter()

    def traced(name, fn, on_exit=None):
        def run(*args, **kwargs):
            events.append((name, stack[-1] if stack else None))
            stack.append(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        return run

    def note_run(args, kwargs, result):
        events.append(("iterations", result.iterations * len(args[1])))

    def note_evaluation(args, kwargs, result):
        events.append(("evaluated", len(args[2])))

    monkeypatch.setattr(recourse, "solve_bounded_lp", traced("simplex", recourse.solve_bounded_lp))
    monkeypatch.setattr(RecourseSolver, "solve", traced("solve", RecourseSolver.solve))
    monkeypatch.setattr(saa, "run_lshaped", traced("run_lshaped", saa.run_lshaped, note_run))
    monkeypatch.setattr(
        saa, "evaluate_design", traced("evaluate_design", saa.evaluate_design, note_evaluation)
    )
    for module in (recourse, lshaped):
        real = module.cut_terms_from

        def counted(batch, real=real, site=module.__name__):
            cut_terms[site] += 1
            return real(batch)

        monkeypatch.setattr(module, "cut_terms_from", counted)
    return events, cut_terms


@pytest.mark.parametrize("rows", [3, None])
def test_solves_keep_the_traced_benchmark_identities(monkeypatch, rows):
    inst = small_random_instance(seed=77, n_countries=4)
    _chunk_rows(monkeypatch, inst, rows)
    events, cut_terms = _trace(monkeypatch)
    config = SaaConfig(
        replications=3, optimization_scenarios=8, evaluation_scenarios=20, max_passes=1,
        optimize_overrides=BAN_HEAVY, evaluate_overrides=BAN_HEAVY,
    )
    run_saa(inst, config)
    simplex = [parent for name, parent in events if name == "simplex"]
    solves = [parent for name, parent in events if name == "solve"]
    assert len(simplex) == len(solves) > 0
    assert set(simplex) == {"solve"}
    assert set(solves) == {"run_lshaped", "evaluate_design"}
    assert solves.count("run_lshaped") == sum(v for name, v in events if name == "iterations")
    assert solves.count("evaluate_design") == sum(v for name, v in events if name == "evaluated")
    assert cut_terms["strainchain.recourse"] > 0 and cut_terms["strainchain.lshaped"] > 0


def _corrupt_lp(monkeypatch, at, corrupt):
    """Apply `corrupt(solution)` to the answer of the at-th simplex call."""
    calls = []
    real = recourse.solve_bounded_lp

    def simplex(*args, **kwargs):
        solution = real(*args, **kwargs)
        if len(calls) == at:
            corrupt(solution)
        calls.append(None)
        return solution

    monkeypatch.setattr(recourse, "solve_bounded_lp", simplex)


def _shift(column, amount):
    def corrupt(solution):
        solution.x = solution.x.copy()
        solution.x[column] += amount

    return corrupt


def _shift_objective(solution):
    solution.objective += 1.0


@pytest.mark.parametrize("rows", [2, None])
@pytest.mark.parametrize(
    "check, corrupt",
    [
        ("flow balance", lambda s: _shift(s.oU, 1.0)),
        ("demand balance", lambda s: _shift(s.oS1, 1.0)),
        ("duality violation", lambda s: _shift_objective),
    ],
)
def test_a_failed_check_names_its_scenario(monkeypatch, rows, check, corrupt):
    inst = small_random_instance(seed=78, n_countries=4)
    scens = sample_batch(inst, (33, 0), 5, BAN_HEAVY)
    solver = RecourseSolver(inst)
    design = design_from_code(inst, 3)
    _chunk_rows(monkeypatch, inst, rows)
    _corrupt_lp(monkeypatch, 2, corrupt(solver))
    with pytest.raises(RecourseError, match=f"^scenario 2: {check}"):
        evaluate_design(inst, design, scens, solver)
