"""Acceptance suite: one test per exit criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import json
import time

import numpy as np
import pytest

from strainchain import (
    Design,
    RecourseSolver,
    RiskOverrides,
    SaaConfig,
    check_structural_theorems,
    confidence_bounds,
    critical_values,
    generate_synthetic_instance,
    retained_exports,
    run_backshoring,
    run_lshaped,
    run_pricing,
    run_saa,
    run_sensitivity,
    sample_batch,
    write_instance,
)
from strainchain.cli import cli_main

from helpers import (
    enumerate_designs,
    enumeration_optimum,
    plain_scenario,
    recourse_cut_terms,
    reference_flags,
    small_random_instance,
    solve_one,
    tiny_instance,
)


def _ok(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


# -- 1: decomposition exactness ------------------------------------------------


def test_criterion_1_lshaped_matches_exhaustive_enumeration():
    start = time.monotonic()
    sizes = [(2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 3, 6), (1, 2, 4)]
    checked = 0
    for trial in range(30):
        n_i, n_j, n_k = sizes[trial % len(sizes)]
        inst = generate_synthetic_instance(n_i, n_j, n_k, seed=9000 + trial)
        scens = sample_batch(
            inst,
            (40, trial),
            20,
            RiskOverrides(export_prob_scale=0.6, ban_threshold=0.95),
        )
        solver = RecourseSolver(inst)
        result = run_lshaped(inst, scens, epsilon=1e-9, solver=solver)
        best_val, best_design = enumeration_optimum(inst, scens, solver)
        assert result.objective == pytest.approx(best_val, rel=1e-6)
        assert result.design.open == best_design.open
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _ok(1, f"{checked} seeded instances match enumeration exactly in {elapsed:.1f}s")


# -- 2: recourse duality -------------------------------------------------------


def test_criterion_2_duality_on_500_solves_with_complete_recourse():
    rng = np.random.default_rng(2024)
    solves = 0
    while solves < 500:
        inst = small_random_instance(seed=int(rng.integers(1_000_000)), n_countries=5)
        solver = RecourseSolver(inst)
        scens = sample_batch(
            inst,
            (41, solves),
            5,
            RiskOverrides(export_prob_scale=0.5, ban_threshold=1.0),
        )
        plants = list(inst.plant_candidates)
        for scen in scens:
            bits = rng.integers(0, 2, len(plants))
            if bits.sum() == 0:
                bits[int(rng.integers(len(plants)))] = 1
            design = Design(open={j: int(b) for j, b in zip(plants, bits)})
            sol = solve_one(solver, design, scen)  # raises on any duality failure
            const, coeff = recourse_cut_terms(inst, scen, sol)
            dual_value = const + sum(coeff[j] * design.open[j] for j in plants)
            assert dual_value == pytest.approx(
                sol.objective, rel=1e-6, abs=1e-6
            ), "primal/dual mismatch"
            solves += 1
            if solves >= 500:
                break
    _ok(2, "500 random solves: primal equals dual to 1e-6, zero infeasibility reports")


# -- 3: cut validity -----------------------------------------------------------


def test_criterion_3_cuts_are_valid_and_tight_to_1e7_absolute():
    scenarios_checked = 0
    for trial in range(10):
        inst = small_random_instance(seed=7000 + trial, n_countries=4)
        solver = RecourseSolver(inst)
        designs = list(enumerate_designs(inst))
        assert len(designs) == 15  # |J| = 4
        for scen in sample_batch(
            inst, (42, trial), 5, RiskOverrides(export_prob_scale=0.45, ban_threshold=1.0)
        ):
            sols = {d.key(): solve_one(solver, d, scen) for d in designs}
            for src in designs:
                const, coeff = recourse_cut_terms(inst, scen, sols[src.key()])
                for tgt in designs:
                    value = const + sum(coeff[j] * tgt.open[j] for j in coeff)
                    assert value <= sols[tgt.key()].objective + 1e-7
                own = const + sum(coeff[j] * src.open[j] for j in coeff)
                assert own == pytest.approx(sols[src.key()].objective, abs=1e-7)
            scenarios_checked += 1
    assert scenarios_checked == 50
    _ok(3, "50 scenarios x 15 designs: every cut valid and tight within 1e-7")


# -- 4: structural theorem suites ---------------------------------------------


def _all_case_rows():
    rows = {("ally_plant", kc, ic) for kc in ("c1", "self", "other") for ic in ("c1", "self", "other")}
    rows |= {("c1_plant", kc, ic) for kc in ("c1", "ally", "nonally") for ic in ("c1", "ally", "nonally")}
    rows |= {("nonally_plant", kc, ic) for kc in ("self", "other") for ic in ("self", "other")}
    return rows


def _classify_rows(inst, sol, tol=1e-7):
    c1 = inst.interest_country
    allies = set(inst.allies)
    rows = set()
    u_arcs = sol.solver.u_arcs
    for (j, k), v in zip(sol.solver.v_arcs, sol.drug.tolist()):
        if v <= tol:
            continue
        for i in inst.suppliers:
            if sol.raw[u_arcs.index((i, j))] <= tol:
                continue
            if j in allies:
                rows.add((
                    "ally_plant",
                    "c1" if k == c1 else ("self" if k == j else "other"),
                    "c1" if i == c1 else ("self" if i == j else "other"),
                ))
            elif j == c1:
                rows.add((
                    "c1_plant",
                    "c1" if k == c1 else ("ally" if k in allies else "nonally"),
                    "c1" if i == c1 else ("ally" if i in allies else "nonally"),
                ))
            else:
                rows.add((
                    "nonally_plant",
                    "self" if k == j else "other",
                    "self" if i == j else "other",
                ))
    return rows


def test_criterion_4_theorem_sweep_covers_every_case_row():
    rng = np.random.default_rng(0)
    seen = set()
    count = 0
    for trial in range(25):
        inst = small_random_instance(seed=trial, n_countries=6)
        solver = RecourseSolver(inst)
        plants = list(inst.plant_candidates)
        for scen in sample_batch(
            inst, (0, trial), 8, RiskOverrides(export_prob_scale=0.45, ban_threshold=1.0)
        ):
            bits = rng.integers(0, 2, len(plants))
            if bits.sum() == 0:
                bits[int(rng.integers(len(plants)))] = 1
            design = Design(open={j: int(b) for j, b in zip(plants, bits)})
            sol = solve_one(solver, design, scen)
            assert check_structural_theorems(inst, design, scen, sol) == []
            seen |= _classify_rows(inst, sol)
            count += 1
            if count >= 200:
                break
        if count >= 200:
            break
    missing = _all_case_rows() - seen
    assert count == 200
    assert not missing, f"uncovered rows: {sorted(missing)}"

    # constructed covered-market fixtures (both country groups)
    inst = tiny_instance(
        countries=("a", "b", "c"),
        suppliers=("a",),
        plants=("a",),
        c1="a",
        allies=("b",),
        demand={"a": 5.0, "b": 12.0, "c": 6.0},
        exports_general={"a": 0.0, "b": 14.0, "c": 7.0},
        exports_to_c1={"a": 0.0, "b": 2.0, "c": 1.0},
    )
    design = Design(open={"a": 1})
    solver = RecourseSolver(inst)
    # non-ally c fully banned with combined exports >= demand
    scen = plain_scenario(inst, g={"a": 1, "b": 1, "c": 0}, ga={"a": 1, "b": 1})
    sol = solve_one(solver, design, scen)
    assert sol.unmet[solver.kpos["c"]] == pytest.approx(0.0)
    assert sol.surplus[solver.kpos["c"]] == pytest.approx(2.0)
    assert check_structural_theorems(inst, design, scen, sol) == []
    # ally b fully banned with combined exports >= demand
    scen = plain_scenario(inst, g={"a": 1, "b": 0, "c": 1}, ga={"a": 1, "b": 0})
    sol = solve_one(solver, design, scen)
    assert sol.unmet[solver.kpos["b"]] == pytest.approx(0.0)
    assert sol.surplus[solver.kpos["b"]] == pytest.approx(4.0)
    assert check_structural_theorems(inst, design, scen, sol) == []

    # priority fixture: one unit of capacity goes to the higher saving
    inst = tiny_instance(
        countries=("a", "b", "c"),
        suppliers=("a",),
        plants=("a",),
        demand={"a": 0.0, "b": 1.0, "c": 1.0},
        price={"a": 10.0, "b": 10.0, "c": 6.0},
        supplier_capacity={"a": 1.0},
        plant_capacity={"a": 1.0},
    )
    design = Design(open={"a": 1})
    scen = plain_scenario(inst)
    sol = solve_one(RecourseSolver(inst), design, scen)
    arcs = sol.solver.v_arcs
    assert sol.drug[arcs.index(("a", "b"))] == pytest.approx(1.0)
    assert sol.drug[arcs.index(("a", "c"))] == pytest.approx(0.0)
    assert check_structural_theorems(inst, design, scen, sol) == []
    _ok(4, "200 scenarios, zero violations, all 22 case rows hit; fixtures pass")


# -- 5: retained exports and the price mechanism -------------------------------


def test_criterion_5_retained_exports_closed_form_and_gate():
    # six countries, two allies of c1; c1 open to allies only, c3 fully banned
    inst = tiny_instance(
        countries=("c1", "c2", "c3", "c4", "c5", "c6"),
        c1="c1",
        allies=("c2", "c4"),
        exports_general={f"c{n}": 10.0 * n for n in range(1, 7)},
        exports_to_c1={f"c{n}": 1.0 * n for n in range(1, 7)},
        beta=0.00003,
    )
    g = {"c1": 0, "c2": 1, "c3": 0, "c4": 1, "c5": 1, "c6": 1}
    ga = {"c1": 1, "c2": 1, "c4": 1}
    retained = retained_exports(inst, reference_flags(inst, g, ga))
    e = inst.exports_general
    ec1 = inst.exports_to_c1
    assert retained == e["c1"] + e["c3"] + ec1["c3"]  # exact closed form
    assert inst.beta * retained == 0.00003 * retained  # exact linear bump

    # the strain gate: average availability at or above the threshold kills G
    risky = small_random_instance(seed=5150, n_countries=5)
    gated = 0
    for scen in sample_batch(risky, (43, 0), 400, RiskOverrides(export_prob_scale=0.3)):
        avg = sum(scen.supplier_avail.tolist()) / len(risky.suppliers)
        if avg >= risky.ban_threshold:
            gated += 1
            assert scen.retained_exports == 0.0
            assert scen.price_increase == 0.0
        assert scen.price_increase == risky.beta * scen.retained_exports
    assert gated > 0
    _ok(5, "closed-form retained exports exact; price bump linear; gate verified")


# -- 6: SAA statistics ----------------------------------------------------------


def test_criterion_6_bounds_and_critical_values():
    lower, _ = confidence_bounds([10.0, 12.0, 14.0], 0.01, 12.0, 0.0)
    assert lower == pytest.approx(3.958, abs=1e-3)  # full-precision hand value
    t, z = critical_values(0.01, 29)
    assert t == pytest.approx(2.462, abs=1e-3)
    assert z == pytest.approx(2.3263, abs=1e-3)

    inst = small_random_instance(seed=4242, n_countries=3)
    overrides = RiskOverrides(export_prob_scale=0.7, ban_threshold=0.9)
    solver = RecourseSolver(inst)
    pool = sample_batch(inst, (44, 0), 3000, overrides)
    z_star, _ = enumeration_optimum(inst, pool, solver)
    hits = 0
    for trial in range(100):
        cfg = SaaConfig(
            replications=3,
            optimization_scenarios=10,
            evaluation_scenarios=120,
            alpha=0.01,
            base_seed=60_000 + trial,
            outer_gap_tolerance=1e9,
            optimize_overrides=overrides,
            evaluate_overrides=overrides,
        )
        report = run_saa(inst, cfg)
        if report.lower_bound <= z_star <= report.upper_bound:
            hits += 1
    assert hits >= 95, f"sandwich held in only {hits}/100 trials"
    _ok(6, f"hand fixtures match; bound sandwich held in {hits}/100 trials")


# -- 7: directional policy behavior --------------------------------------------


def _policy_instance(seed):
    inst = generate_synthetic_instance(3, 4, 8, seed=seed)
    # make strain frequent enough that ban risk matters at desk scale
    return inst.perturbed(
        supplier_avail_prob={i: 0.9 for i in inst.suppliers},
        export_prob={k: 0.9 * v for k, v in inst.export_prob.items()},
    )


POLICY_CFG = SaaConfig(
    replications=5,
    optimization_scenarios=30,
    evaluation_scenarios=300,
    base_seed=777,
    outer_gap_tolerance=1e9,
)


def test_criterion_7a_forced_backshoring_costs_at_least_as_much():
    start = time.monotonic()
    result = run_backshoring(_policy_instance(31), POLICY_CFG)
    free, forced = result.arms
    for z_free, z_forced in zip(
        free.report.replication_objectives, forced.report.replication_objectives
    ):
        assert z_forced >= z_free - 1e-9  # same sample, restricted feasible set
    assert forced.report.eval_objective >= free.report.eval_objective - 1e-9
    assert forced.report.incumbent.open[_policy_instance(31).interest_country] == 1
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _ok("7a", f"forced home plant never beats the free optimum ({elapsed:.0f}s)")


def test_criterion_7b_price_lift_cuts_low_income_shortage():
    start = time.monotonic()
    inst = tiny_instance(
        countries=("a", "b", "c"),
        suppliers=("a",),
        plants=("a",),
        c1="a",
        income={"a": "HIC", "b": "LMIC", "c": "LIC"},
        demand={"a": 20.0, "b": 30.0, "c": 25.0},
        price={"a": 8.0, "b": 2.3, "c": 2.2},
        raw_cost={"a": 1.0},
        production_cost={"a": 1.0},
        transport2={("a", "a"): 0.0, ("a", "b"): 0.5, ("a", "c"): 0.45},
        supplier_capacity={"a": 300.0},
        plant_capacity={"a": 300.0},
        fixed_cost={"a": 3.0},
    )
    result = run_pricing(inst, POLICY_CFG, "lift_lmic_lic_50")
    base, lifted = result.arms
    for level in ("LMIC", "LIC"):
        before = base.shortage_by_income[level]["demand_weighted"]
        after = lifted.shortage_by_income[level]["demand_weighted"]
        assert after < before  # strictly better across the service threshold
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _ok("7b", f"50% LMIC/LIC price lift strictly cuts their shortage ({elapsed:.0f}s)")


def test_criterion_7c_misspecified_plan_evaluates_no_better():
    from dataclasses import replace

    start = time.monotonic()
    inst = _policy_instance(32)
    high = RiskOverrides(export_prob_scale=0.8)
    case3 = run_saa(
        inst, replace(POLICY_CFG, optimize_overrides=high, evaluate_overrides=high)
    )
    case5 = run_saa(
        inst,
        replace(
            POLICY_CFG,
            optimize_overrides=RiskOverrides(force_export_prob_one=True),
            evaluate_overrides=high,
        ),
    )
    assert case5.overrides_differ and not case3.overrides_differ
    assert case5.eval_objective >= case3.eval_objective - 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _ok("7c", f"plan ignoring ban risk evaluates no better under high risk ({elapsed:.0f}s)")


def test_criterion_7d_doubled_transport_weakly_raises_cost():
    start = time.monotonic()
    result = run_sensitivity(_policy_instance(33), POLICY_CFG, "transport_x2")
    base, doubled = result.arms
    for z0, z1 in zip(
        base.report.replication_objectives, doubled.report.replication_objectives
    ):
        assert z1 >= z0 - 1e-9  # same sample, dominated cost vector
    assert doubled.report.eval_objective >= base.report.eval_objective - 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _ok("7d", f"doubling transport costs weakly raises the expected cost ({elapsed:.0f}s)")


# -- 8: determinism across thread counts ----------------------------------------


def test_criterion_8_reports_are_byte_identical_across_thread_counts(tmp_path):
    inst = _policy_instance(34)
    instance_path = tmp_path / "instance.json"
    write_instance(inst, instance_path)
    config = {
        "saa": {
            "replications": 4,
            "optimization_scenarios": 10,
            "evaluation_scenarios": 40,
            "base_seed": 99,
            "outer_gap_tolerance": 100.0,
        }
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    outputs = []
    for threads in (1, 8):
        out = tmp_path / f"threads_{threads}"
        rc = cli_main(
            [
                "solve",
                "--instance",
                str(instance_path),
                "--config",
                str(config_path),
                "--out",
                str(out),
                "--threads",
                str(threads),
            ]
        )
        assert rc == 0
        outputs.append(out)
    for name in (
        "report.json",
        "shortage_by_country.csv",
        "shortage_by_income.csv",
        "flows.csv",
        "bounds.csv",
    ):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name
    _ok(8, "solve artifacts byte-identical with --threads 1 vs --threads 8")
