from dataclasses import replace

import pytest

from strainchain import (
    RiskOverrides,
    SaaConfig,
    StudySpec,
    ValidationError,
    run_alliances_off,
    run_backshoring,
    run_export_ban_cases,
    run_pricing,
    run_saa,
    run_sensitivity,
    run_study,
)
from strainchain import saa, scenarios
from strainchain.policy import (
    apply_backshoring_quality,
    apply_pricing_scheme,
    apply_sensitivity_variant,
)
from strainchain.report import country_rows, shortage_by_income
from strainchain.scenarios import _effective_export_prob

from helpers import count_calls, small_random_instance, tiny_instance

FAST = SaaConfig(
    replications=2,
    optimization_scenarios=4,
    evaluation_scenarios=12,
    base_seed=17,
    outer_gap_tolerance=100.0,
)


def test_study_spec_domains():
    StudySpec(kind="pricing", scheme="uniform_to_c1_price").validated()
    with pytest.raises(ValidationError):
        StudySpec(kind="mystery").validated()
    with pytest.raises(ValidationError):
        StudySpec(kind="pricing", scheme="double_everything").validated()
    with pytest.raises(ValidationError):
        StudySpec(kind="backshoring", quality="luxury").validated()


def test_alliances_study_is_identity_without_allies():
    inst = small_random_instance(seed=90, n_countries=4, with_allies=False)
    result = run_alliances_off(inst, FAST)
    on, off = result.arms
    assert on.report == off.report
    assert not result.comparison["design_changed"]
    assert all(d == pytest.approx(0.0) for d in result.comparison["shortage_delta_ppt"].values())


def test_alliances_study_is_identity_when_the_second_chance_never_fires():
    inst = small_random_instance(seed=91, n_countries=4)
    inst = inst.perturbed(ally_export_prob={k: 0.0 for k in inst.ally_group})
    result = run_alliances_off(inst, FAST)
    on, off = result.arms
    assert on.report == off.report


def ally_relief_instance():
    """c1 hosts the only plant; the ally imports through it, so the second
    chance on c1's export ban is pure relief for the ally."""
    inst = tiny_instance(
        countries=("a", "b", "c"),
        suppliers=("a",),
        plants=("a",),
        c1="a",
        allies=("b",),
        demand={"a": 10.0, "b": 30.0, "c": 30.0},
        price={"a": 9.0, "b": 9.0, "c": 9.0},
        supplier_capacity={"a": 500.0},
        plant_capacity={"a": 500.0},
        ban_threshold=1.0,
        export_prob={"a": 0.3, "b": 0.99, "c": 0.99},
        ally_export_prob={"a": 0.95, "b": 0.95},
    )
    # availability tops out at 0.95, so the strain gate is closed every scenario
    from helpers import degenerate_pmf

    return inst.perturbed(supplier_strain_pmf={"a": degenerate_pmf(0.95)})


def test_alliance_second_chance_relieves_ally_shortage_on_paired_seeds():
    inst = ally_relief_instance()
    result = run_alliances_off(inst, FAST)
    on, off = result.arms
    short_on = on.report.evaluation.expected_shortage["b"]
    short_off = off.report.evaluation.expected_shortage["b"]
    assert short_on <= short_off + 1e-9
    assert short_on < short_off  # rho-dot >> rho makes the relief strict here
    # the non-ally sees no second chance either way
    assert on.report.evaluation.expected_shortage["c"] == pytest.approx(
        off.report.evaluation.expected_shortage["c"]
    )


def test_export_ban_case_overrides():
    inst = small_random_instance(seed=92, n_countries=4)
    forced = _effective_export_prob(inst, RiskOverrides(force_export_prob_one=True))
    assert dict(zip(inst.countries, forced)) == {k: 1.0 for k in inst.countries}
    scaled = dict(
        zip(inst.countries, _effective_export_prob(inst, RiskOverrides(export_prob_scale=0.8)))
    )
    for k in inst.countries:
        assert scaled[k] == pytest.approx(0.8 * inst.export_prob[k])


def test_cases_zero_and_one_coincide_when_bans_cannot_trigger():
    # full availability keeps the average above the threshold in every scenario
    inst = tiny_instance(
        countries=("a", "b", "c"),
        demand={"a": 20.0, "b": 10.0, "c": 15.0},
        exports_general={"a": 5.0, "b": 5.0, "c": 5.0},
        export_prob={"a": 0.5, "b": 0.5, "c": 0.5},
    )
    result = run_export_ban_cases(inst, FAST)
    by_name = {arm.name: arm for arm in result.arms}
    assert (
        by_name["case0_no_risk"].report == by_name["case1_low_risk"].report
    )


def test_misspecified_cases_flag_the_override_mismatch():
    inst = small_random_instance(seed=93, n_countries=4)
    result = run_export_ban_cases(inst, FAST)
    by_name = {arm.name: arm for arm in result.arms}
    assert by_name["case4_misspecified_low"].report.overrides_differ
    assert by_name["case5_misspecified_high"].report.overrides_differ
    assert not by_name["case1_low_risk"].report.overrides_differ


def test_pricing_scheme_rewrites():
    inst = small_random_instance(seed=94, n_countries=5)
    uniform = apply_pricing_scheme(inst, "uniform_to_c1_price")
    prices = set(uniform.shortage_price.values())
    assert len(prices) == 1
    assert prices == {inst.shortage_price[inst.interest_country]}

    lifted = apply_pricing_scheme(inst, "lift_lmic_lic_50")
    for k in inst.countries:
        factor = 1.5 if inst.income_level[k] in ("LMIC", "LIC") else 1.0
        assert lifted.shortage_price[k] == pytest.approx(factor * inst.shortage_price[k])
    with pytest.raises(ValidationError):
        apply_pricing_scheme(inst, "nope")


def test_identity_pricing_rewrite_changes_nothing():
    inst = small_random_instance(seed=95, n_countries=4)
    anchor = inst.shortage_price[inst.interest_country]
    flat = inst.perturbed(shortage_price={k: anchor for k in inst.countries})
    assert apply_pricing_scheme(flat, "uniform_to_c1_price") == flat


def straddle_instance():
    """LMIC price sits just below the delivery chain; a 50% lift clears it."""
    return tiny_instance(
        countries=("a", "b"),
        suppliers=("a",),
        plants=("a",),
        c1="a",
        income={"a": "HIC", "b": "LMIC"},
        demand={"a": 20.0, "b": 30.0},
        price={"a": 8.0, "b": 2.3},
        raw_cost={"a": 1.0},
        production_cost={"a": 1.0},
        transport2={("a", "a"): 0.0, ("a", "b"): 0.5},
        supplier_capacity={"a": 200.0},
        plant_capacity={"a": 200.0},
        fixed_cost={"a": 3.0},
    )


def test_price_lift_across_the_service_threshold_erases_lmic_shortage():
    inst = straddle_instance()
    result = run_pricing(inst, FAST, "lift_lmic_lic_50")
    base, lifted = result.arms
    # chain is 2.5; base price 2.3 fails, lifted 3.45 clears it
    assert base.shortage_by_income["LMIC"]["demand_weighted"] == pytest.approx(1.0)
    assert lifted.shortage_by_income["LMIC"]["demand_weighted"] == pytest.approx(0.0)


def test_backshoring_quality_rescaling():
    inst = small_random_instance(seed=96, n_countries=4)
    c1 = inst.interest_country
    base_p = inst.plant_avail_prob[c1]
    moderate = apply_backshoring_quality(inst, "moderate")
    high = apply_backshoring_quality(inst, "high")
    assert moderate.plant_avail_prob[c1] == pytest.approx(1 - 0.5 * (1 - base_p))
    assert high.plant_avail_prob[c1] == pytest.approx(1 - 0.25 * (1 - base_p))
    best_mean = max(p.mean() for p in inst.plant_strain_pmf.values())
    assert moderate.plant_strain_pmf[c1].mean() == pytest.approx(best_mean)
    assert apply_backshoring_quality(inst, "base") == inst


def test_backshoring_requires_a_home_candidate():
    inst = tiny_instance(countries=("a", "b"), plants=("b",), suppliers=("b",), c1="a")
    with pytest.raises(ValidationError):
        run_backshoring(inst, FAST)


def test_forcing_an_already_optimal_home_plant_changes_nothing():
    inst = tiny_instance(
        countries=("a", "b"),
        suppliers=("a", "b"),
        plants=("a", "b"),
        c1="a",
        demand={"a": 30.0, "b": 20.0},
        fixed_cost={"a": 1.0, "b": 50.0},
        supplier_capacity={"a": 200.0, "b": 200.0},
        plant_capacity={"a": 200.0, "b": 200.0},
    )
    result = run_backshoring(inst, FAST)
    free, forced = result.arms
    assert free.report.incumbent.open["a"] == 1
    assert forced.report.incumbent.open == free.report.incumbent.open
    assert result.comparison["forced_minus_unforced_objective"] == pytest.approx(0.0, abs=1e-9)


def test_forced_backshoring_never_beats_the_free_optimum_per_replication():
    inst = small_random_instance(seed=97, n_countries=4)
    result = run_backshoring(inst, FAST)
    free, forced = result.arms
    for z_free, z_forced in zip(
        free.report.replication_objectives, forced.report.replication_objectives
    ):
        assert z_forced >= z_free - 1e-9


def test_transport_doubling_is_identity_at_zero_cost():
    inst = small_random_instance(seed=98, n_countries=4)
    zero = inst.perturbed(
        transport1={a: 0.0 for a in inst.transport1},
        transport2={a: 0.0 for a in inst.transport2},
    )
    result = run_sensitivity(zero, FAST, "transport_x2")
    base, doubled = result.arms
    assert base.report == doubled.report


def test_transport_doubling_weakly_raises_every_replication_objective():
    inst = small_random_instance(seed=99, n_countries=4)
    result = run_sensitivity(inst, FAST, "transport_x2")
    base, doubled = result.arms
    for z0, z1 in zip(
        base.report.replication_objectives, doubled.report.replication_objectives
    ):
        assert z1 >= z0 - 1e-9


def test_rho_swap_exchanges_the_probabilities():
    inst = small_random_instance(seed=100, n_countries=5)
    a, b = inst.countries[1], inst.countries[3]
    swapped = apply_sensitivity_variant(inst, "rho_swap", pairs=((a, b),))
    assert swapped.export_prob[a] == inst.export_prob[b]
    assert swapped.export_prob[b] == inst.export_prob[a]
    for k in inst.countries:
        if k not in (a, b):
            assert swapped.export_prob[k] == inst.export_prob[k]
    with pytest.raises(ValidationError):
        apply_sensitivity_variant(inst, "rho_swap", pairs=(("nope", a),))
    with pytest.raises(ValidationError):
        apply_sensitivity_variant(inst, "rho_swap", pairs=())


def test_studies_are_pure_functions_of_their_inputs():
    inst = small_random_instance(seed=101, n_countries=4)
    snapshot = inst.perturbed()
    spec = StudySpec(kind="transport_sensitivity")
    first = run_study(inst, spec, FAST)
    second = run_study(inst, spec, FAST)
    assert first == second
    assert inst == snapshot  # arms perturb private copies only


def test_generated_instances_show_the_differential_pricing_tension():
    # low-income prices sit below the delivery chain, so disparities emerge
    # from cost minimization alone even though the optimizer is income-blind
    from strainchain import generate_synthetic_instance, run_saa

    inst = generate_synthetic_instance(3, 4, 8, seed=11)
    report = run_saa(
        inst,
        SaaConfig(
            replications=2,
            optimization_scenarios=6,
            evaluation_scenarios=40,
            base_seed=2,
            outer_gap_tolerance=100.0,
        ),
    )
    table = shortage_by_income(country_rows(inst, report.incumbent, report.evaluation))
    rich = table["HIC"]["demand_weighted"]
    poor = min(table["LMIC"]["demand_weighted"], table["LIC"]["demand_weighted"])
    assert poor > 0.5
    assert rich < 0.3
    assert poor > rich


def test_income_fraction_aggregates_expose_both_conventions():
    inst = straddle_instance()
    result = run_pricing(inst, FAST, "lift_lmic_lic_50")
    table = result.arms[0].shortage_by_income
    for level, row in table.items():
        assert set(row) == {"demand_weighted", "country_mean"}
        assert 0.0 <= row["demand_weighted"] <= 1.0 + 1e-9
        assert 0.0 <= row["country_mean"] <= 1.0 + 1e-9


# -- work shared between arms ----------------------------------------------------

def test_misspecified_arms_reuse_case_zero_and_evaluate_each_design_once(monkeypatch):
    inst = small_random_instance(seed=93, n_countries=4)
    decompositions = count_calls(monkeypatch, saa, "run_lshaped")
    evaluations = count_calls(monkeypatch, saa, "evaluate_design")
    result = run_export_ban_cases(inst, FAST)
    assert all(arm.report.passes == 1 for arm in result.arms)
    # four distinct optimize overrides: cases 4 and 5 optimize as case 0 does
    assert len(decompositions) == 4 * FAST.replications
    distinct = {
        (arm.config.evaluate_overrides, d.key())
        for arm in result.arms
        for d in arm.report.candidate_designs
    }
    assert len(evaluations) == len(distinct)


def test_the_arms_draw_each_scenario_once(monkeypatch):
    inst = small_random_instance(seed=95, n_countries=4)
    draws = count_calls(monkeypatch, scenarios, "batch_draws")
    samples = count_calls(monkeypatch, saa, "sample_batch")
    run_export_ban_cases(inst, FAST)
    # each arm applies its overrides to the numbers of the pass's M + 1 seeds
    assert len(draws) == FAST.replications + 1 < len(samples)


def test_a_misspecified_arm_solves_the_pass_case_zero_never_ran(monkeypatch):
    inst = small_random_instance(seed=94, n_countries=4)
    cfg = replace(FAST, max_passes=2, outer_gap_tolerance=4.0)
    decompositions = count_calls(monkeypatch, saa, "run_lshaped")
    result = run_export_ban_cases(inst, cfg)
    by_name = {arm.name: arm for arm in result.arms}
    assert by_name["case0_no_risk"].report.passes == 1
    assert by_name["case4_misspecified_low"].report.passes == 2
    passes = {}
    for arm in result.arms:
        opt = arm.config.optimize_overrides
        passes[opt] = max(passes.get(opt, 0), arm.report.passes)
    assert len(decompositions) == cfg.replications * sum(passes.values())
    monkeypatch.undo()
    for arm in result.arms:
        assert arm.report == run_saa(arm.instance, arm.config), arm.name
