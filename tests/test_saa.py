import math
from dataclasses import replace

import pytest

from strainchain import (
    Design,
    RecourseSolver,
    RiskOverrides,
    SaaConfig,
    SaaMemo,
    ValidationError,
    confidence_bounds,
    evaluate_design,
    run_lshaped,
    run_saa,
    sample_batch,
)
from strainchain import saa
from strainchain.saa import ROLE_OPTIMIZE, evaluation_batch
from strainchain.stats import critical_values

from helpers import (
    count_calls,
    enumerate_designs,
    plain_scenario,
    record_recourse_lps,
    small_random_instance,
    tiny_instance,
)


def test_config_domain_checks():
    good = SaaConfig(replications=2, optimization_scenarios=2, evaluation_scenarios=2)
    good.validated()
    with pytest.raises(ValidationError):
        replace(good, replications=1).validated()
    with pytest.raises(ValidationError):
        replace(good, optimization_scenarios=0).validated()
    with pytest.raises(ValidationError):
        replace(good, evaluation_scenarios=1, optimization_scenarios=2).validated()
    with pytest.raises(ValidationError):
        replace(good, alpha=0.5).validated()
    with pytest.raises(ValidationError):
        replace(good, outer_gap_tolerance=0.0).validated()


def test_hand_fixture_for_the_lower_bound():
    # replication objectives 10, 12, 14 at alpha = 0.01:
    # mean 12, sigma-hat = sqrt(8 / 6) ~ 1.1547, t(0.01, 2) ~ 6.9646
    lower, upper = confidence_bounds([10.0, 12.0, 14.0], 0.01, 12.0, 0.0)
    t_exact, _ = critical_values(0.01, 2)
    sigma = math.sqrt((4.0 + 0.0 + 4.0) / (2 * 3))
    assert lower == pytest.approx(12.0 - t_exact * sigma, abs=1e-12)
    # the full-precision hand value; quoting t to four digits gives ~3.9575
    assert lower == pytest.approx(3.958, abs=1e-3)
    assert upper == pytest.approx(12.0)


def test_upper_bound_uses_the_normal_critical_value():
    _, upper = confidence_bounds([5.0, 6.0], 0.01, 100.0, 2.0)
    _, z = critical_values(0.01, 1)
    assert upper == pytest.approx(100.0 + z * 2.0)


def no_uncertainty_instance():
    return tiny_instance(
        countries=("a", "b"),
        demand={"a": 40.0, "b": 25.0},
        price={"a": 8.0, "b": 8.0},
        fixed_cost={"a": 10.0, "b": 12.0},
    )


def test_degenerate_instance_gives_zero_gap_in_one_pass():
    inst = no_uncertainty_instance()
    cfg = SaaConfig(
        replications=3,
        optimization_scenarios=4,
        evaluation_scenarios=8,
        base_seed=5,
    )
    report = run_saa(inst, cfg)
    assert report.passes == 1
    assert not report.gap_unresolved
    assert report.lower_bound == pytest.approx(report.upper_bound)
    assert report.gap == pytest.approx(0.0, abs=1e-12)
    assert report.eval_std_error == pytest.approx(0.0, abs=1e-12)
    first = report.replication_objectives[0]
    assert all(z == pytest.approx(first) for z in report.replication_objectives)


def test_incumbent_is_a_candidate_and_attains_the_minimum():
    inst = small_random_instance(seed=81, n_countries=4)
    cfg = SaaConfig(
        replications=3,
        optimization_scenarios=8,
        evaluation_scenarios=30,
        base_seed=11,
        outer_gap_tolerance=10.0,
        optimize_overrides=RiskOverrides(export_prob_scale=0.6, ban_threshold=0.95),
        evaluate_overrides=RiskOverrides(export_prob_scale=0.6, ban_threshold=0.95),
    )
    report = run_saa(inst, cfg)
    keys = [d.key() for d in report.candidate_designs]
    assert report.incumbent.key() in keys
    batch = sample_batch(inst, (cfg.base_seed, 0, 1), 30, cfg.evaluate_overrides)
    solver = RecourseSolver(inst)
    evals = {
        d.key(): evaluate_design(inst, d, batch, solver).mean_objective
        for d in report.candidate_designs
    }
    assert evals[report.incumbent.key()] == pytest.approx(min(evals.values()))
    assert report.eval_objective == pytest.approx(evals[report.incumbent.key()])


def test_misspecified_overrides_are_flagged():
    inst = no_uncertainty_instance()
    cfg = SaaConfig(
        replications=2,
        optimization_scenarios=2,
        evaluation_scenarios=4,
        optimize_overrides=RiskOverrides(force_export_prob_one=True),
        evaluate_overrides=RiskOverrides(export_prob_scale=0.8),
    )
    report = run_saa(inst, cfg)
    assert report.overrides_differ
    base = run_saa(inst, replace(cfg, optimize_overrides=cfg.evaluate_overrides))
    assert not base.overrides_differ


def test_pass_cap_reports_unresolved_gap():
    inst = small_random_instance(seed=83, n_countries=4)
    cfg = SaaConfig(
        replications=2,
        optimization_scenarios=2,
        evaluation_scenarios=4,
        base_seed=1,
        outer_gap_tolerance=1e-12,
        max_passes=2,
        optimize_overrides=RiskOverrides(export_prob_scale=0.5, ban_threshold=0.99),
        evaluate_overrides=RiskOverrides(export_prob_scale=0.5, ban_threshold=0.99),
    )
    report = run_saa(inst, cfg)
    assert report.passes == 2
    assert report.gap_unresolved


def test_evaluate_design_on_identical_scenarios_has_zero_error(monkeypatch):
    inst = no_uncertainty_instance()
    scens = [plain_scenario(inst), plain_scenario(inst)]
    lps = record_recourse_lps(monkeypatch)
    ev = evaluate_design(inst, Design(open={"a": 1, "b": 0}), scens)
    # the first LP's optimal basis answers the second from the pool
    assert [sol.iterations == 0 for _, _, sol in lps] == [False, True]
    assert ev.std_error == pytest.approx(0.0, abs=1e-12)
    single = evaluate_design(inst, Design(open={"a": 1, "b": 0}), scens[:1])
    assert ev.mean_objective == pytest.approx(single.mean_objective)


def test_evaluate_design_two_scenario_hand_arithmetic():
    inst = no_uncertainty_instance()
    s1 = plain_scenario(inst, demand={"a": 40.0, "b": 25.0})
    s2 = plain_scenario(inst, demand={"a": 10.0, "b": 25.0})
    design = Design(open={"a": 1, "b": 0})
    solver = RecourseSolver(inst)
    fixed = 10.0
    q1 = solver.solve(design, s1).objective
    q2 = solver.solve(design, s2).objective
    ev = evaluate_design(inst, design, [s1, s2], solver)
    mean = (fixed + q1 + fixed + q2) / 2
    var = ((fixed + q1 - mean) ** 2 + (fixed + q2 - mean) ** 2) / (1 * 2)
    assert ev.mean_objective == pytest.approx(mean)
    assert ev.std_error == pytest.approx(math.sqrt(var))
    assert ev.breakdown.total() == pytest.approx(mean, rel=1e-9)


def test_extra_capacity_cannot_hurt_beyond_its_fixed_cost():
    inst = small_random_instance(seed=84, n_countries=4)
    scens = sample_batch(inst, (20, 0), 10, RiskOverrides(export_prob_scale=0.7))
    solver = RecourseSolver(inst)
    all_open = Design(open={j: 1 for j in inst.plant_candidates})
    one = next(iter(enumerate_designs(inst)))
    ev_all = evaluate_design(inst, all_open, scens, solver)
    ev_one = evaluate_design(inst, one, scens, solver)
    fixed_delta = sum(
        inst.fixed_cost[j] * (all_open.open[j] - one.open[j]) for j in inst.plant_candidates
    )
    assert ev_all.mean_objective <= ev_one.mean_objective + fixed_delta + 1e-7


def test_bound_sandwich_on_an_enumeration_solvable_instance():
    # smaller sibling of the acceptance check: 20 seeded trials, one instance
    inst = small_random_instance(seed=85, n_countries=3)
    ov = RiskOverrides(export_prob_scale=0.7, ban_threshold=0.9)
    solver = RecourseSolver(inst)
    pool = sample_batch(inst, (999, 0), 2500, ov)
    from helpers import enumeration_optimum

    z_star, _ = enumeration_optimum(inst, pool, solver)
    hits = 0
    trials = 20
    for t in range(trials):
        cfg = SaaConfig(
            replications=3,
            optimization_scenarios=10,
            evaluation_scenarios=150,
            alpha=0.01,
            base_seed=5000 + t,
            outer_gap_tolerance=1e9,
            optimize_overrides=ov,
            evaluate_overrides=ov,
        )
        report = run_saa(inst, cfg)
        if report.lower_bound <= z_star <= report.upper_bound:
            hits += 1
    assert hits >= trials - 2


# -- the memo shared by the run_saa calls of one study --------------------------

MEMO_CFG = SaaConfig(
    replications=2,
    optimization_scenarios=4,
    evaluation_scenarios=12,
    base_seed=17,
    outer_gap_tolerance=100.0,
    max_passes=1,
)


@pytest.mark.parametrize("pinned", [False, True])
def test_each_pass_and_replication_solves_its_own_sample(pinned):
    # an independent recomputation of the last pass, without run_saa or a memo;
    # with every plant pinned open each pass evaluates the same design anew
    inst = small_random_instance(seed=83, n_countries=4)
    forced = {j: 1 for j in inst.plant_candidates} if pinned else {}
    cfg = replace(
        MEMO_CFG, replications=3, outer_gap_tolerance=1e-12, max_passes=2, forced_open=forced
    )
    report = run_saa(inst, cfg)
    last = report.passes - 1
    assert last == 1
    samples = [
        sample_batch(inst, (cfg.base_seed, last, ROLE_OPTIMIZE, m),
                     cfg.optimization_scenarios, cfg.optimize_overrides)
        for m in range(cfg.replications)
    ]
    expected = [
        run_lshaped(inst, scens, epsilon=cfg.inner_gap_tolerance, forced=forced).objective
        for scens in samples
    ]
    assert report.replication_objectives == expected
    assert len(set(expected)) == cfg.replications
    assert report.evaluation == evaluate_design(
        inst, report.incumbent, evaluation_batch(inst, cfg, last)
    )


def test_a_repeated_config_reuses_everything_and_samples_nothing(monkeypatch):
    inst = small_random_instance(seed=84, n_countries=4)
    memo = SaaMemo()
    first = run_saa(inst, MEMO_CFG, memo)
    calls = [count_calls(monkeypatch, saa, name)
             for name in ("run_lshaped", "evaluate_design", "sample_batch")]
    assert run_saa(inst, MEMO_CFG, memo) == first
    assert calls == [[], [], []]


@pytest.mark.parametrize(
    ("field", "value", "reads"),
    [
        ("base_seed", 18, {"replication", "evaluation"}),
        ("optimization_scenarios", 5, {"replication"}),
        ("evaluation_scenarios", 13, {"evaluation"}),
        ("optimize_overrides", RiskOverrides(export_prob_scale=0.5), {"replication"}),
        ("evaluate_overrides", RiskOverrides(export_prob_scale=0.5), {"evaluation"}),
        ("inner_gap_tolerance", 1e-6, {"replication"}),
        ("forced_open", {"k1": 1}, {"replication"}),
        ("max_iterations", 400, {"replication"}),
    ],
)
def test_configs_differing_in_a_key_field_do_not_share(monkeypatch, field, value, reads):
    inst = small_random_instance(seed=84, n_countries=4)
    memo = SaaMemo()
    first = run_saa(inst, MEMO_CFG, memo)
    other = replace(MEMO_CFG, **{field: value})
    decompositions = count_calls(monkeypatch, saa, "run_lshaped")
    evaluations = count_calls(monkeypatch, saa, "evaluate_design")
    report = run_saa(inst, other, memo)

    assert len(decompositions) == (other.replications if "replication" in reads else 0)
    designs = {d.key() for d in report.candidate_designs}
    if "evaluation" not in reads:
        # an evaluation does not read this field, so known designs reuse theirs
        designs -= {d.key() for d in first.candidate_designs}
    assert len(evaluations) == len(designs)
    monkeypatch.undo()
    assert report == run_saa(inst, other)


def test_an_equal_but_distinct_instance_shares_nothing(monkeypatch):
    inst = small_random_instance(seed=84, n_countries=4)
    memo = SaaMemo()
    first = run_saa(inst, MEMO_CFG, memo)
    copy = inst.perturbed()
    assert copy == inst and copy is not inst
    decompositions = count_calls(monkeypatch, saa, "run_lshaped")
    evaluations = count_calls(monkeypatch, saa, "evaluate_design")
    assert run_saa(copy, MEMO_CFG, memo) == first
    assert len(decompositions) == MEMO_CFG.replications
    assert len(evaluations) == len({d.key() for d in first.candidate_designs})
