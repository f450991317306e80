import builtins
import json
import re
import shutil
import threading

import pytest

from strainchain import recourse
from strainchain.cli import cli_main
from strainchain.recourse import RecourseSolver
from strainchain.simplex import solve_bounded_lp
from strainchain.stats import ordered_total

from helpers import (
    record_table_lookups,
    reference_country_csv,
    small_random_instance,
    tiny_instance,
)
from strainchain import Design, load_instance, write_instance


@pytest.fixture()
def workdir(tmp_path):
    inst = small_random_instance(seed=110, n_countries=4)
    instance_path = tmp_path / "instance.json"
    write_instance(inst, instance_path)
    config = {
        "saa": {
            "replications": 2,
            "optimization_scenarios": 4,
            "evaluation_scenarios": 10,
            "base_seed": 21,
            "outer_gap_tolerance": 100.0,
            "optimize_overrides": {"export_prob_scale": 0.7},
            "evaluate_overrides": {"export_prob_scale": 0.7},
        },
        "studies": [
            {"kind": "transport_sensitivity", "label": "transport"},
            {"kind": "rho_swap", "label": "swap", "pairs": [["k1", "k3"]]},
        ],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return tmp_path, instance_path, config_path


def test_gen_writes_a_loadable_instance(tmp_path):
    rc = cli_main(["gen", "--out", str(tmp_path), "--seed", "4", "--countries", "6",
                   "--suppliers", "2", "--plants", "3"])
    assert rc == 0
    from strainchain import load_instance

    inst = load_instance(tmp_path / "instance.json")
    assert len(inst.countries) == 6


def test_solve_produces_all_artifacts(workdir):
    tmp, instance_path, config_path = workdir
    out = tmp / "run"
    rc = cli_main(
        [
            "solve",
            "--instance",
            str(instance_path),
            "--config",
            str(config_path),
            "--out",
            str(out),
            "--dump-scenarios",
            str(out / "scenarios.csv"),
        ]
    )
    assert rc == 0
    for name in (
        "report.json",
        "shortage_by_country.csv",
        "shortage_by_income.csv",
        "flows.csv",
        "bounds.csv",
        "timings.json",
        "scenarios.csv",
    ):
        assert (out / name).exists(), name


def test_solve_is_byte_identical_across_thread_counts(workdir):
    tmp, instance_path, config_path = workdir
    outs = []
    for threads, name in ((1, "t1"), (8, "t8")):
        out = tmp / name
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
        outs.append(out)
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()


def test_evaluate_writes_shortage_csv(workdir):
    tmp, instance_path, config_path = workdir
    from strainchain import load_instance

    inst = load_instance(instance_path)
    design = {inst.plant_candidates[0]: 1}
    out = tmp / "eval"
    rc = cli_main(
        [
            "evaluate",
            "--instance",
            str(instance_path),
            "--config",
            str(config_path),
            "--design",
            json.dumps(design),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert (out / "shortage_by_country.csv").exists()
    payload = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))
    assert payload["design"][inst.plant_candidates[0]] == 1


def test_evaluate_country_csv_matches_its_former_writer(workdir, monkeypatch):
    tmp, instance_path, config_path = workdir
    from strainchain import load_instance
    from strainchain.cli import evaluate_design

    seen = []

    def recording(*args, **kwargs):
        seen.append(evaluate_design(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr("strainchain.cli.evaluate_design", recording)
    inst = load_instance(instance_path)
    plants = list(inst.plant_candidates)
    design = {plants[0]: 1, plants[-1]: 1}
    out = tmp / "eval_csv"
    rc = cli_main(
        ["evaluate", "--instance", str(instance_path), "--config", str(config_path),
         "--design", json.dumps(design), "--out", str(out)]
    )
    assert rc == 0
    full = Design(open={j: design.get(j, 0) for j in plants})
    reference_country_csv(tmp / "reference.csv", inst, full, seen[0])
    assert (out / "shortage_by_country.csv").read_bytes() == (tmp / "reference.csv").read_bytes()


@pytest.mark.parametrize(
    "command, flag, value",
    [("study", "--dump-scenarios", "scenarios.csv"), ("evaluate", "--threads", "2")],
)
def test_flags_a_subcommand_never_reads_exit_one(
    workdir, monkeypatch, capsys, command, flag, value
):
    tmp, instance_path, config_path = workdir

    def no_run(*args, **kwargs):
        raise AssertionError("the command ran despite an unsupported flag")

    monkeypatch.setattr("strainchain.cli.run_study", no_run)
    monkeypatch.setattr("strainchain.cli.evaluate_design", no_run)
    out = tmp / f"{command}_flag"
    args = [command, "--instance", str(instance_path), "--config", str(config_path),
            "--out", str(out), flag, str(tmp / value) if flag == "--dump-scenarios" else value]
    if command == "evaluate":
        args += ["--design", json.dumps({"k1": 1})]
    assert cli_main(args) == 1
    err = capsys.readouterr().err
    assert "usage" in err and flag in err
    assert not out.exists()
    assert not (tmp / value).exists()


def test_study_creates_per_arm_directories(workdir):
    tmp, instance_path, config_path = workdir
    out = tmp / "studies"
    rc = cli_main(
        [
            "study",
            "--instance",
            str(instance_path),
            "--config",
            str(config_path),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    study_dir = out / "transport"
    assert (study_dir / "study.json").exists()
    assert (study_dir / "base" / "report.json").exists()
    assert (study_dir / "transport_x2" / "report.json").exists()
    swap_dir = out / "swap"
    assert (swap_dir / "study.json").exists()
    assert (swap_dir / "rho_swap" / "report.json").exists()
    # each arm records the exact instance it solved, so verify re-checks it
    from strainchain import load_instance

    doubled = load_instance(study_dir / "transport_x2" / "instance.json")
    base = load_instance(study_dir / "base" / "instance.json")
    cross_arc = next(arc for arc, v in base.transport1.items() if v > 0)
    assert doubled.transport1[cross_arc] == pytest.approx(2 * base.transport1[cross_arc])
    assert cli_main(["verify", "--run", str(study_dir / "transport_x2")]) == 0


def test_verify_reports_zero_violations_on_a_fresh_run(workdir):
    tmp, instance_path, config_path = workdir
    out = tmp / "run"
    assert (
        cli_main(
            ["solve", "--instance", str(instance_path), "--config", str(config_path),
             "--out", str(out)]
        )
        == 0
    )
    rc = cli_main(["verify", "--run", str(out)])
    assert rc == 0
    payload = json.loads((out / "verify.json").read_text(encoding="utf-8"))
    assert payload["violations"] == []
    assert payload["scenarios_checked"] == 10


def test_solve_evaluate_and_verify_build_no_answer_table(workdir, monkeypatch):
    tmp, instance_path, config_path = workdir
    out = tmp / "run"
    lookups = record_table_lookups(monkeypatch)
    common = ["--instance", str(instance_path), "--config", str(config_path)]
    assert cli_main(["solve", *common, "--out", str(out)]) == 0
    incumbent = json.loads((out / "report.json").read_text(encoding="utf-8"))["saa"]["incumbent"]
    assert cli_main(["evaluate", *common, "--design", json.dumps(incumbent),
                     "--out", str(tmp / "eval")]) == 0
    assert cli_main(["verify", "--run", str(out)]) == 0
    assert lookups and all(table is None for table, _ in lookups)


def test_the_export_ban_study_answers_repeats_from_its_table_and_writes_the_same_bytes(
    workdir, monkeypatch
):
    tmp, instance_path, config_path = workdir
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["studies"] = [{"kind": "export_ban_cases"}]
    ban_config = tmp / "ban.json"
    ban_config.write_text(json.dumps(config), encoding="utf-8")
    out = tmp / "studies"
    argv = ["study", "--instance", str(instance_path), "--config", str(ban_config),
            "--out", str(out)]

    lookups = record_table_lookups(monkeypatch)
    assert cli_main(argv) == 0
    hits = sum(held for _, held in lookups)
    assert 0 < hits < len(lookups)
    # arms echo their paths, so both runs write to the same --out
    out.rename(tmp / "with_table")
    monkeypatch.setattr(
        recourse, "solve_bounded_lp",
        lambda *args, answers=None, **kwargs: solve_bounded_lp(*args, **kwargs),
    )
    assert cli_main(argv) == 0

    def artifacts(root):
        return {
            path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != "timings.json"
        }

    with_table = artifacts(tmp / "with_table")
    assert len(with_table) > 6 and with_table == artifacts(out)


def compensated_sum(iterable, /, start=0):
    """`sum()` as Python 3.12 adds: a float total with Neumaier compensation,
    integers exactly; anything else as the running interpreter adds it."""
    items = list(iterable)
    terms = [start, *items]
    numbers = all(isinstance(v, (int, float)) for v in terms)
    if not numbers or all(isinstance(v, int) for v in terms):
        return compensated_sum.plain(items, start)
    total, compensation = float(start), 0.0
    for value in map(float, items):
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation


compensated_sum.plain = builtins.sum


def test_artifacts_keep_their_bits_when_sum_compensates_float_rounding(tmp_path, monkeypatch):
    # Python 3.12's sum() rounds a float total differently, and the package
    # supports 3.10 on: its float totals are added one term at a time, so gen,
    # solve, evaluate, the export-ban study and verify write the same bytes
    assert compensated_sum([0.1] * 10) == 1.0 > ordered_total([0.1] * 10)
    assert compensated_sum([2, 3]) == 5
    work = tmp_path / "work"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "saa": {"replications": 2, "optimization_scenarios": 5, "evaluation_scenarios": 20,
                "max_passes": 1, "evaluate_overrides": {"export_prob_scale": 0.7}},
        "studies": [{"kind": "export_ban_cases"}],
    }), encoding="utf-8")

    def run_all():
        shutil.rmtree(work, ignore_errors=True)
        assert cli_main(["gen", "--out", str(work), "--seed", "3", "--countries", "6",
                         "--suppliers", "2", "--plants", "3"]) == 0
        common = ["--instance", str(work / "instance.json"), "--config", str(config)]
        assert cli_main(["solve", *common, "--out", str(work / "run"),
                         "--dump-scenarios", str(work / "run-scenarios.csv")]) == 0
        report = json.loads((work / "run" / "report.json").read_text(encoding="utf-8"))
        design = json.dumps(report["saa"]["incumbent"])
        assert cli_main(["evaluate", *common, "--design", design, "--out", str(work / "eval"),
                         "--dump-scenarios", str(work / "eval-scenarios.csv")]) == 0
        assert cli_main(["study", *common, "--out", str(work / "studies")]) == 0
        for report in sorted(work.rglob("report.json")):
            assert cli_main(["verify", "--run", str(report.parent)]) == 0
        return {
            path.relative_to(work): path.read_bytes()
            for path in sorted(work.rglob("*"))
            if path.is_file() and path.name != "timings.json"
        }

    plain = run_all()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    compensated = run_all()
    assert len(plain) > 20 and compensated.keys() == plain.keys()
    assert [p for p in plain if compensated[p] != plain[p]] == []


def test_verify_flags_a_reported_evaluation_mean_the_cold_solves_do_not_give(workdir):
    tmp, instance_path, config_path = workdir
    out = tmp / "run"
    assert cli_main(["solve", "--instance", str(instance_path), "--config", str(config_path),
                     "--out", str(out)]) == 0
    report = out / "report.json"
    payload = json.loads(report.read_text(encoding="utf-8"))
    reported = payload["saa"]["eval_objective"]
    altered = reported * (1 + 1e-6)
    payload["saa"]["eval_objective"] = altered
    report.write_text(json.dumps(payload), encoding="utf-8")
    assert cli_main(["verify", "--run", str(out)]) == 2
    violations = json.loads((out / "verify.json").read_text(encoding="utf-8"))["violations"]
    assert len(violations) == 1
    assert repr(altered) in violations[0]["message"]
    assert repr(reported) in violations[0]["message"]


def test_unknown_flag_exits_one(workdir, capsys):
    tmp, instance_path, config_path = workdir
    rc = cli_main(["solve", "--instance", str(instance_path), "--wat"])
    assert rc == 1
    assert "usage" in capsys.readouterr().err


def test_validation_problems_exit_one(workdir, tmp_path):
    tmp, instance_path, config_path = workdir
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    rc = cli_main(["solve", "--instance", str(bad), "--config", str(config_path),
                   "--out", str(tmp_path / "x")])
    assert rc == 1


# case -> (path into instance.json, value, field the error must name); None
# in a path stands for the first key of that map
BAD_INSTANCE = {
    "beta": (("beta",), float("inf"), "beta"),
    "fixed_cost": (("fixed_cost", None), float("inf"), "fixed_cost"),
    "beta_text": (("beta",), "x", "beta"),
    "fixed_cost_true": (("fixed_cost", None), True, "fixed_cost"),
    "ban_threshold_text": (("ban_threshold",), "x", "ban_threshold"),
    "transport1_text": (("transport1", None, None), "x", "transport1"),
    "strain_level_text": (("supplier_strain_pmf", None, "levels", 0), "x", "supplier_strain_pmf"),
    "strain_prob_nan": (("plant_strain_pmf", None, "probs", 0), float("nan"),
                        "plant_strain_pmf[k0]: levels and probs must be finite"),
    "countries_number": (("countries",), 5, "countries"),
    "interest_country_list": (("interest_country",), ["k0"], "interest_country"),
    # finite, but products of such numbers overflow a float
    "demand_mean_huge": (("demand_mean", None), 1e308, "demand_mean"),
    "transport2_huge": (("transport2", None, "k1"), 1e101, "transport2 out of"),
    "beta_huge": (("beta",), 1e150, "beta"),
}


@pytest.mark.parametrize("field", list(BAD_INSTANCE))
def test_non_finite_instance_numbers_exit_one_before_solving(workdir, monkeypatch, capsys, field):
    tmp, instance_path, config_path = workdir
    raw = json.loads(instance_path.read_text(encoding="utf-8"))
    path, value, named = BAD_INSTANCE[field]
    target = raw
    for key in path[:-1]:
        target = target[next(iter(target)) if key is None else key]
    target[next(iter(target)) if path[-1] is None else path[-1]] = value
    bad = tmp / "inf.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")

    def no_solve(*args, **kwargs):
        raise AssertionError("solve started on an invalid instance")

    monkeypatch.setattr("strainchain.cli.run_saa", no_solve)
    out = tmp / "inf_run"
    rc = cli_main(["solve", "--instance", str(bad), "--config", str(config_path),
                   "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["suppliers", "plant_candidates", "allies"])
def test_a_repeated_id_exits_one_naming_its_list(workdir, monkeypatch, capsys, name):
    # a repeated plant candidate used to solve a different LP: both copies'
    # arcs landed in the first copy's capacity row
    tmp, instance_path, config_path = workdir
    raw = json.loads(instance_path.read_text(encoding="utf-8"))
    repeated = raw[name][-1]
    raw[name].append(repeated)
    bad = tmp / "repeated.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")

    def no_solve(*args, **kwargs):
        raise AssertionError("solve started on an invalid instance")

    monkeypatch.setattr("strainchain.cli.run_saa", no_solve)
    out = tmp / "repeated_run"
    rc = cli_main(["solve", "--instance", str(bad), "--config", str(config_path),
                   "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{name}: duplicate id {repeated!r}" in err and "Traceback" not in err
    assert not out.exists()


def test_demand_that_would_overflow_exits_one_naming_it(workdir, capsys):
    # a solve of this instance used to overflow its shortage costs, pass every
    # batch check on NaN and end in "no plant open"
    tmp, instance_path, config_path = workdir
    raw = json.loads(instance_path.read_text(encoding="utf-8"))
    country = next(iter(raw["demand_mean"]))
    raw["demand_mean"][country] = 1e308
    bad = tmp / "huge.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    rc = cli_main(["solve", "--instance", str(bad), "--config", str(config_path),
                   "--out", str(tmp / "huge_run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"demand_mean out of [0.0, 1e+100] for '{country}'" in err
    assert "no plant open" not in err


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("optimize_overrides", "export_prob_scale"), float("nan"), "export_prob_scale"),
        (("evaluate_overrides", "export_prob_scale"), float("inf"), "export_prob_scale"),
        (("optimize_overrides", "export_prob_scale"), "0.7", "export_prob_scale"),
        (("optimize_overrides", "ban_threshold"), float("-inf"), "ban_threshold"),
        (("evaluate_overrides", "ban_threshold"), float("nan"), "ban_threshold"),
        (("replications",), 2.5, "replications"),
        (("max_iterations",), "5", "max_iterations"),
        (("base_seed",), -1, "base_seed"),
        (("alpha",), float("nan"), "alpha"),
        (("alpha",), 1e-20, "alpha"),  # no t critical value at 1 degree of freedom
    ],
)
def test_bad_saa_config_values_exit_one_before_solving(
    workdir, monkeypatch, capsys, path, value, field
):
    tmp, instance_path, config_path = workdir
    config = json.loads(config_path.read_text(encoding="utf-8"))
    section = config["saa"]
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    bad = tmp / "bad_config.json"
    bad.write_text(json.dumps(config), encoding="utf-8")

    def no_solve(*args, **kwargs):
        raise AssertionError("solve started with an invalid config")

    monkeypatch.setattr("strainchain.cli.run_saa", no_solve)
    out = tmp / "bad_config_run"
    rc = cli_main(["solve", "--instance", str(instance_path), "--config", str(bad),
                   "--out", str(out)])
    assert rc == 1
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_invalid_design_exits_one(workdir):
    tmp, instance_path, config_path = workdir
    rc = cli_main(
        [
            "evaluate",
            "--instance",
            str(instance_path),
            "--config",
            str(config_path),
            "--design",
            "{}",
            "--out",
            str(tmp / "eval2"),
        ]
    )
    assert rc == 1


def test_solver_failures_exit_two(workdir):
    tmp, instance_path, config_path = workdir
    config = json.loads(config_path.read_text(encoding="utf-8"))
    # an unreachable inner tolerance with a one-iteration cap cannot converge
    config["saa"]["max_iterations"] = 1
    config["saa"]["inner_gap_tolerance"] = 1e-15
    strict = tmp / "strict.json"
    strict.write_text(json.dumps(config), encoding="utf-8")
    dump = tmp / "fail_run" / "scenarios.csv"
    rc = cli_main(
        ["solve", "--instance", str(instance_path), "--config", str(strict),
         "--out", str(tmp / "fail_run"), "--dump-scenarios", str(dump)]
    )
    assert rc == 2
    assert not dump.exists()  # the early writability probe leaves no file behind


def test_wrong_start_inverse_exits_two_naming_the_residual(workdir, monkeypatch, capsys):
    tmp, instance_path, config_path = workdir
    start_basis = RecourseSolver.start_basis

    def flipped(self, rhs_dem):
        basis, inverse = start_basis(self, rhs_dem)
        inverse[self.rDem, self.rDem] *= -1.0  # the first demand row's basic value
        return basis, inverse

    monkeypatch.setattr(RecourseSolver, "start_basis", flipped)
    out = tmp / "flipped"
    rc = cli_main(
        ["solve", "--instance", str(instance_path), "--config", str(config_path),
         "--out", str(out)]
    )
    assert rc == 2
    assert "primal residual" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_seed_flag_overrides_config(workdir):
    tmp, instance_path, config_path = workdir
    a, b = tmp / "seed_a", tmp / "seed_b"
    cli_main(["solve", "--instance", str(instance_path), "--config", str(config_path),
              "--out", str(a), "--seed", "99"])
    cli_main(["solve", "--instance", str(instance_path), "--config", str(config_path),
              "--out", str(b)])
    ra = json.loads((a / "report.json").read_text(encoding="utf-8"))
    rb = json.loads((b / "report.json").read_text(encoding="utf-8"))
    assert ra["config"]["saa"]["base_seed"] == 99
    assert rb["config"]["saa"]["base_seed"] == 21
    assert ra["saa"]["replication_objectives"] != rb["saa"]["replication_objectives"]


@pytest.mark.parametrize(
    "value", [1.9, 0.4, 2, -1, "x", "1", None, True, [1]], ids=repr
)
def test_design_values_other_than_zero_or_one_exit_one(workdir, monkeypatch, capsys, value):
    tmp, instance_path, config_path = workdir

    def no_run(*args, **kwargs):
        raise AssertionError("evaluation started on an invalid design")

    monkeypatch.setattr("strainchain.cli.evaluate_design", no_run)
    out = tmp / "bad_design"
    design = json.dumps({"k0": 1, "k2": value})
    rc = cli_main(["evaluate", "--instance", str(instance_path), "--config", str(config_path),
                   "--design", design, "--out", str(out)])
    assert rc == 1
    assert "'k2'" in capsys.readouterr().err
    assert not out.exists()


def test_design_naming_an_unknown_plant_exits_one(workdir, capsys):
    tmp, instance_path, config_path = workdir
    rc = cli_main(["evaluate", "--instance", str(instance_path), "--config", str(config_path),
                   "--design", json.dumps({"k0": 1, "nowhere": 1}), "--out", str(tmp / "x")])
    assert rc == 1
    assert "'nowhere'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "studies, named",
    [
        (None, "studies"),
        ([], "studies"),
        (["transport_sensitivity"], "studies[0]"),
        ([{"kind": "rho_swap", "pairs": [5]}], "studies[0].pairs"),
        ([{"kind": "rho_swap", "pairs": [["k1"]]}], "studies[0].pairs"),
        ([{"kind": "rho_swap", "pairs": [["k1", ["k3"]]]}], "studies[0].pairs"),
        ([{"kind": "rho_swap", "pairs": "k1k3"}], "studies[0].pairs"),
        ([{"kind": "transport_sensitivity", "variant": "transport_x2"}], "variant"),
        ([{"kind": "transport_sensitivity", "label": "a/b"}], "studies[0].label"),
        ([{"kind": "transport_sensitivity", "label": "."}], "studies[0].label"),
        ([{"kind": "transport_sensitivity", "label": ".."}], "studies[0].label"),
        ([{"kind": "transport_sensitivity", "label": 3}], "studies[0].label"),
        ([{"kind": "transport_sensitivity"}, {"kind": "mystery"}], "mystery"),
        # entries checked against the instance, whose countries are k0..k3
        ([{"kind": "alliances_off"}, {"kind": "rho_swap"}], "studies[1]: rho_swap needs"),
        ([{"kind": "rho_swap", "pairs": [["k1", "nowhere"]]}], "studies[0]: invalid swap pair"),
        # a field the entry's kind does not read
        ([{"kind": "alliances_off", "scheme": "bogus"}], "studies[0]: kind 'alliances_off'"),
        ([{"kind": "pricing", "scheme": "uniform_to_c1_price", "quality": "high"}], "quality"),
        ([{"kind": "transport_sensitivity", "pairs": []}], "pairs"),
    ],
)
def test_bad_study_entries_exit_one_before_any_study_runs(
    workdir, monkeypatch, capsys, studies, named
):
    tmp, instance_path, config_path = workdir
    assert named in _rejected_study_error(tmp, instance_path, config_path, studies,
                                          monkeypatch, capsys)


def test_backshoring_without_a_home_plant_exits_one_before_any_study_runs(
    workdir, monkeypatch, capsys
):
    tmp, _, config_path = workdir
    instance_path = tmp / "no_home_plant.json"
    write_instance(tiny_instance(countries=("a", "b"), plants=("b",)), instance_path)
    studies = [{"kind": "transport_sensitivity"}, {"kind": "backshoring"}]
    err = _rejected_study_error(tmp, instance_path, config_path, studies, monkeypatch, capsys)
    assert "studies[1]: interest country 'a' is not a plant candidate" in err


def _rejected_study_error(tmp, instance_path, config_path, studies, monkeypatch, capsys) -> str:
    """stderr of a study command that must exit 1 before any study runs or --out exists."""
    config = json.loads(config_path.read_text(encoding="utf-8"))
    if studies is None:
        del config["studies"]
    else:
        config["studies"] = studies
    bad = tmp / "bad_studies.json"
    bad.write_text(json.dumps(config), encoding="utf-8")

    def no_run(*args, **kwargs):
        raise AssertionError("a study ran despite an invalid studies section")

    monkeypatch.setattr("strainchain.cli.run_study", no_run)
    out = tmp / "bad_studies"
    rc = cli_main(["study", "--instance", str(instance_path), "--config", str(bad),
                   "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize(
    "studies",
    [
        [{"kind": "transport_sensitivity", "label": "same"}, {"kind": "rho_swap", "label": "same"}],
        [{"kind": "transport_sensitivity"},
         {"kind": "rho_swap", "label": "00_transport_sensitivity"}],
        [{"kind": "rho_swap", "label": "01_pricing"},
         {"kind": "pricing", "scheme": "uniform_to_c1_price"}],
    ],
)
def test_study_entries_sharing_a_directory_exit_one_naming_both(
    workdir, monkeypatch, capsys, studies
):
    tmp, instance_path, config_path = workdir
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["studies"] = studies
    clash = tmp / "clash.json"
    clash.write_text(json.dumps(config), encoding="utf-8")

    def no_run(*args, **kwargs):
        raise AssertionError("a study ran although two entries share a directory")

    monkeypatch.setattr("strainchain.cli.run_study", no_run)
    out = tmp / "clash"
    rc = cli_main(["study", "--instance", str(instance_path), "--config", str(clash),
                   "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "studies[0]" in err and "studies[1]" in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["threads", "sa"])
def test_unknown_config_sections_exit_one(workdir, monkeypatch, capsys, key):
    tmp, instance_path, config_path = workdir
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config[key] = 1
    bad = tmp / "extra_key.json"
    bad.write_text(json.dumps(config), encoding="utf-8")

    def no_solve(*args, **kwargs):
        raise AssertionError("solve started with an unknown config section")

    monkeypatch.setattr("strainchain.cli.run_saa", no_solve)
    rc = cli_main(["solve", "--instance", str(instance_path), "--config", str(bad),
                   "--out", str(tmp / "extra_key_run")])
    assert rc == 1
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "study"])
@pytest.mark.parametrize("threads", ["0", "-2", "two"])
def test_threads_below_one_exit_one(workdir, monkeypatch, capsys, command, threads):
    tmp, instance_path, config_path = workdir

    def no_run(*args, **kwargs):
        raise AssertionError("the command ran with an invalid worker count")

    monkeypatch.setattr("strainchain.cli.run_saa", no_run)
    monkeypatch.setattr("strainchain.cli.run_study", no_run)
    rc = cli_main([command, "--instance", str(instance_path), "--config", str(config_path),
                   "--out", str(tmp / "threads_run"), "--threads", threads])
    assert rc == 1
    assert "--threads" in capsys.readouterr().err


def test_negative_gen_seed_exits_one_naming_it(tmp_path, capsys):
    out = tmp_path / "gen"
    assert cli_main(["gen", "--out", str(out), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be a nonnegative integer, got -1")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "forcing, named",
    [
        ("unknown", r"non-candidates: \['nowhere'\]"),
        ("all_closed", "close every plant"),
        ("two", r"\['.*'\] must be 0 or 1, got 2"),
    ],
)
@pytest.mark.parametrize("command", ["solve", "study"])
def test_bad_forced_open_exits_one_before_any_output(
    workdir, monkeypatch, capsys, command, forcing, named
):
    tmp, instance_path, config_path = workdir
    config = json.loads(config_path.read_text(encoding="utf-8"))
    plants = load_instance(instance_path).plant_candidates
    closed = dict.fromkeys(plants, 0)
    config["saa"]["forced_open"] = {
        "unknown": {"nowhere": 1}, "all_closed": closed, "two": {plants[0]: 2}
    }[forcing]
    bad = tmp / "bad_forcing.json"
    bad.write_text(json.dumps(config), encoding="utf-8")

    def no_run(*args, **kwargs):
        raise AssertionError("the command solved with an invalid forced_open")

    for name in ("run_saa", "run_study"):
        monkeypatch.setattr(f"strainchain.cli.{name}", no_run)
    out = tmp / "bad_forcing_run"
    rc = cli_main([command, "--instance", str(instance_path), "--config", str(bad),
                   "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert re.match(f"error: forced_open.*{named}", err)
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "evaluate", "study"])
def test_unusable_out_exits_one_naming_the_path(workdir, monkeypatch, capsys, command):
    tmp, instance_path, config_path = workdir

    def no_run(*args, **kwargs):
        raise AssertionError("the command solved before checking --out")

    for name in ("run_saa", "run_study", "evaluate_design"):
        monkeypatch.setattr(f"strainchain.cli.{name}", no_run)
    occupied = tmp / "occupied"
    occupied.write_text("a file, not a directory\n", encoding="utf-8")
    args = [command, "--instance", str(instance_path), "--config", str(config_path),
            "--out", str(occupied)]
    if command == "evaluate":
        args += ["--design", json.dumps({"k0": 1})]
    assert cli_main(args) == 1
    assert str(occupied) in capsys.readouterr().err
    assert occupied.read_text(encoding="utf-8") == "a file, not a directory\n"


@pytest.mark.parametrize("target", ["under_a_file", "a_directory"])
@pytest.mark.parametrize("command", ["solve", "evaluate"])
def test_unwritable_scenario_dump_exits_one_naming_the_path(
    workdir, monkeypatch, capsys, command, target
):
    tmp, instance_path, config_path = workdir

    def no_run(*args, **kwargs):
        raise AssertionError("the command solved before checking --dump-scenarios")

    for name in ("run_saa", "evaluate_design"):
        monkeypatch.setattr(f"strainchain.cli.{name}", no_run)
    if target == "under_a_file":
        occupied = tmp / "occupied"
        occupied.write_text("a file, not a directory\n", encoding="utf-8")
        dump = occupied / "scenarios.csv"
    else:
        dump = tmp / "a_directory"
        dump.mkdir()
    args = [command, "--instance", str(instance_path), "--config", str(config_path),
            "--out", str(tmp / f"{command}_dump"), "--dump-scenarios", str(dump)]
    if command == "evaluate":
        args += ["--design", json.dumps({"k0": 1})]
    assert cli_main(args) == 1
    assert str(dump) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "study"])
def test_many_threads_start_no_thread(workdir, monkeypatch, command):
    tmp, instance_path, config_path = workdir

    def no_start(self):
        raise AssertionError(f"a thread was started: {self!r}")

    monkeypatch.setattr(threading.Thread, "start", no_start)
    rc = cli_main([command, "--instance", str(instance_path), "--config", str(config_path),
                   "--out", str(tmp / f"{command}_serial"), "--threads", "8"])
    assert rc == 0


# saa.passes values outside 1..max_passes (5 in the workdir config), and
# saa.eval_objective values that are not finite numbers
BAD_SAA = {"passes_0": ("passes", 0), "passes_x": ("passes", "x"),
           "passes_null": ("passes", None), "passes_1.5": ("passes", 1.5),
           "passes_above_max": ("passes", 6), "eval_objective_x": ("eval_objective", "x"),
           "eval_objective_nan": ("eval_objective", float("nan"))}
# config.instance values that are not a path string
BAD_INSTANCE_PATH = {"instance_int": 5, "instance_true": True, "instance_list": ["a"]}


@pytest.mark.parametrize(
    "content", [None, '{"config": ', "{}", "config_not_an_object", *BAD_SAA, *BAD_INSTANCE_PATH]
)
def test_verify_on_a_bad_report_exits_one_naming_it(workdir, capsys, content):
    tmp, instance_path, config_path = workdir
    case = content
    run = tmp / "run"
    report = run / "report.json"
    if content == "config_not_an_object" or content in BAD_SAA or content in BAD_INSTANCE_PATH:
        assert cli_main(["solve", "--instance", str(instance_path), "--config",
                         str(config_path), "--out", str(run)]) == 0
        payload = json.loads(report.read_text(encoding="utf-8"))
        if content in BAD_SAA:
            name, value = BAD_SAA[content]
            payload["saa"][name] = value
        elif content in BAD_INSTANCE_PATH:
            payload["config"]["instance"] = BAD_INSTANCE_PATH[content]
        else:
            payload["config"] = ["x"]
        content = json.dumps(payload)
    run.mkdir(exist_ok=True)
    if content is not None:
        report.write_text(content, encoding="utf-8")
    assert cli_main(["verify", "--run", str(run)]) == 1
    err = capsys.readouterr().err
    assert str(report) in err
    assert case not in BAD_INSTANCE_PATH or "config.instance" in err
    assert not (run / "verify.json").exists()


@pytest.mark.parametrize("change", ["missing", "not_an_object", "missing_field", "bad_value"])
def test_verify_without_the_full_saa_echo_exits_one_naming_the_report(workdir, capsys, change):
    tmp, instance_path, config_path = workdir
    run = tmp / "run"
    report = run / "report.json"
    assert cli_main(["solve", "--instance", str(instance_path), "--config", str(config_path),
                     "--out", str(run)]) == 0
    payload = json.loads(report.read_text(encoding="utf-8"))
    echo = payload["config"]
    if change == "missing":
        del echo["saa"]
    elif change == "not_an_object":
        echo["saa"] = 300
    elif change == "missing_field":
        del echo["saa"]["evaluation_scenarios"]
    else:
        echo["saa"]["alpha"] = 0.9
    report.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert cli_main(["verify", "--run", str(run)]) == 1
    assert str(report) in capsys.readouterr().err
    assert not (run / "verify.json").exists()
