"""Command-line front end.

Subcommands: gen (synthetic instance), solve (one SAA run), evaluate (a
fixed design on evaluation scenarios), study (policy experiments), verify
(re-solve a finished run's incumbent and check duals, structural
properties and the reported evaluation mean). Flag > config file ("saa"
and "studies" only) > default precedence. Every run is serial; solve and
study still accept and validate --threads, which changes nothing. Exit
codes: 0 updated artifacts, 1 usage or validation problems (an unwritable
--out or --dump-scenarios, or an unreadable report for verify, among
them), 2 solver failures.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

from .generator import RISK_PROFILES, generate_synthetic_instance
from .instance import (
    Design,
    Instance,
    ValidationError,
    fixed_cost,
    is_finite_number,
    load_instance,
    parse_json,
    read_json,
    validate_design,
    write_instance,
)
from .lshaped import IterationLimitError, check_forcing
from .policy import KIND_FIELD, StudySpec, check_study, run_study
from .recourse import RecourseError, RecourseSolver, check_structural_theorems
from .report import (
    build_artifact,
    check_writable_dir,
    check_writable_file,
    country_rows,
    dump_scenarios,
    evaluation_to_dict,
    load_artifact,
    write_country_csv,
    write_json,
    write_report,
)
from .saa import SaaConfig, evaluate_design, evaluation_batch, run_saa
from .scenarios import RiskOverrides
from .simplex import SimplexError
from .stats import ordered_total

SOLVER_ERRORS = (RecourseError, SimplexError, IterationLimitError)
EVAL_REL_TOL = 1e-9  # verify: reported evaluation mean vs cold solves, relative
CONFIG_SECTIONS = {"saa", "studies"}
STUDY_FIELDS = {f.name for f in fields(StudySpec)} | {"label"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _overrides_from_dict(d: dict | None, name: str) -> RiskOverrides:
    d = d or {}
    if not isinstance(d, dict):
        raise ValidationError(f"{name} must be a JSON object")
    unknown = sorted(set(d) - {f.name for f in fields(RiskOverrides)})
    if unknown:
        raise ValidationError(f"unknown override fields: {unknown}")
    return RiskOverrides(**d)


def saa_config_from_dict(d: dict | None) -> SaaConfig:
    if not isinstance(d or {}, dict):
        raise ValidationError("saa config must be a JSON object")
    d = dict(d or {})
    for key in ("optimize_overrides", "evaluate_overrides"):
        if key in d:
            d[key] = _overrides_from_dict(d[key], key)
    try:
        cfg = SaaConfig(**d)
    except TypeError as exc:
        raise ValidationError(f"bad saa config: {exc}") from exc
    return cfg.validated()


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    raw = read_json(p, f"config {p}")
    if not isinstance(raw, dict):
        raise ValidationError(f"{p}: config top level must be a JSON object")
    unknown = sorted(set(raw) - CONFIG_SECTIONS)
    if unknown:
        raise ValidationError(f"{p}: unknown top-level config fields {unknown}")
    return raw


def _is_pair(pair) -> bool:
    return isinstance(pair, list) and len(pair) == 2 and all(isinstance(c, str) for c in pair)


def _is_dir_name(label) -> bool:
    return isinstance(label, str) and label not in ("", ".", "..") and not set(label) & set("/\\")


def _studies_from_config(studies) -> list:
    """(output directory name, validated StudySpec) for every entry of the config's studies.

    An entry writes to its label, or to NN_kind by position; two entries
    that would share a directory are rejected, naming both, and so is a
    field the entry's kind does not read.
    """
    if not isinstance(studies, list) or not studies:
        raise ValidationError("config 'studies' must be a non-empty list of objects")
    entries = []
    owner = {}
    for n, raw in enumerate(studies):
        where = f"studies[{n}]"
        if not isinstance(raw, dict):
            raise ValidationError(f"{where} must be a JSON object, got {raw!r}")
        unknown = sorted(set(raw) - STUDY_FIELDS)
        if unknown:
            raise ValidationError(f"{where}: unknown fields {unknown}")
        pairs = raw.get("pairs", [])
        if not isinstance(pairs, list) or not all(_is_pair(p) for p in pairs):
            raise ValidationError(f"{where}.pairs must be a list of 2-item lists of countries")
        label = raw.get("label")
        if label is not None and not _is_dir_name(label):
            raise ValidationError(f"{where}.label must be a plain directory name, got {label!r}")
        kwargs = {"kind": "", **raw, "pairs": tuple(tuple(p) for p in pairs)}
        kwargs.pop("label", None)
        spec = StudySpec(**kwargs).validated()
        unread = sorted(set(raw) - {"kind", "label", KIND_FIELD.get(spec.kind)})
        if unread:
            raise ValidationError(f"{where}: kind {spec.kind!r} does not read {unread}")
        directory = label or f"{n:02d}_{spec.kind}"
        if directory in owner:
            raise ValidationError(
                f"studies[{owner[directory]}] and {where} both write to directory {directory!r}"
            )
        owner[directory] = n
        entries.append((directory, spec))
    return entries


def _resolve_saa(args, config: dict) -> SaaConfig:
    cfg = saa_config_from_dict(config.get("saa"))
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, base_seed=args.seed).validated()
    return cfg


def _echo(instance_path: Path, cfg: SaaConfig) -> dict:
    return {
        "instance": str(instance_path.resolve()),
        "saa": asdict(cfg),
    }


def _check_outputs(args) -> None:
    """Fail on an unusable --out or --dump-scenarios before anything is solved."""
    check_writable_dir(args.out)
    if args.dump_scenarios:
        check_writable_file(args.dump_scenarios)


def _cmd_gen(args) -> int:
    inst = generate_synthetic_instance(
        num_suppliers=args.suppliers,
        num_plants=args.plants,
        num_countries=args.countries,
        seed=args.seed if args.seed is not None else 0,
        risk_profile=args.risk_profile,
    )
    path = Path(args.out) / "instance.json"
    write_instance(inst, path)
    print(f"wrote {path}")
    return 0


def _cmd_solve(args) -> int:
    config = _load_config_file(args.config)
    cfg = _resolve_saa(args, config)
    instance_path = Path(args.instance)
    inst = load_instance(instance_path)
    check_forcing(inst, cfg.forced_open)
    _check_outputs(args)

    t0 = time.perf_counter()
    report = run_saa(inst, cfg)
    elapsed = time.perf_counter() - t0

    artifact = build_artifact(
        inst, report, _echo(instance_path, cfg), timings={"solve_seconds": elapsed}
    )
    write_report(artifact, args.out)
    if args.dump_scenarios:
        dump_scenarios(inst, evaluation_batch(inst, cfg, report.passes - 1), args.dump_scenarios)
    print(
        f"L={report.lower_bound:.6g} U={report.upper_bound:.6g} gap={report.gap:.4%} "
        f"plants={list(report.incumbent.open_plants())} -> {args.out}"
    )
    if report.gap_unresolved:
        print("warning: statistical gap above tolerance after the pass cap", file=sys.stderr)
    return 0


def _parse_design(raw: str, instance: Instance) -> Design:
    data = parse_json(raw, "--design")
    if not isinstance(data, dict):
        raise ValidationError("--design must be a JSON object of plant -> 0/1")
    open_map = {j: 0 for j in instance.plant_candidates}
    for j, v in data.items():
        if j not in open_map:
            raise ValidationError(f"--design: {j!r} is not a plant candidate")
        if type(v) is not int or v not in (0, 1):
            raise ValidationError(f"--design: plant {j!r} must be 0 or 1, got {v!r}")
        open_map[j] = v
    design = Design(open=open_map)
    validate_design(instance, design)
    return design


def _cmd_evaluate(args) -> int:
    config = _load_config_file(args.config)
    cfg = _resolve_saa(args, config)
    instance_path = Path(args.instance)
    inst = load_instance(instance_path)
    design = _parse_design(args.design, inst)
    _check_outputs(args)

    batch = evaluation_batch(inst, cfg, 0)
    evaluation = evaluate_design(inst, design, batch)

    out = Path(args.out)
    payload = {
        "config": _echo(instance_path, cfg),
        "design": dict(sorted(design.open.items())),
        "evaluation": evaluation_to_dict(evaluation),
    }
    write_json(out / "evaluation.json", payload)
    write_country_csv(out, country_rows(inst, design, evaluation))
    if args.dump_scenarios:
        dump_scenarios(inst, batch, args.dump_scenarios)
    print(f"mean objective {evaluation.mean_objective:.6g} -> {out}")
    return 0


def _cmd_study(args) -> int:
    config = _load_config_file(args.config)
    cfg = _resolve_saa(args, config)
    entries = _studies_from_config(config.get("studies"))
    instance_path = Path(args.instance)
    inst = load_instance(instance_path)
    for n, (_, spec) in enumerate(entries):
        try:
            check_study(inst, spec)
        except ValidationError as exc:
            raise ValidationError(f"studies[{n}]: {exc}") from exc
    check_forcing(inst, cfg.forced_open)
    check_writable_dir(args.out)

    out = Path(args.out)
    for directory, spec in entries:
        result = run_study(inst, spec, cfg)
        study_dir = out / directory
        for arm in result.arms:
            # each arm ships its own (possibly perturbed) instance so that
            # `verify` re-checks exactly what the arm solved
            arm_dir = study_dir / arm.name
            arm_instance_path = arm_dir / "instance.json"
            artifact = build_artifact(
                arm.instance, arm.report, _echo(arm_instance_path, arm.config)
            )
            write_report(artifact, arm_dir)
            write_instance(arm.instance, arm_instance_path)
        write_json(
            study_dir / "study.json",
            {
                "kind": result.kind,
                "arms": [
                    {
                        "name": a.name,
                        "changes": a.changes,
                        "eval_objective": a.report.eval_objective,
                        "open_plants": list(a.report.incumbent.open_plants()),
                        "shortage_by_income": a.shortage_by_income,
                    }
                    for a in result.arms
                ],
                "comparison": result.comparison,
            },
        )
        print(f"study {study_dir.name}: {len(result.arms)} arms -> {study_dir}")
    return 0


def _cmd_verify(args) -> int:
    run_dir = Path(args.run)
    report_path = run_dir / "report.json"
    artifact = load_artifact(report_path)
    # a field the echo lacks would take its default, and verify would check
    # scenarios the run never used
    saa_echo = artifact.config_echo.get("saa")
    if not isinstance(saa_echo, dict):
        raise ValidationError(f"run report {report_path} does not record its saa config")
    missing = sorted({f.name for f in fields(SaaConfig)} - set(saa_echo))
    if missing:
        raise ValidationError(f"run report {report_path}: saa config lacks {missing}")
    try:
        cfg = saa_config_from_dict(saa_echo)
    except ValidationError as exc:
        raise ValidationError(f"run report {report_path}: {exc}") from exc
    passes = artifact.saa.passes
    if isinstance(passes, bool) or not isinstance(passes, int) or not 1 <= passes <= cfg.max_passes:
        raise ValidationError(
            f"run report {report_path}: saa.passes must be an integer in "
            f"1..{cfg.max_passes}, got {passes!r}"
        )
    instance_path = args.instance or artifact.config_echo.get("instance")
    if not instance_path:
        raise ValidationError("run config does not record the instance path; pass --instance")
    if not isinstance(instance_path, str):
        raise ValidationError(
            f"run report {report_path}: config.instance must be a path string, "
            f"got {instance_path!r}"
        )
    inst = load_instance(instance_path)
    design = Design(open=dict(artifact.saa.incumbent.open))
    validate_design(inst, design)

    reported = artifact.saa.eval_objective
    if not is_finite_number(reported):
        raise ValidationError(
            f"run report {report_path}: saa.eval_objective must be a finite number, "
            f"got {reported!r}"
        )

    scenarios = evaluation_batch(inst, cfg, passes - 1)
    solver = RecourseSolver(inst)
    fixed = fixed_cost(inst, design)
    violations = []
    samples = []
    # no basis pool: each LP is solved from its start basis; a batch raises
    # on any balance or duality violation
    for batch in solver.batches(design, scenarios):
        for s in range(batch.size):
            solution = batch.solution(s)
            samples.append(fixed + solution.objective)
            w = batch.first + s
            for message in check_structural_theorems(inst, design, scenarios[w], solution):
                violations.append({"scenario": w, "message": message})
    # the run's evaluation answered its LPs from a basis pool; its mean must
    # agree with these cold solves, added as evaluate_design adds them
    cold = ordered_total(samples) / len(scenarios)
    if abs(cold - reported) > EVAL_REL_TOL * max(1.0, abs(reported)):
        violations.append(
            {"message": f"saa.eval_objective {reported!r} differs from the mean of "
                        f"cold solves {cold!r}"}
        )
    write_json(
        run_dir / "verify.json", {"scenarios_checked": len(scenarios), "violations": violations}
    )
    print(f"checked {len(scenarios)} scenarios: {len(violations)} violations")
    return 0 if not violations else 2


def _worker_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="strainchain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a synthetic instance")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--countries", type=int, default=8)
    gen.add_argument("--suppliers", type=int, default=3)
    gen.add_argument("--plants", type=int, default=4)
    gen.add_argument("--risk-profile", choices=RISK_PROFILES, default="low")
    gen.set_defaults(func=_cmd_gen)

    # each subcommand offers only the flags it reads
    def common(p, threads=False, dump=False):
        p.add_argument("--instance", required=True)
        p.add_argument("--config", default=None)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        if threads:
            # kept so that existing command lines still parse; every run is serial
            p.add_argument("--threads", type=_worker_count, default=1,
                           help="accepted and checked (at least 1); changes nothing")
        if dump:
            p.add_argument("--dump-scenarios", default=None)

    solve = sub.add_parser("solve", help="one full sampled optimization run")
    common(solve, threads=True, dump=True)
    solve.set_defaults(func=_cmd_solve)

    ev = sub.add_parser("evaluate", help="evaluate a fixed design on fresh scenarios")
    common(ev, dump=True)
    ev.add_argument("--design", required=True)
    ev.set_defaults(func=_cmd_evaluate)

    study = sub.add_parser("study", help="run the policy experiments from the config")
    common(study, threads=True)
    study.set_defaults(func=_cmd_study)

    verify = sub.add_parser("verify", help="re-check a finished run's solution")
    verify.add_argument("--run", required=True)
    verify.add_argument("--instance", default=None)
    verify.set_defaults(func=_cmd_verify)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
