"""Run artifacts: deterministic JSON/CSV emission and round-trip loading.

The one home of the shortage tables and of artifact writing: `country_rows`
and `income_rows` feed both shortage CSVs, the study arms and the policy
comparisons; `write_json` writes every JSON artifact (refusing non-finite
numbers), and every writer here creates its directory and reports an
unwritable path as a ValidationError naming it; `check_writable_dir` and
`check_writable_file` let a command find an unusable output path before it
solves anything, and `load_artifact` reports a missing, unparsable or
incomplete report.json, or one that repeats a key, the same way.

Records are written from their dataclass fields: `asdict` or `fields()`
gives each key, and only the values JSON cannot hold (designs, arc-keyed
flow maps, nested records) are converted. Loading reads every field by
name, so a missing one names the report and an extra key is ignored.

report.json is byte-identical for identical configs (wall-clock timings
never enter it; they go to a separate sidecar). CSVs are RFC-4180 (csv
module defaults), UTF-8, '.' decimals, with canonical country ordering so
reruns produce identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .instance import INCOME_LEVELS, Design, Instance, ValidationError, read_json
from .saa import CostBreakdown, DesignEvaluation, SaaReport
from .scenarios import Scenarios
from .stats import ordered_total

BREAKDOWN_REL_TOL = 1e-6


@dataclass(frozen=True)
class RunArtifact:
    config_echo: dict          # resolved settings the run actually used
    saa: SaaReport
    per_country: list          # one row per country: shortage, income, flags
    flows: list                # expected flows on every arc
    timings: dict = field(default_factory=dict)  # wall-clock seconds, sidecar only


def _pairs_to_rows(pairs: dict) -> list:
    return [[a, b, v] for (a, b), v in sorted(pairs.items())]


def _rows_to_pairs(rows: list) -> dict:
    return {(a, b): v for a, b, v in rows}


# the two arc-keyed maps, written as [origin, destination, value] rows
_ARC_MAPS = ("expected_raw_flow", "expected_drug_flow")


def _field_values(record) -> dict:
    """Field name -> value for every field of dataclass `record`, values uncopied."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _read_fields(cls, d: dict) -> dict:
    """Field name -> d[name] for every field of dataclass `cls`; extra keys are ignored."""
    return {f.name: d[f.name] for f in fields(cls)}


def evaluation_to_dict(ev: DesignEvaluation) -> dict:
    # not asdict(ev): its deep copy of the flow maps costs more than the writing
    d = _field_values(ev)
    for name in _ARC_MAPS:
        d[name] = _pairs_to_rows(d[name])
    d["breakdown"] = asdict(ev.breakdown)
    return d


def evaluation_from_dict(d: dict) -> DesignEvaluation:
    kwargs = _read_fields(DesignEvaluation, d)
    for name in _ARC_MAPS:
        kwargs[name] = _rows_to_pairs(kwargs[name])
    kwargs["breakdown"] = CostBreakdown(**_read_fields(CostBreakdown, kwargs["breakdown"]))
    return DesignEvaluation(**kwargs)


def saa_report_to_dict(report: SaaReport) -> dict:
    d = _field_values(report)
    d["replication_objectives"] = list(report.replication_objectives)
    d["candidate_designs"] = [dict(design.open) for design in report.candidate_designs]
    d["incumbent"] = dict(report.incumbent.open)
    d["evaluation"] = evaluation_to_dict(report.evaluation)
    return d


def saa_report_from_dict(d: dict) -> SaaReport:
    kwargs = _read_fields(SaaReport, d)
    kwargs["replication_objectives"] = list(kwargs["replication_objectives"])
    kwargs["candidate_designs"] = [Design(open=dict(o)) for o in kwargs["candidate_designs"]]
    kwargs["incumbent"] = Design(open=dict(kwargs["incumbent"]))
    kwargs["evaluation"] = evaluation_from_dict(kwargs["evaluation"])
    return SaaReport(**kwargs)


COUNTRY_COLUMNS = [
    "country",
    "income_level",
    "ally",
    "plant_open",
    "expected_demand",
    "expected_shortage",
    "shortage_fraction",
]


def shortage_fraction(shortage: float, demand: float) -> float:
    return shortage / demand if demand > 0 else 0.0


def country_rows(instance: Instance, design: Design, ev: DesignEvaluation) -> list:
    """One row per country in canonical order, keyed by COUNTRY_COLUMNS."""
    ally = set(instance.ally_group) - {instance.interest_country}
    rows = []
    for k in instance.countries:
        dem, short = ev.expected_demand[k], ev.expected_shortage[k]
        values = (k, instance.income_level[k], k in ally, bool(design.open.get(k, 0)),
                  dem, short, shortage_fraction(short, dem))
        rows.append(dict(zip(COUNTRY_COLUMNS, values)))
    return rows


INCOME_COLUMNS = [
    "income_level",
    "countries",
    "expected_demand",
    "expected_shortage",
    "shortage_fraction_demand_weighted",
    "shortage_fraction_country_mean",
]


def income_rows(per_country: list) -> list:
    """One row per income class present, keyed by INCOME_COLUMNS.

    Sums run over `country_rows` output in country order; the country mean
    averages the fractions of the countries with positive demand.
    """
    rows = []
    for level in INCOME_LEVELS:
        members = [r for r in per_country if r["income_level"] == level]
        if not members:
            continue
        dem = ordered_total(r["expected_demand"] for r in members)
        short = ordered_total(r["expected_shortage"] for r in members)
        fracs = [r["shortage_fraction"] for r in members if r["expected_demand"] > 0]
        mean = ordered_total(fracs) / len(fracs) if fracs else 0.0
        values = (level, len(members), dem, short, shortage_fraction(short, dem), mean)
        rows.append(dict(zip(INCOME_COLUMNS, values)))
    return rows


def shortage_by_income(per_country: list) -> dict:
    """Income class -> both aggregate shortage fractions, from `country_rows` output."""
    return {
        row["income_level"]: {
            "demand_weighted": row["shortage_fraction_demand_weighted"],
            "country_mean": row["shortage_fraction_country_mean"],
        }
        for row in income_rows(per_country)
    }


def build_artifact(
    instance: Instance,
    report: SaaReport,
    config_echo: dict,
    timings: dict | None = None,
) -> RunArtifact:
    ev = report.evaluation
    total = ev.breakdown.total()
    if abs(total - ev.mean_objective) > BREAKDOWN_REL_TOL * max(1.0, abs(ev.mean_objective)):
        raise ValidationError(
            f"cost breakdown total {total!r} disagrees with objective {ev.mean_objective!r}"
        )
    flows = [
        {"kind": "raw", "origin": i, "destination": j, "expected_flow": v}
        for (i, j), v in sorted(ev.expected_raw_flow.items())
    ] + [
        {"kind": "drug", "origin": j, "destination": k, "expected_flow": v}
        for (j, k), v in sorted(ev.expected_drug_flow.items())
    ]
    return RunArtifact(
        config_echo=config_echo,
        saa=report,
        per_country=country_rows(instance, report.incumbent, ev),
        flows=flows,
        timings=dict(timings or {}),
    )


def artifact_to_dict(artifact: RunArtifact) -> dict:
    return {
        "config": artifact.config_echo,
        "saa": saa_report_to_dict(artifact.saa),
        "per_country": artifact.per_country,
        "flows": artifact.flows,
    }


def artifact_from_dict(d: dict) -> RunArtifact:
    return RunArtifact(
        config_echo=dict(d["config"]),
        saa=saa_report_from_dict(d["saa"]),
        per_country=d["per_country"],
        flows=d["flows"],
        timings={},
    )


def load_artifact(path) -> RunArtifact:
    path = Path(path)
    raw = read_json(path, f"run report {path}")
    try:
        return artifact_from_dict(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"run report {path} is incomplete or malformed: {exc!r}") from exc


def _assert_finite(node, where: str) -> None:
    if isinstance(node, float):
        if not math.isfinite(node):
            raise ValidationError(f"non-finite number in {where}")
    elif isinstance(node, dict):
        for key, v in node.items():
            _assert_finite(v, f"{where}.{key}")
    elif isinstance(node, (list, tuple)):
        for n, v in enumerate(node):
            _assert_finite(v, f"{where}[{n}]")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@contextmanager
def _artifact_file(path: Path):
    """Open `path` for writing, creating its directory; an OSError names the path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def check_writable_dir(out_dir) -> None:
    """Create `out_dir` and write (then drop) a probe file in it; an OSError names the path."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryFile(dir=out):
            pass
    except OSError as exc:
        raise ValidationError(f"cannot write {out}: {exc}") from exc


def check_writable_file(path) -> None:
    """Create `path`'s directory and open `path` for appending; an OSError names the path.

    A file the probe created is removed again, and an existing one keeps its bytes.
    """
    path = Path(path)
    try:
        existed = path.exists()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8"):
            pass
        if not existed:
            path.unlink()
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def write_json(path, payload) -> None:
    """One JSON artifact: sorted keys, two-space indent, trailing newline."""
    path = Path(path)
    _assert_finite(payload, path.stem)
    with _artifact_file(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list, rows: list) -> None:
    with _artifact_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in header])


def write_country_csv(out_dir, per_country: list) -> None:
    """shortage_by_country.csv from `country_rows` output."""
    _write_csv(Path(out_dir) / "shortage_by_country.csv", COUNTRY_COLUMNS, per_country)


def dump_scenarios(instance: Instance, scenarios: Scenarios, path) -> None:
    """Audit CSV: one row per scenario of the stack, `scenarios[w]`, with
    every sampled field plus G and the price bump."""
    header = (
        ["scenario", "probability"]
        + [f"supplier_avail:{i}" for i in instance.suppliers]
        + [f"plant_avail:{j}" for j in instance.plant_candidates]
        + [f"demand:{k}" for k in instance.countries]
        + [f"ban_general:{k}" for k in instance.countries]
        + [f"ban_ally:{k}" for k in instance.ally_group]
        + ["retained_exports", "price_increase"]
    )
    allies = [instance.countries.index(k) for k in instance.ally_group]
    with _artifact_file(Path(path)) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for w, s in enumerate(scenarios):
            row = (
                [w, repr(s.probability)]
                + [repr(v) for v in s.supplier_avail.tolist()]
                + [repr(v) for v in s.plant_avail.tolist()]
                + [repr(v) for v in s.demand.tolist()]
                + s.flags[:, 0].tolist()
                + s.flags[allies, 1].tolist()
                + [repr(s.retained_exports), repr(s.price_increase)]
            )
            writer.writerow(row)


def write_report(artifact: RunArtifact, out_dir) -> None:
    out = Path(out_dir)
    write_json(out / "report.json", artifact_to_dict(artifact))
    write_country_csv(out, artifact.per_country)
    _write_csv(out / "shortage_by_income.csv", INCOME_COLUMNS, income_rows(artifact.per_country))
    _write_csv(out / "flows.csv", ["kind", "origin", "destination", "expected_flow"], artifact.flows)

    saa, header = artifact.saa, ["metric", "replication", "value"]
    bounds = [("z_N", m, z) for m, z in enumerate(saa.replication_objectives)]
    bounds += [("L", "", saa.lower_bound), ("U", "", saa.upper_bound), ("gap", "", saa.gap)]
    _write_csv(out / "bounds.csv", header, [dict(zip(header, row)) for row in bounds])

    if artifact.timings:
        write_json(out / "timings.json", artifact.timings)
