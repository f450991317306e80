"""Named policy experiments over a common instance.

Every study is a pure function of (instance, config, seeds): arms share the
same base seed (common random numbers), derive private perturbed instance
copies, and return per-arm reports plus the comparisons the experiment is
about. Shortage fractions (from report's `country_rows`/`income_rows`, as
in the CSVs) are reported both demand-weighted and country-averaged per
income class since either aggregation is defensible.

The six arms of the export-ban study share one `SaaMemo`: cases 4 and 5
optimize exactly as case 0 does and so read its replications back, and an
evaluation that another case already made on the same batch is read back
too. Those tables are keyed by every input of the shared computation, so
a hit returns what a lone `run_saa` would compute; arms may hold the same
design and evaluation objects, which are read-only. The memo also answers
each scenario LP that an earlier arm already solved from its answer table
(see `saa`): an optimal answer of the same LP, which for an LP with
several optima may be another one than a lone run would find. Its fourth
table holds each scenario batch's draws before any override applies, so
the arms draw the study's distinct batches once and each applies only its
own ban overrides to them, bit for bit as a fresh draw. The two arms
of every other study have no work in common (one runs on a perturbed
instance copy, or their overrides differ), so they run without a memo.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from .instance import Instance, ValidationError
from .report import country_rows, shortage_by_income
from .saa import SaaConfig, SaaMemo, SaaReport, run_saa
from .scenarios import RiskOverrides
from .stats import ordered_total

STUDY_KINDS = (
    "export_ban_cases",
    "alliances_off",
    "pricing",
    "backshoring",
    "transport_sensitivity",
    "rho_swap",
)

PRICING_SCHEMES = ("uniform_to_c1_price", "lift_lmic_lic_50", "lift_lmic_lic_100")
BACKSHORING_QUALITIES = ("base", "moderate", "high")

# disruption-rate reduction per quality tier: new_p = 1 - keep * (1 - old_p)
QUALITY_DISRUPTION_KEEP = {"moderate": 0.5, "high": 0.25}

# the one StudySpec field besides `kind` that each kind reads
KIND_FIELD = {"pricing": "scheme", "backshoring": "quality", "rho_swap": "pairs"}


@dataclass(frozen=True)
class StudySpec:
    kind: str
    scheme: str | None = None          # pricing
    quality: str = "base"              # backshoring
    pairs: tuple = ()                  # rho_swap country pairs

    def validated(self) -> "StudySpec":
        if self.kind not in STUDY_KINDS:
            raise ValidationError(f"unknown study kind {self.kind!r}")
        if self.kind == "pricing" and self.scheme not in PRICING_SCHEMES:
            raise ValidationError(f"unknown pricing scheme {self.scheme!r}")
        if self.kind == "backshoring" and self.quality not in BACKSHORING_QUALITIES:
            raise ValidationError(f"unknown plant quality {self.quality!r}")
        return self


@dataclass(frozen=True)
class ArmResult:
    name: str
    changes: dict                      # human-readable description of the arm's setup
    report: SaaReport
    shortage_by_income: dict           # income class -> both aggregate fractions
    instance: Instance                 # the (possibly perturbed) instance this arm ran on
    config: SaaConfig                  # the resolved per-arm settings


@dataclass(frozen=True)
class StudyResult:
    kind: str
    arms: list
    comparison: dict = field(default_factory=dict)


def _country_fractions(arm: ArmResult) -> dict:
    rows = country_rows(arm.instance, arm.report.incumbent, arm.report.evaluation)
    return {row["country"]: row["shortage_fraction"] for row in rows}


def _arm(
    name: str, instance: Instance, config: SaaConfig, changes: dict, memo: SaaMemo | None = None
) -> ArmResult:
    report = run_saa(instance, config, memo)
    return ArmResult(
        name=name,
        changes=changes,
        report=report,
        shortage_by_income=shortage_by_income(
            country_rows(instance, report.incumbent, report.evaluation)
        ),
        instance=instance,
        config=config,
    )


def run_export_ban_cases(instance: Instance, saa_template: SaaConfig) -> StudyResult:
    """Risk levels 0..3 plus the two plans optimized as if bans never happen."""
    memo = SaaMemo()  # cases 4 and 5 reuse case 0's replications
    none = RiskOverrides(force_export_prob_one=True)
    base = RiskOverrides()
    higher_threshold = RiskOverrides(ban_threshold=0.9)
    scaled = RiskOverrides(export_prob_scale=0.8)
    cases = [
        ("case0_no_risk", none, none),
        ("case1_low_risk", base, base),
        ("case2_moderate_risk", higher_threshold, higher_threshold),
        ("case3_high_risk", scaled, scaled),
        ("case4_misspecified_low", none, base),
        ("case5_misspecified_high", none, scaled),
    ]
    arms = []
    for name, opt, ev in cases:
        cfg = replace(saa_template, optimize_overrides=opt, evaluate_overrides=ev)
        changes = {"optimize_overrides": asdict(opt), "evaluate_overrides": asdict(ev)}
        arms.append(_arm(name, instance, cfg, changes, memo))
    comparison = {
        arm.name: {
            "open_plants": list(arm.report.incumbent.open_plants()),
            "eval_objective": arm.report.eval_objective,
            "sales_volume": arm.report.evaluation.sales_volume,
        }
        for arm in arms
    }
    return StudyResult(kind="export_ban_cases", arms=arms, comparison=comparison)


def run_alliances_off(instance: Instance, saa_template: SaaConfig) -> StudyResult:
    """Same instance with and without the ally second chance on export bans."""
    def with_flag(ov: RiskOverrides) -> RiskOverrides:
        return replace(ov, alliances_off=True)

    on_cfg = saa_template
    off_cfg = replace(
        saa_template,
        optimize_overrides=with_flag(saa_template.optimize_overrides),
        evaluate_overrides=with_flag(saa_template.evaluate_overrides),
    )
    arm_on = _arm("alliances_on", instance, on_cfg, {"alliances_off": False})
    arm_off = _arm("alliances_off", instance, off_cfg, {"alliances_off": True})

    frac_on, frac_off = _country_fractions(arm_on), _country_fractions(arm_off)
    deltas_ppt = {
        k: 100.0 * (frac_off[k] - frac_on[k]) for k in instance.countries
    }
    comparison = {
        "design_changed": arm_on.report.incumbent.open != arm_off.report.incumbent.open,
        "shortage_delta_ppt": deltas_ppt,
    }
    return StudyResult(kind="alliances_off", arms=[arm_on, arm_off], comparison=comparison)


def apply_pricing_scheme(instance: Instance, scheme: str) -> Instance:
    prices = dict(instance.shortage_price)
    if scheme == "uniform_to_c1_price":
        anchor = prices[instance.interest_country]
        prices = {k: anchor for k in instance.countries}
    elif scheme == "lift_lmic_lic_50":
        prices = {
            k: p * (1.5 if instance.income_level[k] in ("LMIC", "LIC") else 1.0)
            for k, p in prices.items()
        }
    elif scheme == "lift_lmic_lic_100":
        prices = {
            k: p * (2.0 if instance.income_level[k] in ("LMIC", "LIC") else 1.0)
            for k, p in prices.items()
        }
    else:
        raise ValidationError(f"unknown pricing scheme {scheme!r}")
    return instance.perturbed(shortage_price=prices)


def run_pricing(instance: Instance, saa_template: SaaConfig, scheme: str) -> StudyResult:
    lifted = apply_pricing_scheme(instance, scheme)
    arm_base = _arm("base_prices", instance, saa_template, {"scheme": None})
    arm_new = _arm(scheme, lifted, saa_template, {"scheme": scheme})
    comparison = {
        "eval_objective_delta": arm_new.report.eval_objective - arm_base.report.eval_objective,
        "shortage_by_income_base": arm_base.shortage_by_income,
        "shortage_by_income_new": arm_new.shortage_by_income,
    }
    return StudyResult(kind="pricing", arms=[arm_base, arm_new], comparison=comparison)


def apply_backshoring_quality(instance: Instance, quality: str) -> Instance:
    if quality == "base":
        return instance
    if quality not in QUALITY_DISRUPTION_KEEP:
        raise ValidationError(f"unknown plant quality {quality!r}")
    c1 = instance.interest_country
    keep = QUALITY_DISRUPTION_KEEP[quality]
    avail = dict(instance.plant_avail_prob)
    avail[c1] = 1.0 - keep * (1.0 - avail[c1])
    best_pmf = max(instance.plant_strain_pmf.values(), key=lambda p: p.mean())
    pmfs = dict(instance.plant_strain_pmf)
    pmfs[c1] = best_pmf
    return instance.perturbed(plant_avail_prob=avail, plant_strain_pmf=pmfs)


def _home_plant(instance: Instance) -> str:
    """The interest country, which backshoring opens as a plant."""
    c1 = instance.interest_country
    if c1 not in instance.plant_candidates:
        raise ValidationError(f"interest country {c1!r} is not a plant candidate")
    return c1


def run_backshoring(
    instance: Instance, saa_template: SaaConfig, quality: str = "base"
) -> StudyResult:
    c1 = _home_plant(instance)
    shore_instance = apply_backshoring_quality(instance, quality)
    forced_cfg = replace(
        saa_template, forced_open={**saa_template.forced_open, c1: 1}
    )
    arm_free = _arm("unforced", instance, saa_template, {"forced": None})
    arm_forced = _arm(
        "forced_home_plant", shore_instance, forced_cfg, {"forced": {c1: 1}, "quality": quality}
    )

    ev = arm_forced.report.evaluation
    inflow_c1 = ordered_total(
        ev.expected_drug_flow[(j, c1)] for j in instance.plant_candidates
    )
    domestic = ev.expected_drug_flow.get((c1, c1), 0.0)
    produced = ordered_total(ev.expected_drug_flow[(c1, k)] for k in instance.countries)
    comparison = {
        "forced_minus_unforced_objective": arm_forced.report.eval_objective
        - arm_free.report.eval_objective,
        "home_shortage_fraction": _country_fractions(arm_forced)[c1],
        "home_plant_utilization": produced / instance.plant_capacity[c1],
        "home_demand_domestic_share": domestic / inflow_c1 if inflow_c1 > 0 else 0.0,
    }
    return StudyResult(kind="backshoring", arms=[arm_free, arm_forced], comparison=comparison)


def apply_sensitivity_variant(instance: Instance, variant: str, pairs=()) -> Instance:
    if variant == "transport_x2":
        return instance.perturbed(
            transport1={arc: 2.0 * v for arc, v in instance.transport1.items()},
            transport2={arc: 2.0 * v for arc, v in instance.transport2.items()},
        )
    if variant == "rho_swap":
        if not pairs:
            raise ValidationError("rho_swap needs at least one country pair")
        prob = dict(instance.export_prob)
        for pair in pairs:
            if len(pair) != 2 or pair[0] not in prob or pair[1] not in prob:
                raise ValidationError(f"invalid swap pair {pair!r}")
            a, b = pair
            prob[a], prob[b] = prob[b], prob[a]
        return instance.perturbed(export_prob=prob)
    raise ValidationError(f"unknown sensitivity variant {variant!r}")


def run_sensitivity(
    instance: Instance, saa_template: SaaConfig, variant: str, pairs=()
) -> StudyResult:
    perturbed = apply_sensitivity_variant(instance, variant, pairs)
    arm_base = _arm("base", instance, saa_template, {"variant": None})
    arm_new = _arm(variant, perturbed, saa_template, {"variant": variant, "pairs": list(pairs)})
    comparison = {
        "eval_objective_delta": arm_new.report.eval_objective - arm_base.report.eval_objective,
        "design_changed": arm_base.report.incumbent.open != arm_new.report.incumbent.open,
    }
    return StudyResult(kind="transport_sensitivity" if variant == "transport_x2" else variant,
                       arms=[arm_base, arm_new], comparison=comparison)


def check_study(instance: Instance, spec: StudySpec) -> None:
    """Raise the ValidationError that running `spec` on `instance` would, solving nothing."""
    if spec.kind == "backshoring":
        _home_plant(instance)
    elif spec.kind == "rho_swap":
        apply_sensitivity_variant(instance, "rho_swap", spec.pairs)


def run_study(instance: Instance, spec: StudySpec, saa_template: SaaConfig) -> StudyResult:
    spec = spec.validated()
    if spec.kind == "export_ban_cases":
        return run_export_ban_cases(instance, saa_template)
    if spec.kind == "alliances_off":
        return run_alliances_off(instance, saa_template)
    if spec.kind == "pricing":
        return run_pricing(instance, saa_template, spec.scheme)
    if spec.kind == "backshoring":
        return run_backshoring(instance, saa_template, spec.quality)
    variant = "transport_x2" if spec.kind == "transport_sensitivity" else "rho_swap"
    return run_sensitivity(instance, saa_template, variant, spec.pairs)
