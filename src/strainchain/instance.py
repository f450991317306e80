"""Problem data model: country sets, costs, capacities, and risk parameters.

An Instance is immutable by convention after construction. Trade-route arc
sets for the ally relationships are derived on demand from the country sets
instead of being stored, so the file format has no redundancy to keep
consistent. Country iteration order is always the lexicographic (canonical)
order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .stats import ordered_total

INCOME_LEVELS = ("HIC", "UMIC", "LMIC", "LIC")

PMF_WEIGHT_TOL = 1e-9  # max deviation of a strain PMF's total probability from 1
# largest magnitude of any number: a product of three stays below 1e300, so
# costs, flows and their sums never overflow a float
MAGNITUDE_LIMIT = 1e100


class ValidationError(ValueError):
    """Instance or design data violates a documented invariant."""


class InstanceFormatError(ValidationError):
    """Instance file could not be parsed into the expected structure."""


@dataclass(frozen=True)
class DiscretePmf:
    """Discrete distribution over capacity fractions in [0, 1]."""

    levels: tuple[float, ...]
    probs: tuple[float, ...]

    def mean(self) -> float:
        return ordered_total(l * p for l, p in zip(self.levels, self.probs))

    def to_dict(self) -> dict:
        return {"levels": list(self.levels), "probs": list(self.probs)}

    @classmethod
    def from_dict(cls, d: dict) -> "DiscretePmf":
        return cls(levels=tuple(d["levels"]), probs=tuple(d["probs"]))


@dataclass(frozen=True)
class Instance:
    countries: tuple[str, ...]            # all demand countries, canonical order
    suppliers: tuple[str, ...]            # raw-material sources, subset of countries
    plant_candidates: tuple[str, ...]     # candidate plant locations, subset of countries
    interest_country: str                 # the country whose alliances matter
    allies: tuple[str, ...]               # bilateral allies of interest_country (excludes it)
    income_level: dict                    # country -> HIC/UMIC/LMIC/LIC, reporting only
    raw_cost: dict                        # supplier -> money per unit of raw material
    production_cost: dict                 # plant -> money per unit produced
    fixed_cost: dict                      # plant -> money per year if opened
    transport1: dict                      # (supplier, plant) -> money per unit, 0 on self pairs
    transport2: dict                      # (plant, country) -> money per unit, 0 on self pairs
    shortage_price: dict                  # country -> baseline money per unit of unmet demand
    supplier_capacity: dict               # supplier -> units
    plant_capacity: dict                  # plant -> units
    exports_general: dict                 # country -> exogenous export units to the open market
    exports_to_c1: dict                   # country -> exogenous export units on the c1/ally channel
    beta: float                           # money per unit^2: price bump per retained export unit
    ban_threshold: float                  # supply-availability fraction below which bans can fire
    export_prob: dict                     # country -> probability of allowing exports
    ally_export_prob: dict                # ally-group country -> second-chance export probability
    demand_mean: dict                     # country -> units
    demand_sd: dict                       # country -> units
    supplier_avail_prob: dict             # supplier -> probability the facility operates at all
    plant_avail_prob: dict                # plant -> probability the facility operates at all
    supplier_strain_pmf: dict             # supplier -> DiscretePmf of partial capacity
    plant_strain_pmf: dict                # plant -> DiscretePmf of partial capacity

    # -- derived sets ------------------------------------------------------

    @property
    def ally_group(self) -> tuple[str, ...]:
        """Allies plus the interest country itself, canonical order."""
        return tuple(sorted(set(self.allies) | {self.interest_country}))

    @cached_property
    def exports(self) -> np.ndarray:
        """(countries x 2) exogenous exports in country order: to the open
        market, then on the c1/ally channel. Computed once per instance."""
        return np.array(
            [(self.exports_general[k], self.exports_to_c1[k]) for k in self.countries],
            dtype=float,
        )

    def ally_supply_arcs(self) -> set[tuple[str, str]]:
        """Raw-material arcs routed through the interest country's alliances."""
        c1 = self.interest_country
        allies = set(self.allies)
        arcs = set()
        if c1 in self.plant_candidates:
            arcs.update((i, c1) for i in self.suppliers if i in allies)
        if c1 in self.suppliers:
            arcs.update((c1, j) for j in self.plant_candidates if j in allies)
        return arcs

    def ally_distribution_arcs(self) -> set[tuple[str, str]]:
        """Drug arcs routed through the interest country's alliances."""
        c1 = self.interest_country
        allies = set(self.allies)
        arcs = {(j, c1) for j in self.plant_candidates if j in allies}
        if c1 in self.plant_candidates:
            arcs.update((c1, k) for k in allies)
        return arcs

    def perturbed(self, **changes) -> "Instance":
        """Copy with replaced fields; used by policy studies, never mutates self."""
        return replace(self, **changes)


@dataclass(frozen=True)
class Design:
    """First-stage plant-opening decision."""

    open: dict  # plant candidate -> 0/1

    def open_plants(self) -> tuple[str, ...]:
        return tuple(sorted(k for k, v in self.open.items() if v))

    def key(self) -> tuple[int, ...]:
        """Hashable canonical form (values in sorted candidate order)."""
        return tuple(int(self.open[j]) for j in sorted(self.open))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def is_finite_number(value) -> bool:
    """An int or float that is finite; a bool is not a number here."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)


def _check_map(mapping: dict, keys, what: str, lo: float = 0.0, hi: float = MAGNITUDE_LIMIT) -> None:
    keys = list(keys)
    _require(isinstance(mapping, dict), f"{what} must be a map of country ids")
    if set(mapping) != set(keys):
        missing = sorted(set(keys) - set(mapping))
        extra = sorted(set(mapping) - set(keys))
        raise ValidationError(f"{what}: keys mismatch (missing={missing}, extra={extra})")
    for k in keys:
        v = mapping[k]
        _require(is_finite_number(v), f"{what}[{k}] is not a finite number, got {v!r}")
        if not lo <= v <= hi:
            raise ValidationError(f"{what} out of [{lo}, {hi}] for {k!r}")


def validate_instance(inst: Instance) -> None:
    """Raise ValidationError naming the first violated invariant."""
    K = inst.countries
    _require(len(K) >= 1, "country list is empty")
    _require(all(isinstance(k, str) and k for k in K), "country ids must be non-empty strings")
    _require(len(set(K)) == len(K), "duplicate country ids")
    _require(tuple(sorted(K)) == K, "countries not in canonical (sorted) order")

    kset = set(K)
    _require(set(inst.suppliers) <= kset, "suppliers not a subset of countries")
    _require(set(inst.plant_candidates) <= kset, "plant_candidates not a subset of countries")
    _require(len(inst.suppliers) >= 1, "no suppliers")
    _require(len(inst.plant_candidates) >= 1, "no plant candidates")
    _require(isinstance(inst.interest_country, str) and inst.interest_country in kset,
             "interest_country not in countries")
    _require(set(inst.allies) <= kset, "allies not a subset of countries")
    for name in ("suppliers", "plant_candidates", "allies"):
        ids = getattr(inst, name)
        repeated = next((k for i, k in enumerate(ids) if k in ids[:i]), None)
        _require(repeated is None, f"{name}: duplicate id {repeated!r}")
    _require(inst.interest_country not in inst.allies, "interest_country listed as its own ally")

    _require(isinstance(inst.income_level, dict), "income_level must be a map of country ids")
    if set(inst.income_level) != kset:
        raise ValidationError("income_level: keys mismatch with countries")
    bad = [k for k in K if inst.income_level[k] not in INCOME_LEVELS]
    _require(not bad, f"income_level invalid for {bad[:3]}")

    _check_map(inst.raw_cost, inst.suppliers, "raw_cost")
    _check_map(inst.production_cost, inst.plant_candidates, "production_cost")
    _check_map(inst.fixed_cost, inst.plant_candidates, "fixed_cost")
    _check_map(inst.shortage_price, K, "shortage_price")
    _check_map(inst.supplier_capacity, inst.suppliers, "supplier_capacity")
    _check_map(inst.plant_capacity, inst.plant_candidates, "plant_capacity")
    _check_map(inst.exports_general, K, "exports_general")
    _check_map(inst.exports_to_c1, K, "exports_to_c1")
    _check_map(inst.export_prob, K, "export_prob", 0.0, 1.0)
    _check_map(inst.ally_export_prob, inst.ally_group, "ally_export_prob", 0.0, 1.0)
    _check_map(inst.demand_mean, K, "demand_mean")
    _check_map(inst.demand_sd, K, "demand_sd")
    _check_map(inst.supplier_avail_prob, inst.suppliers, "supplier_avail_prob", 0.0, 1.0)
    _check_map(inst.plant_avail_prob, inst.plant_candidates, "plant_avail_prob", 0.0, 1.0)

    for name in ("beta", "ban_threshold"):
        value = getattr(inst, name)
        _require(is_finite_number(value), f"{name} is not a finite number, got {value!r}")
    _require(0.0 <= inst.beta <= MAGNITUDE_LIMIT, f"beta out of [0, {MAGNITUDE_LIMIT}]")
    _require(0.0 <= inst.ban_threshold <= 1.0, "ban_threshold out of [0,1]")

    t1_keys = {(i, j) for i in inst.suppliers for j in inst.plant_candidates}
    if set(inst.transport1) != t1_keys:
        raise ValidationError("transport1: keys must cover all (supplier, plant) pairs")
    for (i, j), v in inst.transport1.items():
        _require(is_finite_number(v), f"transport1 is not a finite number for ({i}, {j})")
        _require(0.0 <= v <= MAGNITUDE_LIMIT,
                 f"transport1 out of [0, {MAGNITUDE_LIMIT}] for ({i}, {j})")
        if i == j:
            _require(v == 0.0, f"transport1 must be 0 on self pair ({i}, {j})")
    t2_keys = {(j, k) for j in inst.plant_candidates for k in K}
    if set(inst.transport2) != t2_keys:
        raise ValidationError("transport2: keys must cover all (plant, country) pairs")
    for (j, k), v in inst.transport2.items():
        _require(is_finite_number(v), f"transport2 is not a finite number for ({j}, {k})")
        _require(0.0 <= v <= MAGNITUDE_LIMIT,
                 f"transport2 out of [0, {MAGNITUDE_LIMIT}] for ({j}, {k})")
        if j == k:
            _require(v == 0.0, f"transport2 must be 0 on self pair ({j}, {k})")

    for what, pmfs, keys in (
        ("supplier_strain_pmf", inst.supplier_strain_pmf, inst.suppliers),
        ("plant_strain_pmf", inst.plant_strain_pmf, inst.plant_candidates),
    ):
        if set(pmfs) != set(keys):
            raise ValidationError(f"{what}: keys mismatch")
        for k in keys:
            pmf = pmfs[k]
            _require(len(pmf.levels) == len(pmf.probs) and len(pmf.levels) >= 1,
                     f"{what}[{k}]: levels/probs length mismatch")
            _require(all(is_finite_number(v) for v in pmf.levels + pmf.probs),
                     f"{what}[{k}]: levels and probs must be finite numbers")
            _require(all(0.0 <= l <= 1.0 for l in pmf.levels),
                     f"{what}[{k}]: support outside [0,1]")
            _require(all(p >= 0.0 for p in pmf.probs), f"{what}[{k}]: negative probability")
            total = ordered_total(pmf.probs)
            _require(abs(total - 1.0) <= PMF_WEIGHT_TOL,
                     f"{what}[{k}]: probabilities sum to {total!r}, not 1")


def make_instance(**kwargs) -> Instance:
    """Build a canonical, validated Instance.

    Country-like tuples are sorted, cross-country maps are left as given.
    """
    for name in ("countries", "suppliers", "plant_candidates", "allies"):
        ids = kwargs[name]
        _require(isinstance(ids, (list, tuple)) and all(isinstance(k, str) for k in ids),
                 f"{name} must be a list of country ids, got {ids!r}")
        kwargs[name] = tuple(sorted(ids))
    inst = Instance(**kwargs)
    validate_instance(inst)
    return inst


def validate_design(instance: Instance, design: Design) -> None:
    """Check a first-stage decision against an instance."""
    if set(design.open) != set(instance.plant_candidates):
        raise ValidationError("design/instance mismatch: design keys differ from plant candidates")
    for j, v in design.open.items():
        if v not in (0, 1):
            raise ValidationError(f"design/instance mismatch: non-binary value {v!r} at {j!r}")
    if sum(design.open.values()) < 1:
        raise ValidationError("no plant open")


def fixed_cost(instance: Instance, design: Design) -> float:
    """First-stage cost of the design's open plants, added in plant order."""
    return ordered_total(
        instance.fixed_cost[j] * design.open[j] for j in instance.plant_candidates
    )


# -- file format -----------------------------------------------------------

def _pairs_to_nested(pairs: dict) -> dict:
    out: dict = {}
    for (a, b), v in sorted(pairs.items()):
        out.setdefault(a, {})[b] = v
    return out


def _nested_to_pairs(nested: dict, what: str) -> dict:
    out = {}
    try:
        for a, row in nested.items():
            for b, v in row.items():
                out[(a, b)] = v
    except AttributeError as exc:
        raise InstanceFormatError(f"{what}: expected nested maps of country ids") from exc
    return out


def instance_to_dict(inst: Instance) -> dict:
    d = {}
    for f in fields(Instance):
        v = getattr(inst, f.name)
        if f.name in ("transport1", "transport2"):
            v = _pairs_to_nested(v)
        elif f.name in ("supplier_strain_pmf", "plant_strain_pmf"):
            v = {k: pmf.to_dict() for k, pmf in sorted(v.items())}
        elif isinstance(v, tuple):
            v = list(v)
        elif isinstance(v, dict):
            v = dict(sorted(v.items()))
        d[f.name] = v
    return d


def instance_from_dict(d: dict) -> Instance:
    expected = {f.name for f in fields(Instance)}
    missing = sorted(expected - set(d))
    if missing:
        raise InstanceFormatError(f"missing top-level fields: {missing}")
    extra = sorted(set(d) - expected)
    if extra:
        raise InstanceFormatError(f"unknown top-level fields: {extra}")
    kwargs = dict(d)
    for name in ("transport1", "transport2"):
        kwargs[name] = _nested_to_pairs(kwargs[name], name)
    for name in ("supplier_strain_pmf", "plant_strain_pmf"):
        try:
            kwargs[name] = {k: DiscretePmf.from_dict(v) for k, v in kwargs[name].items()}
        except (AttributeError, KeyError, TypeError) as exc:
            raise InstanceFormatError(f"{name}: expected maps with 'levels'/'probs'") from exc
    return make_instance(**kwargs)


def load_instance(path) -> Instance:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InstanceFormatError(f"cannot read instance file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"parse error in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise InstanceFormatError(f"{path}: top level must be a JSON object")
    return instance_from_dict(raw)


def write_instance(inst: Instance, path) -> None:
    """Write the canonical textual form (sorted keys, round-trip exact floats)."""
    path = Path(path)
    payload = json.dumps(instance_to_dict(inst), indent=2, sort_keys=True)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(payload + "\n", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc
