import json

import pytest

from strainchain import (
    Design,
    ValidationError,
    generate_synthetic_instance,
    load_instance,
    validate_design,
    validate_instance,
    write_instance,
)
from strainchain.instance import InstanceFormatError, instance_to_dict

from helpers import tiny_instance


def test_minimal_one_country_instance_roundtrips(tmp_path):
    inst = tiny_instance(countries=("a",))
    path = tmp_path / "one.json"
    write_instance(inst, path)
    loaded = load_instance(path)
    assert len(loaded.countries) == 1
    assert loaded == inst


def test_export_prob_out_of_range_is_rejected(tmp_path):
    inst = tiny_instance(countries=("a",))
    raw = instance_to_dict(inst)
    raw["export_prob"]["a"] = 1.2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ValidationError, match="export_prob out of"):
        load_instance(path)


# neither a string nor a bool counts as a number, nor as a list of country ids
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), "x", True])
@pytest.mark.parametrize(
    "where, message",
    [
        (("beta",), "beta is not a finite"),
        (("fixed_cost", "a"), r"fixed_cost\[a\] is not a finite"),
        (("demand_mean", "a"), r"demand_mean\[a\] is not a finite"),
        (("transport2", "a", "a"), "transport2 is not a finite"),
        (("ban_threshold",), "ban_threshold is not a finite"),
        (("transport1", "a", "a"), "transport1 is not a finite"),
        (("supplier_strain_pmf", "a", "levels", 0), r"supplier_strain_pmf\[a\]: .* finite"),
        (("plant_strain_pmf", "a", "probs", 0), r"plant_strain_pmf\[a\]: .* finite"),
        (("countries",), "countries must be a list"),
        (("income_level",), "income_level must be a map"),
        (("plant_strain_pmf",), "plant_strain_pmf: expected maps"),
    ],
)
def test_non_finite_numbers_are_rejected_at_load(tmp_path, where, message, value):
    raw = instance_to_dict(tiny_instance(countries=("a",)))
    *outer, last = where
    target = raw
    for key in outer:
        target = target[key]
    target[last] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="utf-8")  # Infinity / NaN literals
    with pytest.raises(ValidationError, match=message):
        load_instance(path)


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"countries": [', encoding="utf-8")
    with pytest.raises(InstanceFormatError, match="line 1"):
        load_instance(path)


def test_missing_field_is_named(tmp_path):
    inst = tiny_instance(countries=("a",))
    raw = instance_to_dict(inst)
    del raw["beta"]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(InstanceFormatError, match="beta"):
        load_instance(path)


def fig_topology_fixture():
    """Six countries, two allies of c1; everyone supplies, everyone can host."""
    return tiny_instance(
        countries=("c1", "c2", "c3", "c4", "c5", "c6"),
        c1="c1",
        allies=("c2", "c4"),
        exports_general={f"c{n}": float(n) for n in range(1, 7)},
        exports_to_c1={f"c{n}": float(10 + n) for n in range(1, 7)},
    )


def test_ally_arcs_match_hand_enumeration():
    inst = fig_topology_fixture()
    # by hand: ally raw/drug arcs run through c1 only, other endpoint in {c2, c4}
    expected_raw = {("c2", "c1"), ("c4", "c1"), ("c1", "c2"), ("c1", "c4")}
    expected_dist = {("c2", "c1"), ("c4", "c1"), ("c1", "c2"), ("c1", "c4")}
    assert inst.ally_supply_arcs() == expected_raw
    assert inst.ally_distribution_arcs() == expected_dist


def test_derived_arc_sets_nest_and_avoid_self_loops():
    for seed in range(20):
        inst = generate_synthetic_instance(3, 4, 8, seed=seed)
        R = {(i, j) for i in inst.suppliers for j in inst.plant_candidates if i != j}
        P = {(j, k) for j in inst.plant_candidates for k in inst.countries if j != k}
        assert inst.ally_supply_arcs() <= R
        assert inst.ally_distribution_arcs() <= P
        assert all(a != b for a, b in R | P)


def test_roundtrip_is_byte_exact(tmp_path):
    inst = generate_synthetic_instance(3, 4, 9, seed=11)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_instance(inst, p1)
    loaded = load_instance(p1)
    assert loaded == inst
    write_instance(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_validate_design_accepts_single_open_plant():
    inst = tiny_instance(countries=("a", "b", "c"))
    validate_design(inst, Design(open={"a": 1, "b": 0, "c": 0}))


def test_validate_design_rejects_all_closed():
    inst = tiny_instance(countries=("a", "b", "c"))
    with pytest.raises(ValidationError, match="no plant open"):
        validate_design(inst, Design(open={"a": 0, "b": 0, "c": 0}))


def test_validate_design_rejects_key_mismatch():
    inst = tiny_instance(countries=("a", "b", "c"))
    with pytest.raises(ValidationError, match="design/instance mismatch"):
        validate_design(inst, Design(open={"a": 1, "b": 0}))


def test_generator_is_deterministic_in_seed():
    first = generate_synthetic_instance(3, 4, 8, seed=7)
    second = generate_synthetic_instance(3, 4, 8, seed=7)
    assert first == second
    assert first != generate_synthetic_instance(3, 4, 8, seed=8)


def test_high_risk_profile_scales_export_probabilities_by_0_8():
    low = generate_synthetic_instance(3, 4, 8, seed=5, risk_profile="low")
    high = generate_synthetic_instance(3, 4, 8, seed=5, risk_profile="high")
    for k in low.countries:
        assert high.export_prob[k] == pytest.approx(0.8 * low.export_prob[k], abs=0.0)


def test_generated_instances_validate_for_100_seeds():
    for seed in range(100):
        inst = generate_synthetic_instance(2, 3, 6, seed=seed)
        validate_instance(inst)  # closure under the loader's own checks


def test_generator_income_round_robin_and_price_ordering():
    inst = generate_synthetic_instance(3, 4, 8, seed=3)
    levels = [inst.income_level[k] for k in inst.countries]
    assert levels == ["HIC", "UMIC", "LMIC", "LIC", "HIC", "UMIC", "LMIC", "LIC"]
    by_level = {}
    for k in inst.countries:
        by_level.setdefault(inst.income_level[k], []).append(inst.shortage_price[k])
    assert min(by_level["HIC"]) > max(by_level["LMIC"])
    assert min(by_level["UMIC"]) > max(by_level["LIC"])


def test_generator_export_probabilities_sit_near_the_low_risk_average():
    inst = generate_synthetic_instance(3, 4, 40, seed=2)
    mean_rho = sum(inst.export_prob.values()) / len(inst.countries)
    assert 0.96 < mean_rho < 0.99


def test_generator_rejects_inconsistent_sizes():
    with pytest.raises(ValueError):
        generate_synthetic_instance(5, 2, 3, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic_instance(0, 1, 1, seed=0)


@pytest.mark.parametrize("seed", [-1, 2.5, "3", True])
def test_generator_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
        generate_synthetic_instance(3, 4, 8, seed=seed)


def test_transport_self_cost_must_be_zero(tmp_path):
    inst = tiny_instance(countries=("a", "b"))
    raw = instance_to_dict(inst)
    raw["transport1"]["a"]["a"] = 0.5
    path = tmp_path / "selfcost.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ValidationError, match="self pair"):
        load_instance(path)


def test_strain_pmf_must_sum_to_one(tmp_path):
    inst = tiny_instance(countries=("a",))
    raw = instance_to_dict(inst)
    raw["plant_strain_pmf"]["a"] = {"levels": [0.8, 1.0], "probs": [0.6, 0.5]}
    path = tmp_path / "pmf.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ValidationError, match="sum"):
        load_instance(path)
