import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strainchain import (
    DiscretePmf,
    RecourseSolver,
    RiskOverrides,
    Scenarios,
    dump_scenarios,
    generate_synthetic_instance,
    price_increase,
    retained_exports,
    sample_batch,
    validate_scenario,
)
from strainchain.recourse import ScenarioArrays
from strainchain.scenarios import scenario_rng

from helpers import (
    CORNERS,
    corner_scenario,
    plain_scenario,
    reference_arrays,
    reference_flags,
    reference_sample_scenario,
    scenario_maps,
    small_random_instance,
    stack,
    tiny_instance,
)


def same_fields(a, b) -> bool:
    """Field by field, bit for bit: two `Scenario` rows or two `Scenarios` stacks."""
    return type(a) is type(b) and all(
        np.asarray(getattr(a, f.name)).tobytes() == np.asarray(getattr(b, f.name)).tobytes()
        for f in dataclasses.fields(a)
    )


def certain_instance(**kw):
    """All strain mass at 1, availability 1, sd 0: no uncertainty anywhere."""
    return tiny_instance(countries=("a", "b", "c"), **kw)


def test_no_uncertainty_instance_yields_flat_scenarios():
    inst = certain_instance()
    for scen in sample_batch(inst, seed=1, n=20):
        maps = scenario_maps(inst, scen)
        assert all(v == 1.0 for v in maps.supplier_avail.values())
        assert all(v == 1.0 for v in maps.plant_avail.values())
        assert all(f == 1 for f in maps.ban_general.values())
        assert all(f == 1 for f in maps.ban_ally.values())
        assert scen.retained_exports == 0.0
        assert scen.price_increase == 0.0
        validate_scenario(inst, scen)


def test_zero_availability_probability_disables_the_plant():
    inst = tiny_instance(countries=("a", "b"))
    inst = inst.perturbed(plant_avail_prob={"a": 0.0, "b": 1.0})
    for scen in sample_batch(inst, seed=2, n=50):
        assert scenario_maps(inst, scen).plant_avail["a"] == 0.0


def test_disruption_frequency_matches_bernoulli_rate():
    # strain mass at 1 so the capacity factor is exactly the Bernoulli draw
    inst = tiny_instance(countries=("a",))
    inst = inst.perturbed(plant_avail_prob={"a": 0.97})
    draws = [scenario_maps(inst, s).plant_avail["a"] for s in sample_batch(inst, seed=3, n=1000)]
    mean = np.mean(draws)
    # +-3 sigma band around 0.97 for 1000 Bernoulli draws
    assert 0.955 <= mean <= 0.985


def exports_fixture():
    return tiny_instance(
        countries=("c1", "c2", "c3"),
        c1="c1",
        allies=("c2",),
        exports_general={"c1": 10.0, "c2": 5.0, "c3": 8.0},
        exports_to_c1={"c1": 4.0, "c2": 3.0, "c3": 6.0},
        beta=0.00003,
    )


def test_retained_exports_zero_when_everything_is_open():
    inst = exports_fixture()
    g = {k: 1 for k in inst.countries}
    ga = {k: 1 for k in inst.ally_group}
    assert retained_exports(inst, reference_flags(inst, g, ga)) == 0.0


def test_retained_exports_hand_computed_mixed_flags():
    inst = exports_fixture()
    # c1 banned generally but open to allies; c2 open; c3 fully banned
    g = {"c1": 0, "c2": 1, "c3": 0}
    ga = {"c1": 1, "c2": 1}
    # general tranche: 10 + 8; c1-channel tranche: only c3's (non-ally, gate g)
    assert retained_exports(inst, reference_flags(inst, g, ga)) == pytest.approx(18.0 + 6.0)


def test_retained_exports_full_ally_pattern():
    inst = tiny_instance(
        countries=("c1", "c2", "c3"),
        c1="c1",
        allies=("c2",),
        exports_general={"c1": 10.0, "c2": 5.0, "c3": 8.0},
        exports_to_c1={"c1": 4.0, "c2": 3.0, "c3": 6.0},
    )
    g = {"c1": 0, "c2": 1, "c3": 0}
    ga = {"c1": 1, "c2": 1}
    assert retained_exports(inst, reference_flags(inst, g, ga)) == pytest.approx(24.0)


def test_price_increase_is_linear_with_hand_values():
    inst = exports_fixture()
    assert price_increase(inst, 0.0) == 0.0
    assert price_increase(inst, 24.0) == pytest.approx(0.00072)
    assert price_increase(inst, 90000.0) == pytest.approx(2.7)
    a, b = 13.5, 29.25
    assert price_increase(inst, a + b) == pytest.approx(
        price_increase(inst, a) + price_increase(inst, b)
    )
    with pytest.raises(ValueError):
        price_increase(inst, -1.0)


def test_price_increase_on_a_retained_stack_is_beta_times_each_row():
    inst = exports_fixture()
    sampled = sample_batch(risky_instance(), 16, 50).retained_exports
    for retained in (np.array([0.0, 24.0, 90000.0, 13.5 + 29.25, 1e-300]), sampled):
        bumps = price_increase(inst, retained)
        assert bumps.shape == retained.shape
        for kept, bump in zip(retained.tolist(), bumps.tolist()):
            assert np.float64(bump).tobytes() == np.float64(inst.beta * kept).tobytes()
    with pytest.raises(ValueError):
        price_increase(inst, np.array([1.0, -1e-9, 2.0]))


def risky_instance(seed=0):
    inst = generate_synthetic_instance(3, 4, 8, seed=seed)
    # force the ban gate open every scenario and make bans common
    return inst.perturbed(
        ban_threshold=1.0,
        export_prob={k: 0.5 for k in inst.countries},
        ally_export_prob={k: 0.8 for k in inst.ally_group},
    )


def test_forcing_export_probability_one_suppresses_every_ban():
    inst = risky_instance()
    batch = sample_batch(inst, seed=4, n=100, overrides=RiskOverrides(force_export_prob_one=True))
    for scen in batch:
        maps = scenario_maps(inst, scen)
        assert all(f == 1 for f in maps.ban_general.values())
        assert all(f == 1 for f in maps.ban_ally.values())


def test_batches_are_deterministic_in_seed_and_overrides():
    inst = risky_instance()
    ov = RiskOverrides(export_prob_scale=0.9)
    assert same_fields(sample_batch(inst, 5, 40, ov), sample_batch(inst, 5, 40, ov))
    assert not same_fields(sample_batch(inst, 5, 40, ov), sample_batch(inst, 6, 40, ov))


def test_alliances_off_pins_ally_flags_to_general_flags():
    inst = risky_instance()
    batch = sample_batch(inst, seed=7, n=200, overrides=RiskOverrides(alliances_off=True))
    for scen in batch:
        maps = scenario_maps(inst, scen)
        for k in inst.ally_group:
            assert maps.ban_ally[k] == maps.ban_general[k]


def test_ally_second_chance_never_hurts_and_mitigates_on_average():
    inst = risky_instance()
    batch = sample_batch(inst, seed=8, n=10_000)
    open_general = {k: 0 for k in inst.ally_group}
    open_ally = {k: 0 for k in inst.ally_group}
    for scen in batch:
        maps = scenario_maps(inst, scen)
        for k in inst.ally_group:
            assert maps.ban_ally[k] >= maps.ban_general[k]
            open_general[k] += maps.ban_general[k]
            open_ally[k] += maps.ban_ally[k]
    for k in inst.ally_group:
        assert open_ally[k] > open_general[k]  # with rho=0.5 the gap is large


def test_ban_gate_forces_all_flags_open_above_threshold():
    inst = generate_synthetic_instance(3, 4, 8, seed=1).perturbed(ban_threshold=0.0)
    for scen in sample_batch(inst, seed=9, n=100):
        assert scen.retained_exports == 0.0
        assert scen.price_increase == 0.0
        assert all(f == 1 for f in scenario_maps(inst, scen).ban_general.values())


def test_demand_is_clamped_at_zero():
    inst = tiny_instance(countries=("a",), demand={"a": 1.0})
    inst = inst.perturbed(demand_sd={"a": 50.0})
    draws = [scenario_maps(inst, s).demand["a"] for s in sample_batch(inst, seed=10, n=300)]
    assert min(draws) == 0.0  # huge sd guarantees clamped draws
    assert all(d >= 0.0 for d in draws)


def test_scenario_probability_is_uniform_over_the_batch():
    inst = certain_instance()
    batch = sample_batch(inst, seed=11, n=8)
    assert all(s.probability == pytest.approx(1 / 8) for s in batch)


def test_override_arms_share_capacity_and_demand_draws():
    # common random numbers: ban overrides must not shift the earlier draws
    inst = risky_instance()
    base = sample_batch(inst, 12, 50)
    off = sample_batch(inst, 12, 50, RiskOverrides(alliances_off=True))
    forced = sample_batch(inst, 12, 50, RiskOverrides(force_export_prob_one=True))
    for s0, s1, s2 in zip(base, off, forced):
        for name in ("supplier_avail", "plant_avail", "demand"):
            assert (
                getattr(s0, name).tobytes()
                == getattr(s1, name).tobytes()
                == getattr(s2, name).tobytes()
            ), name
        assert s0.flags[:, 0].tobytes() == s1.flags[:, 0].tobytes()


def test_scenario_dump_writes_one_row_per_scenario(tmp_path):
    inst = risky_instance()
    batch = sample_batch(inst, seed=14, n=6)
    path = tmp_path / "scenarios.csv"
    dump_scenarios(inst, batch, path)
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 7
    header = rows[0]
    assert header[0] == "scenario"
    assert "retained_exports" in header and "price_increase" in header
    g_cols = [c for c in header if c.startswith("ban_general:")]
    assert len(g_cols) == len(inst.countries)
    # retained exports column round-trips as a float and matches the scenario
    idx = header.index("retained_exports")
    assert float(rows[1][idx]) == batch[0].retained_exports


def test_scenario_dump_rows_equal_the_dict_sampler_rows(tmp_path):
    inst = risky_instance()
    ov = RiskOverrides(export_prob_scale=0.6)
    batch = sample_batch(inst, 15, 6, ov)
    dump_scenarios(inst, batch, tmp_path / "scenarios.csv")
    with (tmp_path / "scenarios.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))

    expected = [
        ["scenario", "probability"]
        + [f"supplier_avail:{i}" for i in inst.suppliers]
        + [f"plant_avail:{j}" for j in inst.plant_candidates]
        + [f"demand:{k}" for k in inst.countries]
        + [f"ban_general:{k}" for k in inst.countries]
        + [f"ban_ally:{k}" for k in inst.ally_group]
        + ["retained_exports", "price_increase"]
    ]
    for w in range(6):
        ref = reference_sample_scenario(inst, scenario_rng(15, w), ov, probability=1.0 / 6)
        expected.append(
            [str(w), repr(ref.probability)]
            + [repr(ref.supplier_avail[i]) for i in inst.suppliers]
            + [repr(ref.plant_avail[j]) for j in inst.plant_candidates]
            + [repr(ref.demand[k]) for k in inst.countries]
            + [str(ref.ban_general[k]) for k in inst.countries]
            + [str(ref.ban_ally[k]) for k in inst.ally_group]
            + [repr(ref.retained_exports), repr(ref.price_increase)]
        )
    assert rows == expected
    flags = [v for row in rows[1:] for h, v in zip(rows[0], row) if h.startswith("ban_")]
    assert set(flags) == {"0", "1"}  # banned and open flags both written as integers


OVERRIDES = st.builds(
    RiskOverrides,
    force_export_prob_one=st.booleans(),
    export_prob_scale=st.none() | st.floats(0.0, 2.0),
    # 0 is never hit and 1.01 always is; None keeps the instance's threshold
    ban_threshold=st.none() | st.sampled_from([0.0, 1.01]) | st.floats(0.5, 1.0),
    alliances_off=st.booleans(),
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    inst_seed=st.integers(0, 10_000),
    n_countries=st.integers(2, 6),
    with_allies=st.booleans(),
    seed=st.integers(0, 10_000),
    overrides=st.none() | OVERRIDES,
)
def test_sampled_arrays_equal_the_dict_sampler_by_position(
    inst_seed, n_countries, with_allies, seed, overrides
):
    inst = small_random_instance(inst_seed, n_countries, with_allies)
    batch = sample_batch(inst, seed, 4, overrides)
    for w in range(4):
        scen = batch[w]
        ref = reference_sample_scenario(inst, scenario_rng(seed, w), overrides, probability=0.25)
        assert scen.flags.dtype == np.int8
        assert_equals_reference(inst, scen, ref)
        if overrides is None or overrides.ban_threshold is None:
            validate_scenario(inst, scen)


def doctored_fixture():
    """exports_fixture's countries with every supplier at half capacity, so a
    ban passes the threshold check; c1 and c2 form the ally group."""
    inst = exports_fixture()
    sup = {i: 0.5 for i in inst.suppliers}
    return inst, sup


def test_validate_scenario_requires_the_general_flag_on_the_channel_outside_the_ally_group():
    inst, sup = doctored_fixture()
    c3 = inst.countries.index("c3")
    for general in (0, 1):
        scen = plain_scenario(inst, sup=sup, g={"c1": 1, "c2": 1, "c3": general})
        validate_scenario(inst, scen)
        flags = scen.flags.copy()
        flags[c3, 1] = 1 - general
        with pytest.raises(ValueError, match="c1-channel flag for 'c3' must equal its general"):
            validate_scenario(inst, dataclasses.replace(scen, flags=flags))


def test_validate_scenario_requires_an_open_channel_under_an_open_ally_general_flag():
    inst, sup = doctored_fixture()
    # a banned ally may keep its channel open: the second chance
    validate_scenario(inst, plain_scenario(inst, sup=sup, g={"c1": 1, "c2": 0, "c3": 1}))
    scen = plain_scenario(inst, sup=sup)
    flags = scen.flags.copy()
    flags[inst.countries.index("c2"), 1] = 0
    with pytest.raises(ValueError, match="ally flag for 'c2' must be 1 when the general flag"):
        validate_scenario(inst, dataclasses.replace(scen, flags=flags))


# -- the batch sampler against the dict sampler -------------------------------------

OVERRIDE_KINDS = {
    "none": None,
    "force_export_prob_one": RiskOverrides(force_export_prob_one=True),
    "export_prob_scale": RiskOverrides(export_prob_scale=0.6),
    "ban_threshold": RiskOverrides(ban_threshold=0.75),
    "alliances_off": RiskOverrides(alliances_off=True),
}


def ban_heavy_instance(seed):
    """risky_instance with allies, a ban gate that fires in most scenarios
    but not all, and strain PMFs of one to four levels, a zero-probability
    level among them."""
    inst = risky_instance(seed)
    pmfs = [
        DiscretePmf(levels=(1.0,), probs=(1.0,)),
        DiscretePmf(levels=(0.0, 0.5, 1.0), probs=(0.3, 0.0, 0.7)),
        DiscretePmf(levels=(0.2, 0.4, 0.6, 0.9), probs=(0.1, 0.2, 0.3, 0.4)),
    ]
    return inst.perturbed(
        ban_threshold=0.9,
        supplier_strain_pmf={i: pmfs[n % 3] for n, i in enumerate(inst.suppliers)},
        plant_strain_pmf={j: pmfs[(n + 1) % 3] for n, j in enumerate(inst.plant_candidates)},
    )


def assert_equals_reference(inst, scen, ref):
    """A sampled scenario against the dict sampler's, by position and bits."""
    for name, order in (
        ("supplier_avail", inst.suppliers),
        ("plant_avail", inst.plant_candidates),
        ("demand", inst.countries),
    ):
        values = getattr(ref, name)
        assert getattr(scen, name).tobytes() == np.array([values[x] for x in order]).tobytes()
    assert scen.flags.tobytes() == reference_flags(inst, ref.ban_general, ref.ban_ally).tobytes()
    for name in ("retained_exports", "price_increase", "probability"):
        got, want = np.float64(getattr(scen, name)), np.float64(getattr(ref, name))
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("kind", list(OVERRIDE_KINDS))
def test_batches_equal_the_dict_sampler_by_position(kind):
    overrides = OVERRIDE_KINDS[kind]
    banned_allies = quiet = 0
    for seed in range(6):
        inst = ban_heavy_instance(seed)
        ally = [inst.countries.index(k) for k in inst.ally_group]
        batch = sample_batch(inst, (seed, 4), 40, overrides)
        for w, scen in enumerate(batch):
            ref = reference_sample_scenario(inst, scenario_rng((seed, 4), w), overrides, 1 / 40)
            assert_equals_reference(inst, scen, ref)
            banned_allies += int((scen.flags[ally, 0] == 0).sum())
            quiet += bool((scen.flags == 1).all())
    # the ally second chance and the closed ban gate both occur
    assert quiet > 0
    assert banned_allies > 0 or kind == "force_export_prob_one"


def test_a_batch_read_from_a_draws_table_equals_one_drawn_afresh():
    inst = ban_heavy_instance(7)
    table = {}
    for overrides in OVERRIDE_KINDS.values():
        shared = sample_batch(inst, (8, 1), 30, overrides, draws=table)
        assert same_fields(shared, sample_batch(inst, (8, 1), 30, overrides))
    assert len(table) == 1  # every override read the one entry
    assert same_fields(sample_batch(inst, (8, 1), 31, draws=table), sample_batch(inst, (8, 1), 31))
    assert same_fields(sample_batch(inst, 8, 30, draws=table), sample_batch(inst, 8, 30))
    assert len(table) == 3


@pytest.mark.parametrize("kind", [*OVERRIDE_KINDS, "corners"])
def test_solver_arrays_read_the_stack_as_the_rows_restacked(kind):
    if kind == "corners":
        inst = small_random_instance(41, 4)
        rows = [corner_scenario(inst, 41 + w, c) for w, c in enumerate(CORNERS * 2)]
        scenarios = stack(rows)
    else:
        inst = ban_heavy_instance(3)
        scenarios = sample_batch(inst, (3, 9), 25, OVERRIDE_KINDS[kind])
        rows = [scenarios[w] for w in range(25)]
    before = [getattr(scenarios, f.name).copy() for f in dataclasses.fields(Scenarios)[:-1]]
    solver = RecourseSolver(inst)
    got, want = solver.arrays(scenarios), reference_arrays(solver, rows)
    for f in dataclasses.fields(ScenarioArrays):
        mine, theirs = getattr(got, f.name), getattr(want, f.name)
        assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape), f.name
        assert mine.tobytes() == theirs.tobytes(), f.name
    # the stacks may alias a shared draws table, so they are only read
    for old, f in zip(before, dataclasses.fields(Scenarios)):
        assert getattr(scenarios, f.name).tobytes() == old.tobytes(), f.name

    n = len(rows)
    assert len(scenarios) == n
    for w, row in enumerate(rows):
        assert same_fields(scenarios[w], row)
        assert type(scenarios[w].retained_exports) is type(scenarios[w].price_increase) is float
    a, b = 1, n - 2
    part = scenarios[a:b]
    assert type(part) is Scenarios and len(part) == b - a
    assert part.probability == scenarios.probability
    assert np.shares_memory(part.demand, scenarios.demand)
    for w in range(b - a):
        assert same_fields(part[w], rows[a + w])
