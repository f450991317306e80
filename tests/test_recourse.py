import dataclasses

import numpy as np
import pytest

from strainchain import (
    Design,
    RecourseSolver,
    RiskOverrides,
    check_structural_theorems,
    generate_synthetic_instance,
    sample_batch,
)
from strainchain.recourse import CORE_POINT, RecourseError
from strainchain.simplex import TableAnswer

from helpers import (
    country_retained,
    enumerate_designs,
    plain_scenario,
    raw_lp_objective,
    record_recourse_lps,
    recourse_cut_terms,
    scenario_maps,
    small_random_instance,
    solve_one,
    solve_recourse,
    tiny_instance,
)


def one_country(dm=80.0):
    return tiny_instance(
        countries=("a",),
        demand={"a": dm},
        price={"a": 10.0},
        raw_cost={"a": 1.0},
        production_cost={"a": 2.0},
        supplier_capacity={"a": 100.0},
        plant_capacity={"a": 120.0},
    )


def ghouila_houri_unsplit(A: np.ndarray) -> list:
    """The row subsets of A (as bitmasks) that no split into two parts
    leaves with every column's difference of part sums in {0, +-1}. By
    Ghouila-Houri (1962), A is totally unimodular iff there are none.

    Every signing v in {-1, 0, +1}^m is tried: its support is a row subset,
    its signs a split, and the split is good when every entry of v @ A lies
    in {0, +-1}.
    """
    m = A.shape[0]
    powers, bits = 3 ** np.arange(m), 1 << np.arange(m)
    chunk = 3**8
    split = np.zeros(1 << m, dtype=bool)
    for first in range(0, 3**m, chunk):
        digits = np.arange(first, min(first + chunk, 3**m))[:, None] // powers % 3
        signs = np.where(digits == 2, -1.0, digits)
        good = (np.abs(signs @ A) <= 1.0).all(axis=1)
        split[(digits[good] != 0) @ bits] = True
    return np.flatnonzero(~split).tolist()


def test_ghouila_houri_check_finds_an_odd_cycle():
    # the incidence of a triangle (determinant 2): only all three rows
    # together have no split
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    assert ghouila_houri_unsplit(A) == [0b111]
    assert ghouila_houri_unsplit(A[:2]) == []


@pytest.mark.parametrize(
    "shape",
    [(2, 1, 2), (2, 2, 3), (2, 3, 4), "every_country_both"],
    ids=["2_1_2", "2_2_3", "2_3_4", "every_country_both"],
)
def test_recourse_matrix_is_totally_unimodular(shape):
    # the proof in the recourse module docstring, checked exhaustively on
    # 6, 9 and 12 rows; the last instance makes every country a supplier
    # and a plant candidate, with allies
    if shape == "every_country_both":
        inst = small_random_instance(seed=3, n_countries=3)
    else:
        inst = generate_synthetic_instance(*shape, seed=1)
    A = RecourseSolver(inst).A
    assert ghouila_houri_unsplit(A) == []


def test_single_country_served_in_full():
    inst = one_country(80.0)
    sol = solve_recourse(inst, Design(open={"a": 1}), plain_scenario(inst))
    assert sol.objective == pytest.approx(240.0)
    assert sol.raw.tolist() == pytest.approx([80.0])
    assert sol.drug.tolist() == pytest.approx([80.0])
    assert sol.unmet.tolist() == pytest.approx([0.0])


def test_single_country_supplier_capacity_binds():
    inst = one_country(150.0)
    sol = solve_recourse(inst, Design(open={"a": 1}), plain_scenario(inst))
    assert sol.drug.tolist() == pytest.approx([100.0])
    assert sol.unmet.tolist() == pytest.approx([50.0])
    assert sol.objective == pytest.approx(100.0 * 3 + 50.0 * 10)


def test_export_ban_cuts_off_the_non_ally_and_shields_the_home_market():
    inst = tiny_instance(
        countries=("a", "b"),
        suppliers=("a",),
        plants=("a",),
        c1="a",
        demand={"a": 50.0, "b": 40.0},
        price={"a": 10.0, "b": 10.0},
        beta=0.01,
        exports_general={"a": 10.0, "b": 0.0},
        exports_to_c1={"a": 0.0, "b": 0.0},
    )
    scen = plain_scenario(inst, g={"a": 0, "b": 1}, ga={"a": 0})
    sol = solve_recourse(inst, Design(open={"a": 1}), scen)
    s = sol.solver
    assert sol.drug[s.v_arcs.index(("a", "b"))] == pytest.approx(0.0)
    assert sol.unmet[s.kpos["b"]] == pytest.approx(40.0)
    # home shortage stays below its banned demand, so the bump tranche is zero
    assert sol.escalated[s.kpos["a"]] == pytest.approx(0.0)
    assert sol.unmet[s.kpos["a"]] <= scenario_maps(inst, scen).demand["a"] + 1e-9


def test_no_plant_capacity_means_pure_shortage():
    inst = tiny_instance(countries=("a", "b"), demand={"a": 30.0, "b": 20.0})
    scen = plain_scenario(inst, pl={"a": 0.0, "b": 0.0})
    sol = solve_recourse(inst, Design(open={"a": 1, "b": 1}), scen)
    assert all(v == pytest.approx(0.0) for v in sol.drug.tolist())
    assert sol.unmet[sol.solver.kpos["a"]] == pytest.approx(30.0)
    assert sol.unmet[sol.solver.kpos["b"]] == pytest.approx(20.0)


def _ban_heavy_batch(inst, seed, n):
    return sample_batch(
        inst, seed, n, RiskOverrides(export_prob_scale=0.4, ban_threshold=1.0)
    )


def test_matches_raw_formulation_oracle_on_random_instances():
    for trial in range(12):
        inst = small_random_instance(seed=200 + trial, n_countries=4)
        solver = RecourseSolver(inst)
        for scen in _ban_heavy_batch(inst, (1, trial), 3):
            for design in enumerate_designs(inst):
                mine = solve_one(solver, design, scen).objective
                ref = raw_lp_objective(inst, design, scen)
                assert mine == pytest.approx(ref, rel=1e-6, abs=1e-7)


def test_family_duals_reproduce_the_objective():
    # independent recomputation of the dual objective from the stored multipliers
    inst = small_random_instance(seed=77, n_countries=5)
    solver = RecourseSolver(inst)
    ally_raw, ally_dist = inst.ally_supply_arcs(), inst.ally_distribution_arcs()
    for scen in _ban_heavy_batch(inst, (2, 0), 6):
        design = Design(open={j: 1 if n % 2 == 0 else 0 for n, j in enumerate(inst.plant_candidates)})
        sol = solve_one(solver, design, scen)
        scen = scenario_maps(inst, scen)
        a = {i: inst.supplier_capacity[i] * scen.supplier_avail[i] for i in inst.suppliers}
        b = {j: inst.plant_capacity[j] * scen.plant_avail[j] for j in inst.plant_candidates}
        total = sum(
            sol.pi_supplier[solver.sup.index(i)] * a[i] for i in inst.suppliers
        )
        total += sum(
            sol.pi_plant[solver.pl.index(j)] * b[j] * design.open[j]
            for j in inst.plant_candidates
        )
        for (i, j), pi in zip(solver.u_arcs, sol.pi_supply_gate):
            if i != j:
                gate = scen.ban_ally[i] if (i, j) in ally_raw else scen.ban_general[i]
                total += pi * a[i] * gate * design.open[j]
        for (j, k), pi in zip(solver.v_arcs, sol.pi_distribution_gate):
            if j != k:
                gate = scen.ban_ally[j] if (j, k) in ally_dist else scen.ban_general[j]
                total += pi * b[j] * gate * design.open[j]
        for k in inst.countries:
            rhs = scen.demand[k] - country_retained(inst, k, scen.ban_general, scen.ban_ally)
            total += sol.pi_demand[solver.kpos[k]] * rhs
        for k in inst.plant_candidates:
            cap = scen.demand[k] * (1 - scen.ban_general[k]) * design.open[k]
            total += sol.pi_aux[solver.kpos[k]] * (-cap)
        assert total == pytest.approx(sol.objective, rel=1e-6, abs=1e-6)


def test_family_duals_are_feasible_for_the_row_formulation():
    # feasibility of the reported multipliers against every raw-LP column is
    # exactly what guarantees the cuts underestimate the cost at *every*
    # design, not only the sampled ones
    for trial in range(8):
        inst = small_random_instance(seed=500 + trial, n_countries=5)
        solver = RecourseSolver(inst)
        ally_raw, ally_dist = inst.ally_supply_arcs(), inst.ally_distribution_arcs()
        plants = list(inst.plant_candidates)
        design = Design(open={j: (1 if n % 2 == trial % 2 else 0) for n, j in enumerate(plants)})
        if sum(design.open.values()) == 0:
            design = Design(open={j: 1 for j in plants})
        # raw-LP column costs per supplier-plant arc, plant-country arc and country
        raw_cost = np.array(
            [inst.raw_cost[i] + inst.transport1[(i, j)] for i, j in solver.u_arcs]
        )
        drug_cost = np.array(
            [inst.production_cost[j] + inst.transport2[(j, k)] for j, k in solver.v_arcs]
        )
        price = np.array([inst.shortage_price[k] for k in solver.K])
        u_sup = np.array([solver.sup.index(i) for i, _ in solver.u_arcs])
        u_pl = np.array([solver.pl.index(j) for _, j in solver.u_arcs])
        v_pl = np.array([solver.pl.index(j) for j, _ in solver.v_arcs])
        v_k = np.array([solver.kpos[k] for _, k in solver.v_arcs])
        u_cross = np.array([i != j for i, j in solver.u_arcs])  # a self arc has no gate
        v_cross = np.array([j != k for j, k in solver.v_arcs])
        for scen in _ban_heavy_batch(inst, (9, trial), 3):
            sol = solve_one(solver, design, scen)
            co = scen.price_increase
            tol = 1e-6
            lhs = sol.pi_supplier[u_sup] + sol.pi_balance[u_pl]
            lhs += np.where(u_cross, sol.pi_supply_gate, 0.0)
            assert np.all(lhs <= raw_cost + tol)
            lhs = sol.pi_plant[v_pl] + sol.pi_demand[v_k] - sol.pi_balance[v_pl]
            lhs += np.where(v_cross, sol.pi_distribution_gate, 0.0)
            assert np.all(lhs <= drug_cost + tol)
            assert np.all(sol.pi_demand - sol.pi_aux <= price + tol)
            assert np.all(sol.pi_aux <= co + tol)
            assert np.all(-sol.pi_demand <= tol)  # the excess column has zero cost


def test_duality_holds_at_the_capacity_scaling_bound():
    # data scaled so capacities approach 1e6 units
    inst = small_random_instance(seed=888, n_countries=5)
    factor = 1e6 / max(inst.plant_capacity.values())
    inst = inst.perturbed(
        demand_mean={k: v * factor for k, v in inst.demand_mean.items()},
        demand_sd={k: v * factor for k, v in inst.demand_sd.items()},
        supplier_capacity={k: v * factor for k, v in inst.supplier_capacity.items()},
        plant_capacity={k: v * factor for k, v in inst.plant_capacity.items()},
        exports_general={k: v * factor for k, v in inst.exports_general.items()},
        exports_to_c1={k: v * factor for k, v in inst.exports_to_c1.items()},
        beta=inst.beta / factor,
    )
    assert max(inst.plant_capacity.values()) == pytest.approx(1e6)
    solver = RecourseSolver(inst)
    design = Design(open={j: 1 for j in inst.plant_candidates})
    for scen in _ban_heavy_batch(inst, (10, 0), 5):
        sol = solve_one(solver, design, scen)  # enforces 1e-6 relative duality internally
        ref = raw_lp_objective(inst, design, scen)
        assert sol.objective == pytest.approx(ref, rel=1e-6)


def test_dual_sign_conventions():
    inst = small_random_instance(seed=31, n_countries=4)
    solver = RecourseSolver(inst)
    for scen in _ban_heavy_batch(inst, (3, 0), 4):
        sol = solve_one(solver, Design(open={j: 1 for j in inst.plant_candidates}), scen)
        assert np.all(sol.pi_supplier <= 1e-9)
        assert np.all(sol.pi_plant <= 1e-9)
        assert np.all(sol.pi_supply_gate <= 1e-9)
        assert np.all(sol.pi_distribution_gate <= 1e-9)
        assert np.all(sol.pi_aux >= -1e-9)


def test_cuts_underestimate_everywhere_and_touch_at_the_source():
    for trial in range(6):
        inst = small_random_instance(seed=300 + trial, n_countries=4)
        solver = RecourseSolver(inst)
        designs = list(enumerate_designs(inst))
        for scen in _ban_heavy_batch(inst, (4, trial), 2):
            solutions = {d.key(): solve_one(solver, d, scen) for d in designs}
            for src in designs:
                const, coeff = recourse_cut_terms(inst, scen, solutions[src.key()])
                for tgt in designs:
                    predicted = const + sum(coeff[j] * tgt.open[j] for j in coeff)
                    actual = solutions[tgt.key()].objective
                    assert predicted <= actual + 1e-7
                src_val = const + sum(coeff[j] * src.open[j] for j in coeff)
                assert src_val == pytest.approx(solutions[src.key()].objective, abs=1e-7)


def test_cuts_from_pooled_answers_are_valid_and_tight(monkeypatch):
    # criterion 3's sets, each design's scenarios solved in order through one
    # basis pool, as one decomposition iteration solves them: once as
    # evaluation does, once with the decomposition's re-optimized duals
    lps = record_recourse_lps(monkeypatch)
    pooled = moved = dominant = 0
    for trial in range(10):
        inst = small_random_instance(seed=7000 + trial, n_countries=4)
        solver = RecourseSolver(inst)
        designs = list(enumerate_designs(inst))
        assert len(designs) == 15
        scens = sample_batch(
            inst, (42, trial), 5, RiskOverrides(export_prob_scale=0.45, ban_threshold=1.0)
        )
        cold = {(d.key(), s): solve_one(solver, d, scen) for d in designs for s, scen in enumerate(scens)}

        def assert_valid_and_tight(cut, src, s):
            const, coeff = cut
            for tgt in designs:
                value = const + sum(coeff[j] * tgt.open[j] for j in coeff)
                assert value <= cold[tgt.key(), s].objective + 1e-7
            own = const + sum(coeff[j] * src.open[j] for j in coeff)
            assert own == pytest.approx(cold[src.key(), s].objective, abs=1e-7)

        for src in designs:
            bases, pareto_bases = [], []
            for s, scen in enumerate(scens):
                sol = solve_one(solver, src, scen, bases)
                answered = not lps[-1][2].iterations
                pareto = solve_one(solver, src, scen, pareto_bases, pareto=True)
                # the flows are the unperturbed answer's, to the bit
                for name in ("raw", "drug", "unmet", "escalated", "surplus"):
                    assert getattr(pareto, name).tobytes() == getattr(sol, name).tobytes()
                assert pareto.objective == sol.objective
                cut = recourse_cut_terms(inst, scen, sol)
                pareto_cut = recourse_cut_terms(inst, scen, pareto)
                assert_valid_and_tight(pareto_cut, src, s)
                if pareto.kept_dual:
                    assert pareto_cut == cut
                # Magnanti-Wong: no optimal dual at the design values the
                # core point higher
                at_core = [c + CORE_POINT * sum(coeff.values()) for c, coeff in (cut, pareto_cut)]
                assert at_core[1] >= at_core[0] - 1e-7
                dominant += at_core[1] > at_core[0] + 1e-7
                if not answered:
                    continue
                pooled += 1
                assert_valid_and_tight(cut, src, s)
                cold_const, cold_coeff = recourse_cut_terms(inst, scen, cold[src.key(), s])
                moved += not np.allclose(
                    [cut[0], *cut[1].values()], [cold_const, *cold_coeff.values()], rtol=0, atol=1e-9
                )
    # some pooled answers carry another optimal dual than the cold solve, and
    # some re-optimized duals value the core point strictly higher
    assert pooled and moved and dominant


def test_zero_demand_zero_exports_gives_all_zero_cut():
    inst = tiny_instance(countries=("a", "b"), demand={"a": 0.0, "b": 0.0})
    scen = plain_scenario(inst)
    sol = solve_recourse(inst, Design(open={"a": 1, "b": 0}), scen)
    const, coeff = recourse_cut_terms(inst, scen, sol)
    assert sol.objective == pytest.approx(0.0)
    assert const == pytest.approx(0.0)
    assert all(c == pytest.approx(0.0) for c in coeff.values())


def test_banned_gates_contribute_nothing_to_cut_coefficients():
    inst = tiny_instance(
        countries=("a", "b"),
        suppliers=("a",),
        plants=("b",),
        demand={"a": 0.0, "b": 25.0},
        price={"a": 9.0, "b": 9.0},
        supplier_capacity={"a": 30.0},
    )
    # supplier country bans: the only inbound arc (a, b) closes entirely
    scen = plain_scenario(inst, g={"a": 0, "b": 1}, ga={"a": 0})
    sol = solve_recourse(inst, Design(open={"b": 1}), scen)
    assert sol.unmet[sol.solver.kpos["b"]] == pytest.approx(25.0)
    const, coeff = recourse_cut_terms(inst, scen, sol)
    # the gate multiplies the closed flag, so opening b cannot promise supply
    assert coeff["b"] >= -1e-9
    assert const + coeff["b"] == pytest.approx(sol.objective, abs=1e-7)


def test_objective_monotone_in_the_price_bump():
    inst = small_random_instance(seed=55, n_countries=4)
    solver = RecourseSolver(inst)
    design = Design(open={j: 1 for j in inst.plant_candidates})
    scen = _ban_heavy_batch(inst, (5, 0), 1)[0]
    lows = solve_one(solver, design, scen).objective
    import dataclasses

    bumped = dataclasses.replace(
        scen,
        retained_exports=scen.retained_exports,
        price_increase=scen.price_increase + 3.0,
    )
    highs = solve_one(solver, design, bumped).objective
    assert highs >= lows - 1e-9


def test_complete_recourse_never_fails():
    for trial in range(15):
        inst = small_random_instance(seed=400 + trial, n_countries=4)
        solver = RecourseSolver(inst)
        rng = np.random.default_rng(trial)
        for scen in _ban_heavy_batch(inst, (6, trial), 3):
            # also zero out some capacities entirely
            killed = scen.supplier_avail.copy()
            for n in range(len(inst.suppliers)):
                if rng.random() < 0.3:
                    killed[n] = 0.0
            import dataclasses

            harsh = dataclasses.replace(scen, supplier_avail=killed)
            design = Design(open={j: int(rng.random() < 0.5) for j in inst.plant_candidates})
            if sum(design.open.values()) == 0:
                design = Design(open={j: 1 for j in inst.plant_candidates})
            sol = solve_one(solver, design, harsh)
            assert np.isfinite(sol.objective)


# -- structural diagnostics ---------------------------------------------------


def test_covered_market_rule_part_one():
    # non-ally with a full ban and exports >= demand: no shortage, no inflow
    inst = tiny_instance(
        countries=("a", "b"),
        suppliers=("a",),
        plants=("a",),
        c1="a",
        demand={"a": 10.0, "b": 20.0},
        exports_general={"a": 0.0, "b": 15.0},
        exports_to_c1={"a": 0.0, "b": 8.0},
    )
    scen = plain_scenario(inst, g={"a": 1, "b": 0}, ga={"a": 1})
    sol = solve_recourse(inst, Design(open={"a": 1}), scen)
    b = sol.solver.kpos["b"]
    assert sol.unmet[b] == pytest.approx(0.0)
    assert sol.surplus[b] == pytest.approx(3.0)
    assert check_structural_theorems(inst, Design(open={"a": 1}), scen, sol) == []


def test_covered_market_rule_part_two_ally_cases():
    # ally with only the general ban and own exports covering demand
    inst = tiny_instance(
        countries=("a", "b", "c"),
        suppliers=("a",),
        plants=("a",),
        c1="a",
        allies=("b",),
        demand={"a": 5.0, "b": 12.0, "c": 5.0},
        exports_general={"a": 0.0, "b": 14.0, "c": 0.0},
        exports_to_c1={"a": 0.0, "b": 2.0, "c": 0.0},
    )
    scen = plain_scenario(inst, g={"a": 1, "b": 0, "c": 1}, ga={"a": 1, "b": 1})
    sol = solve_recourse(inst, Design(open={"a": 1}), scen)
    b = sol.solver.kpos["b"]
    assert sol.unmet[b] == pytest.approx(0.0)
    assert check_structural_theorems(inst, Design(open={"a": 1}), scen, sol) == []
    # full ally ban with combined exports covering demand fixes the excess too
    scen2 = plain_scenario(inst, g={"a": 1, "b": 0, "c": 1}, ga={"a": 1, "b": 0})
    sol2 = solve_recourse(inst, Design(open={"a": 1}), scen2)
    assert sol2.surplus[b] == pytest.approx(14.0 + 2.0 - 12.0)
    assert check_structural_theorems(inst, Design(open={"a": 1}), scen2, sol2) == []
    # a shortage at the covered market, and the wrong excess, must be flagged
    import dataclasses

    unmet, surplus = sol2.unmet.copy(), sol2.surplus.copy()
    unmet[b], surplus[b] = 3.0, 1.0
    wrong = dataclasses.replace(sol2, unmet=unmet, surplus=surplus)
    messages = check_structural_theorems(inst, Design(open={"a": 1}), scen2, wrong)
    assert [m for m in messages if m.startswith("covered-market")] == [
        "covered-market: shortage 3.0 at b",
        "covered-market: excess 1.0 at b, expected 4.0",
    ]


def test_priority_rule_prefers_the_larger_penalty_saving():
    # one unit of plant capacity, two open destinations with savings 7 vs 3
    inst = tiny_instance(
        countries=("a", "b", "c"),
        suppliers=("a",),
        plants=("a",),
        demand={"a": 0.0, "b": 1.0, "c": 1.0},
        price={"a": 10.0, "b": 10.0, "c": 6.0},
        raw_cost={"a": 1.0},
        production_cost={"a": 2.0},
        supplier_capacity={"a": 1.0},
        plant_capacity={"a": 1.0},
    )
    design = Design(open={"a": 1})
    scen = plain_scenario(inst)
    sol = solve_recourse(inst, design, scen)
    arcs = sol.solver.v_arcs
    assert sol.drug[arcs.index(("a", "b"))] == pytest.approx(1.0)
    assert sol.drug[arcs.index(("a", "c"))] == pytest.approx(0.0)
    assert check_structural_theorems(inst, design, scen, sol) == []
    # a deliberately wrong allocation must be flagged
    import dataclasses

    # arcs (a, a), (a, b), (a, c); countries a, b, c
    wrong = dataclasses.replace(
        sol,
        drug=np.array([0.0, 0.0, 1.0]),
        unmet=np.array([0.0, 1.0, 0.0]),
    )
    messages = check_structural_theorems(inst, design, scen, wrong)
    assert any("priority" in m for m in messages)


def test_flow_necessity_flags_uneconomic_flows():
    inst = tiny_instance(
        countries=("a", "b"),
        suppliers=("a",),
        plants=("a",),
        demand={"a": 0.0, "b": 10.0},
        price={"a": 1.0, "b": 1.0},  # price below the delivery chain
        raw_cost={"a": 1.0},
        production_cost={"a": 2.0},
    )
    design = Design(open={"a": 1})
    scen = plain_scenario(inst)
    sol = solve_recourse(inst, design, scen)
    assert sol.drug[sol.solver.v_arcs.index(("a", "b"))] == pytest.approx(0.0)
    assert check_structural_theorems(inst, design, scen, sol) == []
    import dataclasses

    # arcs (a, a), (a, b); countries a, b
    wrong = dataclasses.replace(
        sol,
        drug=np.array([0.0, 10.0]),
        raw=np.array([10.0]),
        unmet=np.array([0.0, 0.0]),
    )
    messages = check_structural_theorems(inst, design, scen, wrong)
    assert any("flow-necessity" in m for m in messages)


def test_generator_scale_instances_solve_cleanly():
    # larger desk-scale problems with realistic magnitudes
    inst = generate_synthetic_instance(4, 6, 12, seed=77)
    solver = RecourseSolver(inst)
    scens = sample_batch(
        inst, (7, 0), 15, RiskOverrides(export_prob_scale=0.7, ban_threshold=0.95)
    )
    designs = list(enumerate_designs(inst))
    rng = np.random.default_rng(5)
    for scen in scens:
        for design in (designs[int(i)] for i in rng.integers(0, len(designs), 6)):
            sol = solve_one(solver, design, scen)
            ref = raw_lp_objective(inst, design, scen)
            assert sol.objective == pytest.approx(ref, rel=1e-6)


def test_randomized_sweep_has_no_violations():
    checked = 0
    for trial in range(20):
        inst = small_random_instance(seed=600 + trial, n_countries=5)
        solver = RecourseSolver(inst)
        designs = list(enumerate_designs(inst))[:: max(1, len(list(enumerate_designs(inst)))
                                                       // 4)]
        for scen in _ban_heavy_batch(inst, (8, trial), 3):
            for design in designs[:4]:
                sol = solve_one(solver, design, scen)
                assert check_structural_theorems(inst, design, scen, sol) == []
                checked += 1
    assert checked >= 200


@pytest.mark.parametrize("doctor", ["x", "row_duals", "objective"])
def test_a_doctored_table_answer_fails_the_solve_checks(monkeypatch, doctor):
    inst = small_random_instance(seed=95, n_countries=4)
    scen = sample_batch(inst, (95,), 1, RiskOverrides(export_prob_scale=0.6))[0]
    design = Design(open={j: 1 for j in inst.plant_candidates})
    lps = record_recourse_lps(monkeypatch)
    answers = {}
    solver = RecourseSolver(inst, answers)
    solve_one(solver, design, scen)
    ((_, _, answer, _),) = lps
    changed = {
        "x": answer.x * 2.0,
        "row_duals": answer.row_duals + 1.0,
        "objective": answer.objective + 1e-3 * max(1.0, abs(answer.objective)),
    }
    ((key, _),) = answers.items()
    answers[key] = TableAnswer.of(dataclasses.replace(answer, **{doctor: changed[doctor]}))
    with pytest.raises(RecourseError):
        solve_one(solver, design, scen)
