"""Supply chain design under export-ban risk.

Two-stage stochastic plant location with sampled scenarios: capacity
strain/disruption, demand, export bans with bilateral-ally second chances,
and ban-induced shortage price escalation. Solved exactly per sample by a
decomposition loop over an in-house LP core, wrapped in a replicated
sampling driver with statistical optimality bounds, plus a policy-study
harness and CLI.

Names load on first use: `import strainchain` imports no submodule, and
reading `strainchain.load_instance` (or `strainchain.instance`) imports
only the module it lives in and what that module imports.
"""

# each submodule, and the names the package re-exports from it
_EXPORTS = {
    "generator": ("generate_synthetic_instance",),
    "instance": (
        "Design", "DiscretePmf", "Instance", "InstanceFormatError", "ValidationError",
        "load_instance", "make_instance", "validate_design", "validate_instance",
        "write_instance",
    ),
    "lshaped": (
        "IterationLimitError", "LShapedResult", "Master", "check_forcing", "run_lshaped",
        "solve_master",
    ),
    "policy": (
        "StudyResult", "StudySpec", "run_alliances_off", "run_backshoring",
        "run_export_ban_cases", "run_pricing", "run_sensitivity", "run_study",
    ),
    "recourse": (
        "RecourseError", "RecourseSolution", "RecourseSolver", "check_structural_theorems",
    ),
    "report": ("RunArtifact", "build_artifact", "dump_scenarios", "load_artifact", "write_report"),
    "saa": (
        "CostBreakdown", "DesignEvaluation", "SaaConfig", "SaaMemo", "SaaReport",
        "confidence_bounds", "evaluate_design", "run_saa",
    ),
    "scenarios": (
        "RiskOverrides", "Scenario", "Scenarios", "price_increase", "retained_exports",
        "sample_batch", "validate_scenario",
    ),
    "simplex": (),
    "stats": ("critical_values",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
