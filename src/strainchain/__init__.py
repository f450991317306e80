"""Supply chain design under export-ban risk.

Two-stage stochastic plant location with sampled scenarios: capacity
strain/disruption, demand, export bans with bilateral-ally second chances,
and ban-induced shortage price escalation. Solved exactly per sample by a
decomposition loop over an in-house LP core, wrapped in a replicated
sampling driver with statistical optimality bounds, plus a policy-study
harness and CLI.
"""

from .generator import generate_synthetic_instance
from .instance import (
    Design,
    DiscretePmf,
    Instance,
    InstanceFormatError,
    ValidationError,
    load_instance,
    make_instance,
    validate_design,
    validate_instance,
    write_instance,
)
from .lshaped import (
    IterationLimitError,
    LShapedResult,
    Master,
    check_forcing,
    run_lshaped,
    solve_master,
)
from .policy import (
    StudyResult,
    StudySpec,
    run_alliances_off,
    run_backshoring,
    run_export_ban_cases,
    run_pricing,
    run_sensitivity,
    run_study,
)
from .recourse import (
    RecourseError,
    RecourseSolution,
    RecourseSolver,
    check_structural_theorems,
)
from .report import RunArtifact, build_artifact, dump_scenarios, load_artifact, write_report
from .saa import (
    CostBreakdown,
    DesignEvaluation,
    SaaConfig,
    SaaMemo,
    SaaReport,
    confidence_bounds,
    evaluate_design,
    run_saa,
)
from .scenarios import (
    RiskOverrides,
    Scenario,
    Scenarios,
    price_increase,
    retained_exports,
    sample_batch,
    validate_scenario,
)
from .stats import critical_values

__all__ = [
    "CostBreakdown",
    "Design",
    "DesignEvaluation",
    "DiscretePmf",
    "Instance",
    "InstanceFormatError",
    "IterationLimitError",
    "LShapedResult",
    "Master",
    "RecourseError",
    "RecourseSolution",
    "RecourseSolver",
    "RiskOverrides",
    "RunArtifact",
    "SaaConfig",
    "SaaMemo",
    "SaaReport",
    "Scenario",
    "Scenarios",
    "StudyResult",
    "StudySpec",
    "ValidationError",
    "build_artifact",
    "check_forcing",
    "check_structural_theorems",
    "confidence_bounds",
    "critical_values",
    "dump_scenarios",
    "evaluate_design",
    "generate_synthetic_instance",
    "load_artifact",
    "load_instance",
    "make_instance",
    "price_increase",
    "retained_exports",
    "run_alliances_off",
    "run_backshoring",
    "run_export_ban_cases",
    "run_lshaped",
    "run_pricing",
    "run_saa",
    "run_sensitivity",
    "run_study",
    "sample_batch",
    "solve_master",
    "validate_design",
    "validate_instance",
    "validate_scenario",
    "write_instance",
    "write_report",
]
