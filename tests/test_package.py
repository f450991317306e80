"""The package's exports: loaded on first use, the same objects as before."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strainchain
from strainchain import write_instance

from helpers import tiny_instance

# the names the package exported when it imported every submodule eagerly
EXPORTS = {
    "generator": ["generate_synthetic_instance"],
    "instance": [
        "Design", "DiscretePmf", "Instance", "InstanceFormatError", "ValidationError",
        "load_instance", "make_instance", "validate_design", "validate_instance",
        "write_instance",
    ],
    "lshaped": [
        "IterationLimitError", "LShapedResult", "Master", "check_forcing", "run_lshaped",
        "solve_master",
    ],
    "policy": [
        "StudyResult", "StudySpec", "run_alliances_off", "run_backshoring",
        "run_export_ban_cases", "run_pricing", "run_sensitivity", "run_study",
    ],
    "recourse": [
        "RecourseError", "RecourseSolution", "RecourseSolver", "check_structural_theorems",
    ],
    "report": ["RunArtifact", "build_artifact", "dump_scenarios", "load_artifact", "write_report"],
    "saa": [
        "CostBreakdown", "DesignEvaluation", "SaaConfig", "SaaMemo", "SaaReport",
        "confidence_bounds", "evaluate_design", "run_saa",
    ],
    "scenarios": [
        "RiskOverrides", "Scenario", "Scenarios", "price_increase", "retained_exports",
        "sample_batch", "validate_scenario",
    ],
    "stats": ["critical_values"],
}
# every submodule but `cli` was bound by those eager imports; `recourse`
# pulled in `simplex`
SUBMODULES = sorted([*EXPORTS, "simplex"])


def run_fresh(code: str, *args: str) -> dict:
    """Run `code` in a new interpreter and return the JSON it prints."""
    env = dict(os.environ)
    src = str(Path(strainchain.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


LOADED = "sorted(m for m in sys.modules if m.startswith('strainchain.') or m == 'numpy')"


def test_import_loads_no_submodule_and_load_instance_only_its_own(tmp_path):
    path = tmp_path / "instance.json"
    write_instance(tiny_instance(), path)
    seen = run_fresh(
        "import json, sys\n"
        "import strainchain\n"
        f"bare = {LOADED}\n"
        "strainchain.load_instance(sys.argv[1])\n"
        f"print(json.dumps({{'bare': bare, 'loaded': {LOADED}}}))\n",
        str(path),
    )
    assert seen["bare"] == []
    assert seen["loaded"] == ["numpy", "strainchain.instance", "strainchain.stats"]


def test_all_is_the_pinned_names_each_its_home_modules_object():
    names = [name for group in EXPORTS.values() for name in group]
    assert len(names) == 50
    assert strainchain.__all__ == sorted(names)
    for module, group in EXPORTS.items():
        home = importlib.import_module(f"strainchain.{module}")
        for name in group:
            assert getattr(strainchain, name) is getattr(home, name), name


def test_every_submodule_resolves_after_a_bare_import():
    seen = run_fresh(
        "import json, sys\n"
        "import strainchain\n"
        "print(json.dumps({\n"
        f"    'same': {{m: getattr(strainchain, m) is sys.modules['strainchain.' + m] for m in {SUBMODULES!r}}},\n"
        "    'batch_limit': strainchain.recourse.BATCH_LIMIT,\n"
        "    'cli': hasattr(strainchain, 'cli'),\n"
        "}))\n"
    )
    assert seen["same"] == dict.fromkeys(SUBMODULES, True)
    assert seen["batch_limit"] == importlib.import_module("strainchain.recourse").BATCH_LIMIT
    assert seen["cli"] is False


@pytest.mark.parametrize("name", ["nowhere", "BATCH_LIMIT", "parse_json", "np", "importlib"])
def test_an_unexported_name_raises_attribute_error_naming_it(name):
    # names that live in a submodule but are not exported stay unexported
    with pytest.raises(AttributeError, match=repr(name)):
        getattr(strainchain, name)
    assert not hasattr(strainchain, name)


def test_dir_and_star_import_cover_all():
    assert set(strainchain.__all__) <= set(dir(strainchain))
    seen = run_fresh(
        "import json\n"
        "from strainchain import *\n"
        "print(json.dumps(sorted(n for n in dir() if not n.startswith('__') and n != 'json')))\n"
    )
    assert seen == strainchain.__all__
