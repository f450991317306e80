"""Per-layer tracing of one strainchain CLI invocation.

Run as a script, this is the traced form of the CLI:

    python3 perfbench/layers.py SPANS_JSON RUN_ID solve --instance ... --out ...

It wraps the entry points of each layer in every namespace they are
imported into, runs `strainchain.cli.cli_main` on the remaining arguments in
this process, writes the recorded spans to SPANS_JSON at exit and exits with
the CLI's code. `layer_metrics` turns such a span file into the per-layer
metrics and checks that the counts agree with one another.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import defaultdict

from spans import Recorder, Span, self_times

SIMPLEX = "simplex.solve_bounded_lp"
SOLVE = "recourse.solve"
CUT_TERMS = "recourse.cut_terms_from"
MASTER = "lshaped.solve_master"
LSHAPED = "lshaped.run_lshaped"
SAMPLE = "scenarios.sample_batch"
EVALUATE = "saa.evaluate_design"
RUN_SAA = "saa.run_saa"
WRITE_REPORT = "report.write_report"
LOAD_INSTANCE = "instance.load_instance"
CLI_MAIN = "cli.main"

# (module, attribute, span name). A callable imported with `from x import f`
# is a separate binding in the importing module, so each binding is patched.
WRAPPED = (
    ("strainchain.recourse", "solve_bounded_lp", SIMPLEX),
    ("strainchain.recourse", "cut_terms_from", CUT_TERMS),
    ("strainchain.lshaped", "cut_terms_from", CUT_TERMS),
    ("strainchain.lshaped", "solve_master", MASTER),
    ("strainchain.saa", "run_lshaped", LSHAPED),
    ("strainchain.saa", "sample_batch", SAMPLE),
    ("strainchain.saa", "evaluate_design", EVALUATE),
    ("strainchain.policy", "run_saa", RUN_SAA),
    ("strainchain.cli", "run_saa", RUN_SAA),
    ("strainchain.cli", "write_report", WRITE_REPORT),
    ("strainchain.cli", "load_instance", LOAD_INSTANCE),
)
SOLVER_METHOD = ("strainchain.recourse", "RecourseSolver", "solve")
# (span name, site) of every wrapper; site is the module the binding lives in
SITES = {(name, module.rsplit(".", 1)[1]) for module, _, name in WRAPPED} | {(SOLVE, "recourse")}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _note_simplex(attrs, args, kwargs, result):
    attrs["pivots"] = result.iterations


def _note_lshaped(attrs, args, kwargs, result):
    attrs["iterations"] = result.iterations
    attrs["scenarios"] = len(_arg(args, kwargs, 1, "scenarios"))


def _note_sample(attrs, args, kwargs, result):
    attrs["scenarios"] = len(result)


def _note_evaluate(attrs, args, kwargs, result):
    attrs["scenarios"] = len(_arg(args, kwargs, 2, "scenarios"))


NOTES = {
    SIMPLEX: _note_simplex,
    LSHAPED: _note_lshaped,
    SAMPLE: _note_sample,
    EVALUATE: _note_evaluate,
}


def _traced(recorder: Recorder, name: str, site: str, fn):
    note = NOTES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = {"site": site}
        handle = recorder.open()
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(handle, name, attrs)
        if note is not None:
            note(attrs, args, kwargs, result)
        return result

    return traced


def install(recorder: Recorder) -> None:
    """Patch every layer entry point.

    A binding that no longer exists is skipped, so the run still completes
    and `layer_metrics` reports it as a wrapper that never fired.
    """
    for module_name, attr, name in WRAPPED:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            site = module_name.rsplit(".", 1)[1]
            setattr(module, attr, _traced(recorder, name, site, getattr(module, attr)))

    module_name, cls_name, method = SOLVER_METHOD
    cls = getattr(importlib.import_module(module_name), cls_name)
    setattr(cls, method, _traced(recorder, SOLVE, "recourse", getattr(cls, method)))

    # replications submitted to the pool run in worker threads; link their
    # spans to the run_saa span that submitted them
    saa = importlib.import_module("strainchain.saa")
    if hasattr(saa, "ThreadPoolExecutor"):
        base = saa.ThreadPoolExecutor

        class LinkedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(recorder.linked(fn), *args, **kwargs)

        saa.ThreadPoolExecutor = LinkedPool


def main(argv: list) -> int:
    spans_path, run_id, *cli_args = argv
    recorder = Recorder(run_id)
    install(recorder)
    from strainchain.cli import cli_main

    try:
        with recorder.span(CLI_MAIN, site="cli"):
            code = cli_main(cli_args)
    finally:
        recorder.dump(spans_path)
    return code


# -- per-layer metrics ------------------------------------------------------

LAYER_UNITS = {
    "simplex.calls": "count",
    "simplex.pivots": "count",
    "simplex.pivots_per_call": "count",
    "simplex.self_s": "s",
    "simplex.call_us_p50": "us",
    "simplex.call_us_p95": "us",
    "simplex.share_of_wall": "ratio",
    "lshaped.runs": "count",
    "lshaped.iterations": "count",
    "lshaped.master_calls": "count",
    "lshaped.master_s": "s",
    "lshaped.master_share_of_wall": "ratio",
    "lshaped.self_s": "s",
    "recourse.solves": "count",
    "recourse.self_s": "s",
    "recourse.cut_terms_calls": "count",
    "recourse.cut_terms_per_solve": "ratio",
    "recourse.cut_terms_s": "s",
    "recourse.overhead_share": "ratio",
    "scenarios.sampled": "count",
    "scenarios.sample_s": "s",
    "saa.evaluate_s": "s",
    "saa.eval_designs": "count",
    "saa.eval_designs_per_replication": "ratio",
    "saa.self_s": "s",
    "policy.arms": "count",
    "policy.arm_s_max": "s",
    "cli.cpu_util": "ratio",
    "report.write_s": "s",
    "report.bytes": "B",
    "instance.load_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span], n_opt: int, n_eval: int, expected: set) -> tuple[dict, list]:
    """Per-layer values from one traced invocation, plus the identities that failed.

    `expected` holds the (span name, site) pairs that must have fired.
    Values that need the invocation's wall time or rusage (shares of wall,
    cpu_util, overhead, bytes) are filled in by the caller.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_name: dict = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name):
        return sum(s.duration for s in by_name[name])

    def self_total(name):
        return sum(own[s.id] for s in by_name[name])

    def parent_name(s):
        parent = by_id.get(s.parent)
        return parent.name if parent else None

    simplex, solves = by_name[SIMPLEX], by_name[SOLVE]
    runs, evals = by_name[LSHAPED], by_name[EVALUATE]
    arms = [s for s in by_name[RUN_SAA] if s.attrs["site"] == "policy"]
    call_us = [s.duration * 1e6 for s in simplex]
    pct = statistics.quantiles(call_us, n=20) if len(call_us) > 1 else [0.0] * 19
    iterations = sum(s.attrs.get("iterations", 0) for s in runs)
    cut_terms_calls = len(by_name[CUT_TERMS])
    m = {
        "simplex.calls": len(simplex),
        "simplex.pivots": sum(s.attrs.get("pivots", 0) for s in simplex),
        "simplex.self_s": self_total(SIMPLEX),
        "simplex.call_us_p50": pct[9],
        "simplex.call_us_p95": pct[18],
        "lshaped.runs": len(runs),
        "lshaped.iterations": iterations,
        "lshaped.master_calls": len(by_name[MASTER]),
        "lshaped.master_s": total(MASTER),
        "lshaped.self_s": self_total(LSHAPED),
        "recourse.solves": len(solves),
        "recourse.self_s": self_total(SOLVE),
        "recourse.cut_terms_calls": cut_terms_calls,
        "recourse.cut_terms_s": total(CUT_TERMS),
        "scenarios.sampled": sum(s.attrs.get("scenarios", 0) for s in by_name[SAMPLE]),
        "scenarios.sample_s": total(SAMPLE),
        "saa.evaluate_s": total(EVALUATE),
        "saa.eval_designs": len(evals),
        "saa.eval_designs_per_replication": len(evals) / max(1, len(runs)),
        "saa.self_s": self_total(RUN_SAA),
        "policy.arms": len(arms),
        "policy.arm_s_max": max((s.duration for s in arms), default=0.0),
        "report.write_s": total(WRITE_REPORT),
        "instance.load_s": total(LOAD_INSTANCE),
    }
    m["simplex.pivots_per_call"] = m["simplex.pivots"] / max(1, len(simplex))
    m["recourse.cut_terms_per_solve"] = cut_terms_calls / max(1, len(solves))
    overhead = m["recourse.self_s"] + m["recourse.cut_terms_s"]
    m["recourse.overhead_share"] = overhead / max(1e-12, overhead + m["simplex.self_s"])

    problems = []

    def check(ok, message):
        if not ok:
            problems.append(message)

    check(
        len(simplex) == len(solves),
        f"simplex.calls {len(simplex)} != recourse.solves {len(solves)}",
    )
    check(
        all(parent_name(s) == SOLVE for s in simplex),
        "a simplex call ran outside a recourse solve",
    )
    decomposition = sum(1 for s in solves if parent_name(s) == LSHAPED)
    evaluation = sum(1 for s in solves if parent_name(s) == EVALUATE)
    check(
        decomposition + evaluation == len(solves),
        f"{len(solves) - decomposition - evaluation} solves outside decomposition and evaluation",
    )
    check(
        all(s.attrs.get("scenarios") == n_opt for s in runs),
        f"a decomposition run did not use N={n_opt} scenarios",
    )
    check(
        decomposition == iterations * n_opt,
        f"decomposition solves {decomposition} != iterations {iterations} x N {n_opt}",
    )
    check(
        evaluation == len(evals) * n_eval,
        f"evaluation solves {evaluation} != eval_designs {len(evals)} x N' {n_eval}",
    )
    check(
        all(parent_name(s) == RUN_SAA for s in runs),
        "a decomposition run is not linked to the run_saa call that started it",
    )
    fired = {(s.name, s.attrs["site"]) for s in spans}
    missing = sorted(expected - fired)
    check(not missing, f"wrappers that never fired: {missing}")
    return m, problems


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
