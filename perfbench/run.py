"""strainchain benchmark: wall time of `solve` and `study` on generated inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`, never from an installed copy. With `--trace 0` the benchmark
invokes the `strainchain` CLI in fresh processes for about S seconds and
reports the end-to-end metrics. With `--trace 1` it runs the same command
once plainly and once through `layers.py`, which records a span at every
call into a layer, and reports the per-layer metrics. Every invocation's
outputs are checked: exit code 0, `report.json` bytes identical across
repeats, and `strainchain verify` passing on every run directory.

A table goes to stdout first; the last line is one JSON object with the
keys correct, attempted, failed and metrics. See README.md for the metric
guide and the recorded baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

RUN_LIMIT_S = 170.0    # the whole run, build-free, must end well inside 180 s
SETUP_SAMPLES = 9

# numpy's BLAS would otherwise start a worker per core. On two cores those
# workers doubled the CPU time of solve_large without shortening it and made
# its wall time vary by +-8%; pinned, the only parallelism measured is the
# program's own thread pool.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The problem of each workload is fixed: generator seed and sampling seed do
# not follow --seed. Decomposition iteration counts, and with them wall time
# and the statistical gap, vary two- to threefold between instances and
# between samples of one instance, and the branch-and-bound master is heavy
# tailed in them; a run holds only a few invocations, so a seed-dependent
# problem could not give steady medians. --seed names the run directory.
INSTANCE_SEED = 1
BASE_SEED = 20240101


@dataclass(frozen=True)
class Workload:
    command: str                   # CLI subcommand
    sizes: tuple                   # suppliers, plant candidates, countries
    saa: dict                      # the config's "saa" section
    master: str                    # "enumeration" or "branch_and_bound"
    why: str
    studies: list = field(default_factory=list)


WORKLOADS = {
    "study_ban_cases": Workload(
        command="study",
        sizes=(3, 5, 10),
        saa=dict(replications=5, optimization_scenarios=30, evaluation_scenarios=300, max_passes=1),
        master="enumeration",
        studies=[{"kind": "export_ban_cases"}],
        why="tiny LPs (about 9 pivots), so per-solve Python overhead, evaluation and six arms' "
        "artifact writes carry the largest share of the time",
    ),
    "solve_large": Workload(
        command="solve",
        sizes=(8, 16, 60),
        saa=dict(replications=2, optimization_scenarios=15, evaluation_scenarios=300, max_passes=1),
        master="enumeration",
        why="simplex-bound: about 40 pivots per LP and a 2^16 enumerated master; "
        "the single-threaded baseline",
    ),
    "solve_bnb": Workload(
        command="solve",
        sizes=(3, 21, 21),
        saa=dict(replications=2, optimization_scenarios=10, evaluation_scenarios=100, max_passes=1),
        master="branch_and_bound",
        why="21 plants exceed the enumeration limit, so the branch-and-bound master "
        "dominates and LP work is a small share",
    ),
}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "saa_gap": "ratio"}

SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import strainchain\n"
    "strainchain.load_instance(sys.argv[1])\n"
    "print(repr(time.perf_counter() - t0))\n"
)
VERIFY_ALL = (
    "import sys\n"
    "from strainchain.cli import cli_main\n"
    "sys.exit(max(cli_main(['verify', '--run', d]) for d in sys.argv[1:]))\n"
)


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


class Run:
    """One benchmark run: its inputs, deadline and the checks that failed."""

    def __init__(self, name: str, seed: int, trace: int):
        self.name = name
        self.workload = WORKLOADS[name]
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.dir = RUNS / f"{name}-seed{seed}-trace{trace}"
        self.problems: list[str] = []
        self.env = {**os.environ, **BLAS_ENV}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok

    def child(self, argv: list, log: str) -> Child:
        """Run one child process to completion; wall time from start to exit."""
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(self.dir / log, "ab") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env, stdout=fh, stderr=fh
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
        )

    # -- inputs -----------------------------------------------------------

    def write_inputs(self) -> None:
        from strainchain import generate_synthetic_instance, write_instance
        from strainchain.lshaped import ENUMERATION_LIMIT

        wl = self.workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        inst = generate_synthetic_instance(*wl.sizes, seed=INSTANCE_SEED)
        write_instance(inst, self.instance)
        config = {"saa": {**wl.saa, "base_seed": BASE_SEED}}
        if wl.studies:
            config["studies"] = wl.studies
        self.config.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")

        plants = len(inst.plant_candidates)
        if wl.master == "branch_and_bound":
            self.check(
                plants > ENUMERATION_LIMIT,
                f"{plants} plants do not exceed ENUMERATION_LIMIT={ENUMERATION_LIMIT}",
            )
        else:
            self.check(
                plants <= ENUMERATION_LIMIT,
                f"{plants} plants exceed ENUMERATION_LIMIT={ENUMERATION_LIMIT}",
            )

    @property
    def instance(self) -> Path:
        return self.dir / "instance.json"

    @property
    def config(self) -> Path:
        return self.dir / "config.json"

    @property
    def out(self) -> Path:
        return self.dir / "out"

    def cli_args(self) -> list:
        # One thread: with two, each study invocation made about 240k
        # interpreter-lock handoffs and its wall time swung by +-9% (run
        # medians by 15-27%) with the scheduling of the second core.
        return [
            self.workload.command,
            "--instance", str(self.instance),
            "--config", str(self.config),
            "--out", str(self.out),
            "--threads", "1",
        ]

    def cli(self, args: list, traced: bool = False) -> Child:
        """One CLI invocation into a fresh output directory at the same path.

        The path stays the same because study arms echo it in report.json.
        The directory is new because rewriting the previous invocation's
        files blocked on writeback for about 80 ms per file (2-vCPU virtual
        machine), a cost that a run into a new directory does not pay.
        """
        shutil.rmtree(self.out, ignore_errors=True)
        if traced:
            return self.child([str(HERE / "layers.py"), *args], "traced.log")
        return self.child(["-m", "strainchain.cli", *args], "cli.log")

    # -- output checks ----------------------------------------------------

    def outputs_digest(self) -> str:
        """Hash of every artifact except the wall-clock sidecar."""
        h = hashlib.sha256()
        for path in sorted(self.out.rglob("*")):
            if path.is_file() and path.name not in ("timings.json", "verify.json"):
                h.update(str(path.relative_to(self.out)).encode())
                h.update(path.read_bytes())
        return h.hexdigest()

    def run_dirs(self) -> list:
        return sorted(p.parent for p in self.out.rglob("report.json"))

    def verify(self) -> bool:
        dirs = self.run_dirs()
        if not self.check(bool(dirs), "no report.json was written"):
            return False
        result = self.child(["-c", VERIFY_ALL, *map(str, dirs)], "verify.log")
        return self.check(result.code == 0, f"strainchain verify exited {result.code}")

    def saa_gap(self) -> float:
        gaps = [
            json.loads((d / "report.json").read_text())["saa"]["gap"] for d in self.run_dirs()
        ]
        gap = max(gaps, default=math.nan)
        self.check(math.isfinite(gap) and gap > 0, f"saa gap {gap!r} is not positive")
        return gap


# -- the two kinds of run ------------------------------------------------------


def timed_run(run: Run, seconds: float) -> dict:
    run.child(["-c", SETUP_PROBE, str(run.instance)], "setup.log")  # fills the bytecode cache
    setup = []
    for _ in range(SETUP_SAMPLES):
        try:
            probe = subprocess.run(
                [sys.executable, "-c", SETUP_PROBE, str(run.instance)],
                cwd=ROOT, env=run.env, capture_output=True, text=True,
                timeout=max(1.0, run.deadline - time.perf_counter()),
            )
        except subprocess.TimeoutExpired:
            run.check(False, "setup probe ran past the run's deadline")
            break
        if not run.check(probe.returncode == 0, f"setup probe exited {probe.returncode}"):
            break
        setup.append(float(probe.stdout))

    walls, rss, failed = [], [], 0
    reference = None
    start = time.perf_counter()
    while True:
        result = run.cli(run.cli_args())
        walls.append(result.wall_s)
        rss.append(result.peak_rss_mb)
        ok = run.check(result.code == 0, f"invocation {len(walls)} exited {result.code}")
        if ok:
            digest = run.outputs_digest()
            reference = reference or digest
            ok = run.check(digest == reference, f"invocation {len(walls)} changed report bytes")
        failed += not ok
        elapsed = time.perf_counter() - start
        if not ok and result.code < 0:
            break  # killed at the run's deadline
        expected = statistics.median(walls)
        if len(walls) >= 2 and (
            elapsed + expected > seconds or time.perf_counter() + 2 * expected > run.deadline
        ):
            break

    # every repeat wrote the same bytes, so a failed output check fails them all
    gap = run.saa_gap() if failed < len(walls) and run.verify() else math.nan
    if not gap > 0:
        failed = len(walls)
    samples = {
        "wall_s": walls,
        "setup_s": setup or [math.nan],
        "peak_rss_mb": rss,
        "saa_gap": [gap] * len(walls),
    }
    print_table(samples, E2E_UNITS)
    print("wall_s samples: " + " ".join(f"{w:.4f}" for w in walls))
    print(f"fail_frac {failed}/{len(walls)} = {failed / len(walls):.4g}")
    medians = {name: statistics.median(values) for name, values in samples.items()}
    return result_line(run, len(walls), failed, medians, E2E_UNITS)


def traced_run(run: Run, trace_seed: int) -> dict:
    wl = run.workload
    run.child(["-c", SETUP_PROBE, str(run.instance)], "setup.log")  # fills the bytecode cache
    plain = run.cli(run.cli_args())
    failed = 0
    if not run.check(plain.code == 0, f"plain invocation exited {plain.code}"):
        failed += 1
    plain_digest = run.outputs_digest()

    span_file = run.dir / "spans.json"
    run_id = f"{run.name}-seed{trace_seed}"
    traced = run.cli([str(span_file), run_id, *run.cli_args()], traced=True)
    traced_ok = run.check(traced.code == 0, f"traced invocation exited {traced.code}")
    traced_ok &= run.check(
        run.outputs_digest() == plain_digest, "tracing changed the report bytes"
    )
    unused = {(layers.RUN_SAA, "cli" if wl.command == "study" else "policy")}
    metrics, problems = layers.layer_metrics(
        spans.load(span_file) if span_file.exists() else [],
        wl.saa["optimization_scenarios"],
        wl.saa["evaluation_scenarios"],
        layers.SITES - unused,
    )
    run.problems.extend(problems)
    traced_ok = traced_ok and not problems and run.verify()
    failed += not traced_ok
    wall = traced.wall_s
    metrics.update(
        {
            "simplex.share_of_wall": metrics["simplex.self_s"] / wall,
            "lshaped.master_share_of_wall": metrics["lshaped.master_s"] / wall,
            "cli.cpu_util": plain.cpu_s / plain.wall_s,
            "report.bytes": sum(p.stat().st_size for p in run.out.rglob("*") if p.is_file()),
            "trace.wall_s": wall,
            "trace.overhead_s": wall - plain.wall_s,
        }
    )
    for name, unit in layers.LAYER_UNITS.items():
        print(f"{name:34s} {unit:6s} {metrics[name]:.6g}")
    return result_line(run, 2, failed, metrics, layers.LAYER_UNITS)


# -- output ------------------------------------------------------------------


def print_table(samples: dict, units: dict) -> None:
    print(f"{'metric':12s} {'unit':6s} {'n':>3s} {'median':>12s} {'p25':>12s} {'p75':>12s}")
    for name, unit in units.items():
        values = samples[name]
        q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(
            f"{name:12s} {unit:6s} {len(values):3d} {statistics.median(values):12.6g} "
            f"{q[0]:12.6g} {q[2]:12.6g}"
        )


def result_line(run: Run, attempted: int, failed: int, values: dict, units: dict) -> dict:
    for message in run.problems:
        print(f"check failed: {message}")
    return {
        "correct": not run.problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "strainchain" / "__init__.py").is_file():
        print(f"error: no strainchain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, args.seed, args.trace)
    run.write_inputs()
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{run.workload.command} {'/'.join(map(str, run.workload.sizes))} {run.workload.saa}"
    )
    if args.trace:
        result = traced_run(run, args.seed)
    else:
        result = timed_run(run, args.seconds)
    if result["correct"]:
        shutil.rmtree(run.dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
