"""Tests of the benchmark's own arithmetic: python -m pytest perfbench"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import layers
import run
from spans import Recorder, Span, covered, load, self_times


def span(id, parent, start, end, name="x"):
    return Span(id, parent, name, float(start), float(end), "r")


def test_covered_merges_overlapping_and_adjacent_intervals():
    assert covered([]) == 0.0
    assert covered([(0, 2), (1, 3), (3, 4), (6, 7)]) == pytest.approx(5.0)
    assert covered([(1, 5), (2, 3)]) == pytest.approx(4.0)


def test_self_time_with_nested_and_concurrent_children():
    spans = [
        span(1, None, 0, 10),
        span(2, 1, 1, 4),    # child, thread A
        span(3, 1, 3, 6),    # child, thread B, overlaps span 2
        span(4, 2, 2, 3),    # grandchild: counts against 2, not against 1
        span(5, 1, 9, 12),   # child outliving its parent is clipped at 10
        span(6, 3, 3, 6),    # child covering all of its parent
        span(7, 99, 0, 1),   # parent not recorded: a root
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - 5 - 1)   # union [1, 6] plus [9, 10]
    assert own[2] == pytest.approx(3 - 1)
    assert own[3] == pytest.approx(0.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)
    assert own[7] == pytest.approx(1.0)


def test_thread_local_parents_and_pool_linking(tmp_path):
    rec = Recorder("run-1")
    barrier = threading.Barrier(2, timeout=10)

    def work(n):
        with rec.span("leaf", n=n):
            barrier.wait()  # both leaves are open at the same time

    with rec.span("root"):
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(rec.linked(work), n) for n in range(2)]
            for f in futures:
                f.result(timeout=10)
    with rec.span("unlinked"):
        pass

    rec.dump(tmp_path / "spans.json")
    spans = load(tmp_path / "spans.json")
    assert [s.run for s in spans] == ["run-1"] * 4
    root = next(s for s in spans if s.name == "root")
    leaves = [s for s in spans if s.name == "leaf"]
    assert sorted(s.attrs["n"] for s in leaves) == [0, 1]
    assert all(s.parent == root.id for s in leaves)
    assert next(s for s in spans if s.name == "unlinked").parent is None
    # the leaves overlap, so root's self time is its duration minus their union
    union = max(s.end for s in leaves) - min(s.start for s in leaves)
    assert self_times(spans)[root.id] == pytest.approx(root.duration - union)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    doc = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.LAYER_UNITS
