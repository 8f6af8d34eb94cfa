"""Tests of the benchmark itself: ledger arithmetic, spec, determinism.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import ledger
import workloads
from ledger import SEGMENT

BENCH = pathlib.Path(__file__).resolve().parent.parent


def span(name, start, end, parent=-1, meta=None):
    return [name, start, end, parent, None, meta]


def test_self_time_subtracts_merged_clipped_children():
    spans = [
        span(SEGMENT, 0.0, 10.0),
        span("shard.flush", 1.0, 5.0, parent=0),
        # Overlapping siblings cover 2..4 once, not twice.
        span("wal.append", 2.0, 3.5, parent=1),
        span("maintain.apply", 3.0, 4.0, parent=1),
        # A child running past its parent only counts up to its end.
        span("events.parse", 9.0, 11.0, parent=0),
    ]
    assert ledger.self_times(spans).tolist() == pytest.approx(
        [5.0, 2.0, 1.5, 1.0, 2.0])


def test_layer_self_times_and_unattributed_sum_to_phase():
    spans = [
        span(SEGMENT, 0.0, 10.0),
        span("fleet.submit", 0.5, 6.0, parent=0),
        span("shard.flush", 1.0, 6.0, parent=1, meta=64),
        span("stream.durable_append", 1.0, 5.5, parent=2),
        span("wal.append", 1.0, 1.5, parent=3, meta=640),
        span("maintain.apply", 1.5, 5.0, parent=3),
        span("assign.many", 2.0, 4.0, parent=5, meta=(64, 10, 30)),
        span("events.parse", 7.0, 7.25, parent=0),
        span(SEGMENT, 20.0, 21.0),
    ]
    metrics = ledger.layer_metrics(spans, points=64, queue_waits_s=[0.002],
                                   dist_computed=10, dist_pruned=30)
    assert metrics["trace.phase_s"] == pytest.approx(11.0)
    assert metrics["trace.unattributed_s"] == pytest.approx(4.25 + 1.0)
    assert metrics["fleet.submit_self_s"] == pytest.approx(0.5)
    assert metrics["shard.flush_self_s"] == pytest.approx(0.5)
    assert metrics["stream.append_self_s"] == pytest.approx(0.5)
    assert metrics["maintain.apply_self_s"] == pytest.approx(1.5)
    assert metrics["assign.s"] == pytest.approx(2.0)
    assert metrics["assign.pruned_frac"] == pytest.approx(0.75)
    assert metrics["wal.bytes_per_pt"] == pytest.approx(10.0)
    assert metrics["shard.batches"] == 1
    assert metrics["shard.queue_wait_p50_ms"] == pytest.approx(2.0)
    assert ledger.self_time_gap(metrics) == pytest.approx(0.0, abs=1e-12)


def test_every_span_name_has_a_reported_self_metric():
    reported = {name for name, _ in ledger.PER_LAYER}
    assert set(ledger.SELF_METRIC.values()) <= reported


def test_benchmark_json_matches_the_metrics_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        workloads.E2E)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        ledger.PER_LAYER)
    assert spec["paths"] == ["perfbench"]


#: Count metrics, per workload, that must repeat bit for bit.
COUNTS = {
    "serve_durable": ("write_bytes_per_pt", "fsyncs_per_kpt", "batches"),
    "cluster_live": ("fscore", "fit_sources", "dist_per_query"),
    "recover_fleet": ("replayed_batches", "replayed_points",
                      "crashed_at_event", "write_bytes_per_pt",
                      "fsyncs_per_kpt"),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(name, tmp_path):
    runs = [
        workloads.run(name, seed=3, seconds=1, trace=False,
                      workdir=tmp_path / str(i), sizes=workloads.SMALL)
        for i in range(2)
    ]
    for out in runs:
        assert out["problems"] == []
        assert out["failed"] == 0
    first, second = (out["report"] for out in runs)
    for key in ("dist_per_pt",) + COUNTS[name]:
        assert first[key] == second[key], key


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_closes_its_ledger(name, tmp_path):
    out = workloads.run(name, seed=3, seconds=1, trace=True,
                        workdir=tmp_path, sizes=workloads.SMALL)
    assert out["problems"] == []
    metrics = out["metrics"]
    assert set(metrics) == {n for n, _ in ledger.PER_LAYER}
    assert metrics["trace.phase_s"] > 0
    assert ledger.self_time_gap(metrics) == pytest.approx(0.0, abs=1e-6)


def test_refuses_to_run_without_the_repository_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cluster_live",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
