"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.persistence import snapshot_paths


class TestParser:
    def test_known_commands(self):
        parser = build_parser()
        for command in ("table1", "figure7", "figure9", "figure10", "figure11", "all"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_option_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.size == 10_000
        assert args.bubbles == 100
        assert args.reps is None
        assert not args.quick

    def test_option_parsing(self):
        args = build_parser().parse_args(
            ["figure9", "--size", "500", "--reps", "2", "--quick"]
        )
        assert args.size == 500
        assert args.reps == 2
        assert args.quick


class TestSummarize:
    def test_requires_wal_dir(self):
        with pytest.raises(SystemExit):
            main(["summarize"])

    def test_fresh_run_creates_durable_state(self, tmp_path, capsys):
        state_dir = tmp_path / "state"
        code = main(
            [
                "summarize",
                "--wal-dir", str(state_dir),
                "--chunks", "6",
                "--chunk-size", "100",
                "--window", "400",
                "--points-per-bubble", "40",
                "--checkpoint-every", "3",
                "--no-fsync",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "initialized durable state" in out
        assert "6 batches durable" in out
        assert (state_dir / "manifest.json").exists()
        assert (state_dir / "wal.log").exists()
        assert snapshot_paths(state_dir)

    def test_resume_continues_the_stream(self, tmp_path, capsys):
        state_dir = tmp_path / "state"
        base = [
            "summarize",
            "--wal-dir", str(state_dir),
            "--chunks", "4",
            "--chunk-size", "100",
            "--window", "400",
            "--points-per-bubble", "40",
            "--checkpoint-every", "3",
            "--no-fsync",
        ]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert "4 batches already applied" in out
        assert "8 batches durable" in out

    def test_fresh_run_refuses_existing_state(self, tmp_path, capsys):
        state_dir = tmp_path / "state"
        base = [
            "summarize",
            "--wal-dir", str(state_dir),
            "--chunks", "2",
            "--chunk-size", "50",
            "--no-fsync",
        ]
        assert main(base) == 0
        assert main(base) == 1
        assert "already holds durable" in capsys.readouterr().err

    def test_resume_refuses_dir_without_manifest(self, tmp_path, capsys):
        """Regression: a manifest-less directory must produce a clear
        error (exit 1, no traceback) and must not be mutated by the
        probe."""
        state_dir = tmp_path / "not_state"
        state_dir.mkdir()
        code = main(
            [
                "summarize",
                "--resume",
                "--wal-dir", str(state_dir),
                "--no-fsync",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "manifest.json is missing" in err
        assert list(state_dir.iterdir()) == []

    def test_resume_refuses_missing_dir_without_creating_it(
        self, tmp_path, capsys
    ):
        state_dir = tmp_path / "never_made"
        code = main(
            [
                "summarize",
                "--resume",
                "--wal-dir", str(state_dir),
                "--no-fsync",
            ]
        )
        assert code == 1
        assert "manifest.json is missing" in capsys.readouterr().err
        assert not state_dir.exists()


class TestObservabilityOutputs:
    def _summarize(self, state_dir, extra):
        return main(
            [
                "summarize",
                "--wal-dir", str(state_dir),
                "--chunks", "8",
                "--chunk-size", "200",
                "--window", "800",
                "--points-per-bubble", "40",
                "--checkpoint-every", "4",
                "--no-fsync",
                *extra,
            ]
        )

    def test_metrics_out_matches_distance_counter(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        code = self._summarize(
            tmp_path / "state", ["--metrics-out", str(metrics_path)]
        )
        assert code == 0
        document = json.loads(metrics_path.read_text())
        values = {
            sample["name"]: sample["value"]
            for sample in document["metrics"]
            if "value" in sample and "labels" not in sample
        }
        computed = values["repro_distance_computed_total"]
        pruned = values["repro_distance_pruned_total"]
        # The registry totals are the DistanceCounter totals the CLI
        # prints (one source of truth for the Figure 10/11 numbers).
        derived = document["derived"]
        assert derived["computed_distances"] == computed
        assert derived["pruned_distances"] == pruned
        assert derived["pruned_fraction"] == pytest.approx(
            pruned / (computed + pruned)
        )
        out = capsys.readouterr().out
        assert f"{computed} distances computed" in out

        prom_text = (tmp_path / "m.prom").read_text()
        assert f"repro_distance_computed_total {computed}" in prom_text
        assert f"repro_distance_pruned_total {pruned}" in prom_text

    def test_trace_out_is_valid_jsonl(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        code = self._summarize(
            tmp_path / "state", ["--trace-out", str(trace_path)]
        )
        assert code == 0
        events = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        kinds = {event["kind"] for event in events}
        assert "insert_batch" in kinds
        assert "wal_append" in kinds
        assert "snapshot_write" in kinds
        assert "span_start" in kinds and "span_end" in kinds
        assert all("ts" in event and "seq" in event for event in events)

    def test_timeseries_out_writes_one_window_per_batch(self, tmp_path):
        ts_path = tmp_path / "ts.jsonl"
        code = self._summarize(
            tmp_path / "state", ["--timeseries-out", str(ts_path)]
        )
        assert code == 0
        windows = [
            json.loads(line) for line in ts_path.read_text().splitlines()
        ]
        assert len(windows) == 8  # default window = 1 batch, 8 chunks
        assert all(w["schema"] == 1 for w in windows)
        assert windows[-1]["gauges"]["active_bubbles"] > 0

    def test_timeseries_window_flag_coalesces_batches(self, tmp_path):
        ts_path = tmp_path / "ts.jsonl"
        code = self._summarize(
            tmp_path / "state",
            ["--timeseries-out", str(ts_path), "--timeseries-window", "3"],
        )
        assert code == 0
        windows = [
            json.loads(line) for line in ts_path.read_text().splitlines()
        ]
        # 8 batches in windows of 3: two full windows + a flushed partial.
        assert [w["end_batch"] for w in windows] == [3, 6, 8]

    def test_scheduled_checkpoint_counts_in_its_batch_window(
        self, tmp_path
    ):
        ts_path, metrics_path = tmp_path / "ts.jsonl", tmp_path / "m.json"
        code = main(
            [
                "summarize",
                "--wal-dir", str(tmp_path / "state"),
                "--chunks", "12",
                "--chunk-size", "200",
                "--checkpoint-every", "4",
                "--no-fsync",
                "--timeseries-out", str(ts_path),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        windows = [
            json.loads(line) for line in ts_path.read_text().splitlines()
        ]
        totals = {
            sample["name"]: sample["value"]
            for sample in json.loads(metrics_path.read_text())["metrics"]
            if "value" in sample and "labels" not in sample
        }
        writes = [
            w["counters"]["repro_snapshot_writes_total"] for w in windows
        ]
        assert writes == [0, 0, 0, 1] * 3
        # The goodbye checkpoint of close belongs to no batch.
        assert totals["repro_snapshot_writes_total"] == sum(writes) + 1
        for name in windows[0]["counters"]:
            if name != "repro_snapshot_writes_total":
                assert sum(w["counters"][name] for w in windows) == (
                    totals.get(name, 0)
                ), name

    def test_health_out_writes_report(self, tmp_path, capsys):
        health_path = tmp_path / "health.json"
        code = self._summarize(
            tmp_path / "state", ["--health-out", str(health_path)]
        )
        assert code == 0
        report = json.loads(health_path.read_text())
        assert report["schema"] == 1
        assert report["quality"] is not None
        assert report["pruning"]["distances_computed"] > 0
        assert {row["op"] for row in report["spans"]} >= {
            "stream_append",
            "wal_append",
        }
        assert "wrote health report" in capsys.readouterr().out


class TestReport:
    def test_requires_wal_dir(self):
        with pytest.raises(SystemExit):
            main(["report"])

    def _state_dir(self, tmp_path):
        state_dir = tmp_path / "state"
        assert main(
            [
                "summarize",
                "--wal-dir", str(state_dir),
                "--chunks", "8",
                "--chunk-size", "200",
                "--window", "800",
                "--points-per-bubble", "40",
                "--no-fsync",
            ]
        ) == 0
        return state_dir

    def test_text_report_from_state_directory(self, tmp_path, capsys):
        state_dir = self._state_dir(tmp_path)
        capsys.readouterr()
        assert main(["report", "--wal-dir", str(state_dir)]) == 0
        out = capsys.readouterr().out
        assert "health report (schema 1)" in out
        assert f"source: {state_dir}" in out
        # The span table reflects genuinely measured recovery work.
        assert "recovery" in out
        assert "window points     800" in out

    def test_json_report_and_outputs(self, tmp_path, capsys):
        state_dir = self._state_dir(tmp_path)
        health_path = tmp_path / "health.json"
        ts_path = tmp_path / "ts.jsonl"
        capsys.readouterr()
        assert main(
            [
                "report",
                "--wal-dir", str(state_dir),
                "--format", "json",
                "--health-out", str(health_path),
                "--timeseries-out", str(ts_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        printed = json.loads(out[: out.rindex("}") + 1])
        assert printed["schema"] == 1
        assert printed["stream"]["window_points"] == 800
        assert printed["quality"] is not None
        assert json.loads(health_path.read_text()) == printed
        assert ts_path.exists()

    def test_report_does_not_mutate_state(self, tmp_path, capsys):
        state_dir = self._state_dir(tmp_path)
        before = {
            p.name: p.stat().st_size
            for p in sorted(state_dir.iterdir())
        }
        assert main(["report", "--wal-dir", str(state_dir)]) == 0
        after = {
            p.name: p.stat().st_size
            for p in sorted(state_dir.iterdir())
        }
        assert after == before


class TestStats:
    def test_requires_wal_dir(self):
        with pytest.raises(SystemExit):
            main(["stats"])

    def test_refuses_dir_without_manifest(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["stats", "--wal-dir", str(empty)]) == 1
        assert "manifest.json is missing" in capsys.readouterr().err
        assert list(empty.iterdir()) == []

    def test_reports_state_in_all_formats(self, tmp_path, capsys):
        state_dir = tmp_path / "state"
        assert main(
            [
                "summarize",
                "--wal-dir", str(state_dir),
                "--chunks", "6",
                "--chunk-size", "100",
                "--window", "400",
                "--points-per-bubble", "40",
                "--checkpoint-every", "3",
                "--no-fsync",
            ]
        ) == 0
        capsys.readouterr()

        assert main(["stats", "--wal-dir", str(state_dir)]) == 0
        text = capsys.readouterr().out
        assert "repro_stream_batches_applied" in text
        assert "pruned" in text

        assert main(
            ["stats", "--wal-dir", str(state_dir), "--format", "json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        values = {
            sample["name"]: sample["value"]
            for sample in document["metrics"]
        }
        assert values["repro_stream_batches_applied"] == 6
        assert values["repro_distance_computed_total"] > 0
        assert document["manifest"]["window_size"] == 400

        assert main(
            ["stats", "--wal-dir", str(state_dir), "--format", "prom"]
        ) == 0
        prom = capsys.readouterr().out
        assert "# TYPE repro_stream_batches_applied gauge" in prom


class TestMain:
    def test_figure9_quick(self, capsys):
        code = main(
            [
                "figure9",
                "--quick",
                "--size", "600",
                "--bubbles", "15",
                "--batches", "1",
                "--reps", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "% bubbles rebuilt" in out

    def test_table1_quick(self, capsys):
        code = main(
            [
                "table1",
                "--quick",
                "--size", "600",
                "--bubbles", "15",
                "--batches", "1",
                "--reps", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "complete" in out and "inc" in out

    def test_figure11_quick(self, capsys):
        code = main(
            [
                "figure11",
                "--quick",
                "--size", "600",
                "--bubbles", "15",
                "--batches", "1",
                "--reps", "1",
            ]
        )
        assert code == 0
        assert "saving factor" in capsys.readouterr().out

    def test_figure8_quick(self, capsys):
        code = main(
            [
                "figure8",
                "--quick",
                "--size", "800",
                "--bubbles", "15",
                "--batches", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "max finite reachability" in out

    def test_staleness_quick(self, capsys):
        code = main(
            [
                "staleness",
                "--quick",
                "--size", "800",
                "--bubbles", "15",
                "--batches", "10",
                "--reps", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Staleness" in out

    def test_scalability_quick(self, capsys):
        code = main(
            [
                "scalability",
                "--quick",
                "--size", "800",
                "--bubbles", "15",
                "--batches", "1",
                "--reps", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "size sweep" in out
        assert "dimensionality sweep" in out


class TestCluster:
    def summarized_state(self, tmp_path, chunks=6, chunk_size=100):
        state_dir = tmp_path / "state"
        main(
            [
                "summarize",
                "--wal-dir", str(state_dir),
                "--chunks", str(chunks),
                "--chunk-size", str(chunk_size),
                "--window", "400",
                "--points-per-bubble", "40",
                "--no-fsync",
            ]
        )
        return state_dir

    def test_requires_wal_dir(self):
        with pytest.raises(SystemExit):
            main(["cluster"])

    def test_renders_dendrogram_with_provenance(self, tmp_path, capsys):
        state_dir = self.summarized_state(tmp_path)
        capsys.readouterr()
        code = main(
            ["cluster", "--wal-dir", str(state_dir), "--no-fsync"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "clustered" in out
        assert "[cold, no deadline]" in out
        assert "leaf cluster" in out
        assert "n=" in out  # the rendered tree

    def test_deadline_reports_anytime_stages(self, tmp_path, capsys):
        state_dir = self.summarized_state(tmp_path)
        capsys.readouterr()
        code = main(
            [
                "cluster",
                "--wal-dir", str(state_dir),
                "--deadline", "5.0",
                "--min-pts", "10",
                "--no-fsync",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "deadline]" in out
        assert "anytime stages:" in out

    def test_refuses_unbootstrapped_state(self, tmp_path, capsys):
        # 50 points < 2 * points_per_bubble: still buffering toward
        # bootstrap, so there is no summary to cluster.
        state_dir = self.summarized_state(tmp_path, chunks=1, chunk_size=50)
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["cluster", "--wal-dir", str(state_dir), "--no-fsync"])
        assert "not bootstrapped" in capsys.readouterr().err

    def test_metrics_out_includes_cluster_counters(self, tmp_path, capsys):
        state_dir = self.summarized_state(tmp_path)
        capsys.readouterr()
        metrics = tmp_path / "m.json"
        code = main(
            [
                "cluster",
                "--wal-dir", str(state_dir),
                "--metrics-out", str(metrics),
                "--no-fsync",
            ]
        )
        assert code == 0
        doc = json.loads(metrics.read_text())
        values = {
            sample["name"]: sample.get("value")
            for sample in doc["metrics"]
        }
        assert values["repro_cluster_fits_total"] == 1
        assert values["repro_cluster_rebuilds_total"] == 1
