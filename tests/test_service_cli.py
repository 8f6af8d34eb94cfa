"""CLI coverage for serve, loadgen, --version, and exit codes."""

from __future__ import annotations

import json

import pytest

import repro
from repro.cli import build_parser, main

QUICK_SERVE = [
    "--workers", "0",
    "--no-fsync",
    "--window", "400",
    "--points-per-bubble", "40",
    "--checkpoint-every", "4",
    "--queue-points", "64",
    "--batch-points", "16",
]


class TestVersion:
    def test_version_flag_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.strip().split()[-1] == repro.__version__
        assert "repro-bubbles" in out

    def test_version_matches_package_metadata(self):
        from repro.cli import _package_version

        assert _package_version() == repro.__version__


class TestExitCodes:
    def test_unknown_subcommand_exits_2_with_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "invalid choice" in err

    def test_no_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_serve_requires_fleet_dir(self):
        with pytest.raises(SystemExit):
            main(["serve"])


class TestParser:
    def test_service_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.input == "-"
        assert args.workers == 4
        assert args.queue_points == 1024
        assert args.batch_points == 64
        assert args.backpressure == "block"
        assert args.on_bad_event == "skip"
        assert args.dim == 2

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.out == "-"
        assert args.tenants == 8
        assert args.events == 5000
        assert args.zipf == pytest.approx(1.1)
        assert args.burst == pytest.approx(32.0)

    def test_bad_backpressure_choice_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--backpressure", "drop"])
        assert excinfo.value.code == 2


class TestLoadgen:
    def test_writes_deterministic_file(self, tmp_path, capsys):
        base = ["loadgen", "--events", "300", "--tenants", "4",
                "--seed", "9"]
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        assert main(base + ["--out", str(a)]) == 0
        assert "wrote 300 events" in capsys.readouterr().out
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 300

    def test_stdout_stream(self, capsys):
        assert main(["loadgen", "--out", "-", "--events", "40"]) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        assert len(lines) == 40
        for line in lines:
            document = json.loads(line)
            assert document["schema"] == 1
            assert document["tenant"].startswith("tenant-")


class TestServe:
    def _events(self, tmp_path, events=600, tenants=8):
        path = tmp_path / "events.ndjson"
        assert main(
            [
                "loadgen",
                "--out", str(path),
                "--events", str(events),
                "--tenants", str(tenants),
                "--seed", "7",
            ]
        ) == 0
        return path

    def test_round_trip_with_artifacts(self, tmp_path, capsys):
        events = self._events(tmp_path)
        fleet_dir = tmp_path / "fleet"
        rollup_path = tmp_path / "rollup.json"
        health_path = tmp_path / "health.json"
        capsys.readouterr()
        code = main(
            [
                "serve",
                "--fleet-dir", str(fleet_dir),
                "--input", str(events),
                "--rollup-out", str(rollup_path),
                "--fleet-health-out", str(health_path),
                *QUICK_SERVE,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "initialized fleet" in out
        assert "fleet rollup (schema 1)" in out
        assert "served 600 events: 600 accepted" in out
        assert (fleet_dir / "fleet.json").exists()
        tenant_dirs = sorted((fleet_dir / "tenants").iterdir())
        assert len(tenant_dirs) == 8
        rollup = json.loads(rollup_path.read_text())
        assert rollup["fleet"]["applied_points"] == 600
        assert rollup["fleet"]["states"] == {"stopped": 8}
        health = json.loads(health_path.read_text())
        assert len(health["shards"]) == 8

    def test_resume_recovers_fleet(self, tmp_path, capsys):
        events = self._events(tmp_path, events=400)
        fleet_dir = tmp_path / "fleet"
        base = [
            "serve", "--fleet-dir", str(fleet_dir),
            "--input", str(events), *QUICK_SERVE,
        ]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "recovered fleet" in out
        assert "8 tenant shard(s) resumed" in out
        assert "served 400 events: 400 accepted" in out

    def test_fresh_serve_refuses_existing_fleet(self, tmp_path, capsys):
        events = self._events(tmp_path, events=100)
        fleet_dir = tmp_path / "fleet"
        base = [
            "serve", "--fleet-dir", str(fleet_dir),
            "--input", str(events), *QUICK_SERVE,
        ]
        assert main(base) == 0
        assert main(base) == 1
        assert "already holds a fleet" in capsys.readouterr().err

    def test_strict_policy_aborts_on_bad_line(self, tmp_path, capsys):
        events = tmp_path / "events.ndjson"
        events.write_text(
            '{"tenant": "a", "point": [1.0, 2.0]}\n'
            "garbage\n"
            '{"tenant": "b", "point": [3.0, 4.0]}\n'
        )
        code = main(
            [
                "serve",
                "--fleet-dir", str(tmp_path / "fleet"),
                "--input", str(events),
                "--on-bad-event", "strict",
                *QUICK_SERVE,
            ]
        )
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_skip_policy_counts_bad_lines(self, tmp_path, capsys):
        events = tmp_path / "events.ndjson"
        events.write_text(
            '{"tenant": "a", "point": [1.0, 2.0]}\n'
            "garbage\n"
            '{"tenant": "b", "point": [3.0, 4.0]}\n'
        )
        code = main(
            [
                "serve",
                "--fleet-dir", str(tmp_path / "fleet"),
                "--input", str(events),
                "--on-bad-event", "skip",
                *QUICK_SERVE,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "served 2 events: 2 accepted, 0 dropped, 1 invalid" in out


def _boom(self, points, labels=None):
    raise RuntimeError("poisoned batch")


class TestServeFailureExit:
    def _poisoned_serve(self, tmp_path, monkeypatch, extra=()):
        from repro.streaming import DurableSummarizer

        monkeypatch.setattr(DurableSummarizer, "append", _boom)
        events = tmp_path / "events.ndjson"
        assert main(
            [
                "loadgen", "--out", str(events),
                "--events", "120", "--tenants", "3", "--seed", "3",
            ]
        ) == 0
        return main(
            [
                "serve",
                "--fleet-dir", str(tmp_path / "fleet"),
                "--input", str(events),
                *QUICK_SERVE,
                *extra,
            ]
        )

    def test_failed_shards_without_supervisor_exit_3(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import EXIT_FAILED_SHARDS

        with pytest.raises(SystemExit) as excinfo:
            self._poisoned_serve(tmp_path, monkeypatch)
        assert excinfo.value.code == EXIT_FAILED_SHARDS
        err = capsys.readouterr().err
        assert "no supervisor attached" in err
        assert "repro-bubbles dlq" in err

    def test_supervised_serve_does_not_exit_3(
        self, tmp_path, monkeypatch, capsys
    ):
        code = self._poisoned_serve(
            tmp_path, monkeypatch, extra=["--supervise"]
        )
        assert code == 0
        assert "supervision on" in capsys.readouterr().out


class TestDlqCommand:
    def test_list_and_replay_round_trip(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.streaming import DurableSummarizer

        events = tmp_path / "events.ndjson"
        assert main(
            [
                "loadgen", "--out", str(events),
                "--events", "80", "--tenants", "2", "--seed", "5",
            ]
        ) == 0
        fleet_dir = tmp_path / "fleet"
        with monkeypatch.context() as patch:
            patch.setattr(DurableSummarizer, "append", _boom)
            with pytest.raises(SystemExit):  # failed shards, code 3
                main(
                    [
                        "serve", "--fleet-dir", str(fleet_dir),
                        "--input", str(events), *QUICK_SERVE,
                    ]
                )
        capsys.readouterr()
        assert main(["dlq", "--fleet-dir", str(fleet_dir)]) == 0
        out = capsys.readouterr().out
        assert "append_failed" in out
        assert "0 dead letter(s) total" not in out
        # The poison is gone: replay drains every queue to zero.
        assert main(
            [
                "dlq", "--replay", "--fleet-dir", str(fleet_dir),
                "--no-fsync",
            ]
        ) == 0
        assert "0 still parked" in capsys.readouterr().out
        assert main(["dlq", "--fleet-dir", str(fleet_dir)]) == 0
        assert "0 dead letter(s) total" in capsys.readouterr().out

    def test_requires_a_directory(self):
        with pytest.raises(SystemExit, match="fleet-dir or --wal-dir"):
            main(["dlq"])


class TestVerifyChainCommand:
    def test_clean_and_corrupt_wal(self, tmp_path, capsys):
        import numpy as np

        from repro import UpdateBatch
        from repro.persistence import WriteAheadLog

        state = tmp_path / "state"
        state.mkdir()
        wal = WriteAheadLog(state / "wal.log", fsync=False)
        rng = np.random.default_rng(0)
        for seq in range(3):
            wal.append(
                seq,
                UpdateBatch(
                    deletions=(),
                    insertions=rng.normal(size=(4, 2)),
                    insertion_labels=(-1,) * 4,
                ),
            )
        wal.close()
        assert main(["verify-chain", "--wal-dir", str(state)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "crc+chain" in out

        data = bytearray((state / "wal.log").read_bytes())
        data[len(data) // 2] ^= 0x01  # single bit flip mid-file
        (state / "wal.log").write_bytes(bytes(data))
        with pytest.raises(SystemExit) as excinfo:
            main(["verify-chain", "--wal-dir", str(state)])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert "CORRUPT" in captured.out
        assert "failed integrity verification" in captured.err

    @pytest.mark.parametrize(
        "version, coverage",
        [(1, "crc only"), (2, "crc+chain"), (3, "crc+chain")],
    )
    def test_names_the_format_version_and_its_coverage(
        self, tmp_path, capsys, version, coverage
    ):
        import numpy as np
        from legacy_formats import write_legacy_log

        from repro import UpdateBatch
        from repro.persistence import WriteAheadLog

        state = tmp_path / "state"
        state.mkdir()
        rng = np.random.default_rng(0)
        batches = [
            UpdateBatch(
                insertions=rng.normal(size=(4, 2)),
                insertion_labels=(-1,) * 4,
            )
            for _ in range(3)
        ]
        if version == 3:
            with WriteAheadLog(state / "wal.log", fsync=False) as wal:
                for seq, batch in enumerate(batches):
                    wal.append(seq, batch)
        else:
            write_legacy_log(state / "wal.log", batches, version)
        assert main(["verify-chain", "--wal-dir", str(state)]) == 0
        out = capsys.readouterr().out
        assert f"3 record(s) verified (v{version}, {coverage})" in out

    def test_requires_a_directory(self):
        with pytest.raises(SystemExit, match="wal-dir or --fleet-dir"):
            main(["verify-chain"])

    def test_missing_fleet_is_an_error_not_a_silent_pass(
        self, tmp_path, capsys
    ):
        code = main(["verify-chain", "--fleet-dir", str(tmp_path / "no")])
        assert code == 1
        assert "holds no fleet" in capsys.readouterr().err


class TestTelemetryPlaneCLI:
    def _events(self, tmp_path, events=300, tenants=4):
        path = tmp_path / "events.ndjson"
        assert main(
            [
                "loadgen",
                "--out", str(path),
                "--events", str(events),
                "--tenants", str(tenants),
                "--seed", "7",
            ]
        ) == 0
        return path

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.listen is None
        assert args.trace is False
        assert args.slo_fast_seconds == pytest.approx(60.0)
        assert args.slo_slow_seconds == pytest.approx(300.0)
        args = build_parser().parse_args(["trace", "--fleet-dir", "f"])
        assert args.top == 3

    def test_serve_with_listener_and_trace(self, tmp_path, capsys):
        events = self._events(tmp_path)
        fleet_dir = tmp_path / "fleet"
        capsys.readouterr()
        code = main(
            [
                "serve",
                "--fleet-dir", str(fleet_dir),
                "--input", str(events),
                "--listen", "0",
                "--trace",
                "--slo-fast-seconds", "5",
                "--slo-slow-seconds", "15",
                *QUICK_SERVE,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry plane listening on http://127.0.0.1:" in out
        assert "slo windows 5s/15s" in out
        assert "trace recording on" in out
        # The rollup line carries the SLO objective states.
        assert "slo: 0 firing / 4 objectives" in out
        traces = sorted((fleet_dir / "tenants").glob("*/trace.jsonl"))
        assert len(traces) == 4
        assert all(p.stat().st_size > 0 for p in traces)

    def test_trace_command_reports_critical_paths(self, tmp_path, capsys):
        events = self._events(tmp_path)
        fleet_dir = tmp_path / "fleet"
        assert main(
            [
                "serve",
                "--fleet-dir", str(fleet_dir),
                "--input", str(events),
                "--trace",
                *QUICK_SERVE,
            ]
        ) == 0
        capsys.readouterr()
        code = main(
            ["trace", "--fleet-dir", str(fleet_dir), "--top", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-op latency" in out
        assert "ingest_batch" in out
        assert "critical path, top 2" in out
        assert "exemplar trace ids:" in out

    def test_trace_requires_fleet_dir(self):
        with pytest.raises(SystemExit):
            main(["trace"])

    def test_trace_missing_fleet_exits_1(self, tmp_path, capsys):
        assert main(
            ["trace", "--fleet-dir", str(tmp_path / "nothing")]
        ) == 1
        assert "fleet.json is missing" in capsys.readouterr().err

    def test_trace_without_recordings_prints_hint(self, tmp_path, capsys):
        events = self._events(tmp_path, events=60)
        fleet_dir = tmp_path / "fleet"
        assert main(
            [
                "serve",
                "--fleet-dir", str(fleet_dir),
                "--input", str(events),
                *QUICK_SERVE,
            ]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "--fleet-dir", str(fleet_dir)]) == 0
        assert "no spans found" in capsys.readouterr().out


class TestStatsAcrossSnapshotFormats:
    def test_counts_both_snapshot_generations(self, tmp_path, capsys):
        """A directory of an earlier version holds ``.npz`` snapshots;
        after a recovery and a clean close it also holds a ``.snap``.
        ``stats`` lists and reads both as one sequence."""
        import pathlib
        import shutil

        from repro import DurableSummarizer

        fixture = (
            pathlib.Path(__file__).parent / "fixtures" / "member_set_state"
        )
        state_dir = tmp_path / "state"
        shutil.copytree(fixture, state_dir)

        def stats():
            assert main(
                ["stats", "--wal-dir", str(state_dir), "--format", "json"]
            ) == 0
            document = json.loads(capsys.readouterr().out)
            return {
                sample["name"]: sample["value"]
                for sample in document["metrics"]
            }

        before = stats()
        assert before["repro_snapshot_files"] == 2
        assert before["repro_stream_batches_applied"] == 12
        # Recovery replays the three-batch tail, and the clean close
        # checkpoints it as a container; the older npz generation is
        # pruned, the newer kept.
        DurableSummarizer.recover(state_dir, fsync=False).close()
        assert sorted(p.name for p in state_dir.glob("snapshot-*")) == [
            "snapshot-000000000012.npz",
            "snapshot-000000000015.snap",
        ]
        after = stats()
        assert after["repro_snapshot_files"] == 2
        assert after["repro_stream_batches_applied"] == 15
