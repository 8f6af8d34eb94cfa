"""The fleet chaos matrix: crash or error at every service failpoint.

Two arms per declared service-boundary failpoint (``shard.*``,
``fleet.*``, ``dlq.*``):

* **crash** (slow, subprocess) — a child serves a deterministic event
  stream into a fleet with one fault armed via ``REPRO_FAILPOINTS`` and
  dies with the canonical injected-crash exit code. The parent then
  proves *zero acknowledged-point loss*: every tenant WAL passes the
  read-only hash-chain scan, crash recovery of every tenant succeeds
  and an audit holds, and a resumed run finishes cleanly without any
  tenant's durable batch count moving backwards.
* **error** (fast, in-process) — the same failpoint raises an injected
  ``OSError`` under a supervised fleet; the run must end with the exact
  accounting identity

      applied + pending + shed + failed + dead-lettered == submitted

  every recovered tenant must hold exactly the points its shard counted
  as applied, and a dead-letter replay through the recovered fleet's
  normal ingestion path must drain every queue to zero. The two
  checkpoint failpoints, which fire inside a shard's append after the
  WAL took the batch, run as error arms too.

A coverage guard fails the suite when a new service failpoint is
declared anywhere without both arms here — the matrix can never
silently lose coverage.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.faults import CRASH_EXIT_CODE, FAILPOINTS, known_failpoints
from repro.persistence import verify_chain
from repro.service import (
    FleetConfig,
    FleetManager,
    LoadSpec,
    ShardSupervisor,
    generate_events,
    read_dead_letters,
    replay_dead_letters,
)
from repro.service.deadletter import deadletter_path
from repro.streaming import DurableSummarizer

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Failpoints owned by the service layer (everything else belongs to the
#: single-process persistence crash matrix in test_faults_crash_matrix).
SERVICE_PREFIXES = ("shard.", "fleet.", "dlq.")

SPEC = dict(tenants=4, events=400, seed=11)

CONFIG = dict(
    window_size=400,
    points_per_bubble=20,
    checkpoint_every=4,
    seed=11,
    fsync=False,
    workers=0,
    queue_points=64,
    batch_points=8,
)

# One crash directive per service failpoint. Arms that only fire on the
# failure-handling path (restart, DLQ append) pair the crash with an
# injected flush error that poisons a shard first.
CRASH_SPECS = {
    "fleet.submit.start": ("fleet.submit.start=crash@200", False),
    "shard.apply.before_append": (
        "shard.apply.before_append=crash@10",
        False,
    ),
    "dlq.append.flushed": (
        "shard.apply.before_append=error:EIO@3,dlq.append.flushed=crash",
        False,
    ),
    "shard.restart.start": (
        "shard.apply.before_append=error:EIO@3,shard.restart.start=crash",
        True,
    ),
    "shard.restart.recovered": (
        "shard.apply.before_append=error:EIO@3,"
        "shard.restart.recovered=crash",
        True,
    ),
}

# The child: create-or-recover a fleet, submit the deterministic stream,
# drain, and print the fleet totals as JSON.
CHILD = """
import json
import pathlib
import sys

from repro.faults import install_from_env
from repro.service import (
    FleetConfig, FleetManager, LoadSpec, ShardSupervisor, generate_events,
)

fleet_dir, supervise = sys.argv[1], sys.argv[2] == "1"
config = FleetConfig(**json.loads(sys.argv[3]))
spec = LoadSpec(**json.loads(sys.argv[4]))
install_from_env()
if (pathlib.Path(fleet_dir) / "fleet.json").exists():
    fleet = FleetManager.recover(fleet_dir, config=config)
else:
    fleet = FleetManager(fleet_dir, config=config)
if supervise:
    fleet.attach_supervisor(ShardSupervisor(max_restarts=8))
for event in generate_events(spec):
    fleet.submit(event)
fleet.drain()
print(json.dumps(fleet.rollup()["fleet"]))
"""


def run_child(fleet_dir, supervise=False, faults=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    if faults is None:
        env.pop("REPRO_FAILPOINTS", None)
    else:
        env["REPRO_FAILPOINTS"] = faults
    return subprocess.run(
        [
            sys.executable,
            "-c",
            CHILD,
            str(fleet_dir),
            "1" if supervise else "0",
            json.dumps(CONFIG),
            json.dumps(SPEC),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def tenant_dirs(fleet_dir) -> list[pathlib.Path]:
    tenants = pathlib.Path(fleet_dir) / "tenants"
    if not tenants.exists():
        return []
    return sorted(p for p in tenants.iterdir() if p.is_dir())


def acknowledged_batches(fleet_dir) -> dict[str, int]:
    """Durably acknowledged batch count per tenant, via real recovery."""
    counts: dict[str, int] = {}
    for tenant_dir in tenant_dirs(fleet_dir):
        if not (tenant_dir / "manifest.json").exists():
            continue
        stream = DurableSummarizer.recover(tenant_dir, fsync=False)
        try:
            counts[tenant_dir.name] = stream.batches_applied
            report = stream.audit(repair=False)
            assert report.ok, (tenant_dir.name, report.violations)
        finally:
            stream.close(checkpoint=False)
    return counts


def assert_fleet_identity(fleet_totals: dict) -> None:
    assert (
        fleet_totals["applied_points"]
        + fleet_totals["pending_points"]
        + fleet_totals["shed_points"]
        + fleet_totals["failed_points"]
        + fleet_totals["dead_lettered_points"]
        == fleet_totals["submitted_points"]
    ), fleet_totals


@pytest.fixture(autouse=True)
def _clean_failpoints():
    FAILPOINTS.clear()
    yield
    FAILPOINTS.clear()


def service_failpoints() -> set[str]:
    return {
        name
        for name in known_failpoints()
        if name.startswith(SERVICE_PREFIXES)
    }


class TestCoverageGuard:
    def test_every_service_failpoint_has_a_crash_arm(self):
        assert set(CRASH_SPECS) == service_failpoints()

    def test_every_service_failpoint_has_an_error_arm(self):
        assert set(ERROR_ARMS) == service_failpoints()


@pytest.mark.slow
class TestCrashArms:
    @pytest.mark.parametrize("name", sorted(CRASH_SPECS))
    def test_crash_then_recovery_loses_no_acknowledged_points(
        self, name, tmp_path
    ):
        faults, supervise = CRASH_SPECS[name]
        fleet_dir = tmp_path / "fleet"
        crashed = run_child(fleet_dir, supervise=supervise, faults=faults)
        assert crashed.returncode == CRASH_EXIT_CODE, (
            f"fault at {name} did not fire: rc={crashed.returncode}, "
            f"stderr={crashed.stderr}"
        )

        # 1. No at-rest corruption anywhere: every tenant WAL passes the
        #    read-only integrity scan (a torn tail is a crash footprint,
        #    not corruption, and is repaired by recovery below).
        for tenant_dir in tenant_dirs(fleet_dir):
            wal_path = tenant_dir / "wal.log"
            if not wal_path.exists():
                continue
            report = verify_chain(wal_path)
            assert report.ok, (tenant_dir.name, report)

        # 2. Real crash recovery succeeds for every tenant and the
        #    recovered summaries audit clean.
        before = acknowledged_batches(fleet_dir)

        # 3. A resumed run completes, keeps the accounting identity,
        #    and no tenant's durable batch count moves backwards.
        resumed = run_child(fleet_dir, supervise=supervise)
        assert resumed.returncode == 0, resumed.stderr
        totals = json.loads(resumed.stdout.splitlines()[-1])
        assert_fleet_identity(totals)
        after = acknowledged_batches(fleet_dir)
        for tenant, count in before.items():
            assert after.get(tenant, 0) >= count, (tenant, before, after)

    def test_dlq_crash_arm_left_durable_letters(self, tmp_path):
        """The dlq.append.flushed crash lands *after* the flush: the
        poisoned batch must already be on disk, torn tail at worst."""
        faults, supervise = CRASH_SPECS["dlq.append.flushed"]
        fleet_dir = tmp_path / "fleet"
        crashed = run_child(fleet_dir, supervise=supervise, faults=faults)
        assert crashed.returncode == CRASH_EXIT_CODE, crashed.stderr
        letters = []
        for tenant_dir in tenant_dirs(fleet_dir):
            letters.extend(read_dead_letters(deadletter_path(tenant_dir)))
        assert letters, "no dead letters survived the crash"
        assert {letter.reason for letter in letters} == {"append_failed"}


def _run_error_arm(tmp_path, arm) -> tuple[FleetManager, dict]:
    """Drive the stream with one error fault armed under supervision."""
    fleet = FleetManager(tmp_path / "fleet", FleetConfig(**CONFIG))
    fleet.attach_supervisor(ShardSupervisor(max_restarts=8))
    for name, kind, options in arm:
        FAILPOINTS.arm(name, kind=kind, **options)
    injected = 0
    for event in generate_events(LoadSpec(**SPEC)):
        try:
            fleet.submit(event)
        except OSError:
            injected += 1  # the armed fault surfacing at the boundary
    FAILPOINTS.clear()
    fleet.drain()
    totals = fleet.rollup()["fleet"]
    return fleet, {"totals": totals, "injected": injected}


# Each arm: the failpoints to arm (name, kind, options). Arms that only
# fire on the failure path pair the target with a one-shot flush error.
_FLUSH_ERROR = ("shard.apply.before_append", "error", {"after": 2, "times": 1})
ERROR_ARMS = {
    "shard.apply.before_append": [_FLUSH_ERROR],
    "fleet.submit.start": [
        ("fleet.submit.start", "error", {"after": 100, "times": 1})
    ],
    "dlq.append.flushed": [
        _FLUSH_ERROR,
        ("dlq.append.flushed", "error", {"times": 1}),
    ],
    "shard.restart.start": [
        _FLUSH_ERROR,
        ("shard.restart.start", "error", {"times": 1}),
    ],
    "shard.restart.recovered": [
        _FLUSH_ERROR,
        ("shard.restart.recovered", "error", {"times": 1}),
    ],
}

# Persistence failpoints that a scheduled checkpoint fires inside a
# shard's append, after the WAL took the batch. Kept out of ERROR_ARMS,
# whose keys the coverage guard compares with the service failpoints.
CHECKPOINT_ERROR_ARMS = {
    name: [(name, "error", {"after": 3, "times": 1})]
    for name in ("checkpoint.snapshot_written", "checkpoint.done")
}


class TestErrorArms:
    @pytest.mark.parametrize(
        "name", sorted(ERROR_ARMS) + sorted(CHECKPOINT_ERROR_ARMS)
    )
    def test_error_keeps_identity_and_dlq_replays_to_zero(
        self, name, tmp_path
    ):
        arm = ERROR_ARMS.get(name) or CHECKPOINT_ERROR_ARMS[name]
        fleet, outcome = _run_error_arm(tmp_path, arm)
        assert_fleet_identity(outcome["totals"])
        if name in CHECKPOINT_ERROR_ARMS:
            # The failed checkpoint's batch is in the WAL: it counts as
            # applied and is never dead-lettered (a DLQ replay would
            # apply it twice).
            assert outcome["totals"]["supervision"]["restarts"] >= 1
            assert outcome["totals"]["dead_lettered_points"] == 0
        elif name == "dlq.append.flushed":
            # The append was durable but errored before the counter
            # moved: the letters are orphans on disk (at-least-once),
            # while the items went back to the queue and were re-applied
            # by the supervisor restart.
            letters = sum(
                len(read_dead_letters(deadletter_path(tenant_dir)))
                for tenant_dir in tenant_dirs(tmp_path / "fleet")
            )
            assert letters > 0
        elif name != "fleet.submit.start":
            # Every failure-path arm parked at least one batch durably.
            assert outcome["totals"]["dead_lettered_points"] > 0

        applied = {
            tenant: row["applied_points"]
            for tenant, row in fleet.rollup()["tenants"].items()
        }
        recovered = FleetManager.recover(
            tmp_path / "fleet", config=FleetConfig(**CONFIG)
        )
        try:
            # The WAL holds every point counted as applied, and no more.
            durable = {
                tenant: recovered.shard(tenant).summarizer.store.next_id
                for tenant in recovered.tenants
            }
            assert durable == applied
            # Replay every dead letter through the *recovered* fleet's
            # normal ingestion path; with the fault disarmed, each queue
            # must drain to zero.
            for tenant_dir in tenant_dirs(tmp_path / "fleet"):
                report = replay_dead_letters(
                    deadletter_path(tenant_dir),
                    recovered.submit,
                    fsync=False,
                )
                assert report.drained, (tenant_dir.name, report)
                assert read_dead_letters(
                    deadletter_path(tenant_dir)
                ) == []
        finally:
            recovered.drain()
        identity_after = recovered.rollup()["fleet"]
        assert_fleet_identity(identity_after)

    def test_smoke_arm_is_fast(self, tmp_path):
        """The per-push CI smoke: one full error arm, no subprocesses."""
        fleet, outcome = _run_error_arm(
            tmp_path, ERROR_ARMS["shard.apply.before_append"]
        )
        totals = outcome["totals"]
        assert_fleet_identity(totals)
        assert totals["dead_lettered_points"] > 0
        supervision = totals["supervision"]
        assert supervision["restarts"] >= 1
