"""Self-healing invariant audits of a maintained summary.

:func:`~repro.core.validate.verify_consistency` *detects* drift between
the two coupled representations (the store's owner column and the
bubbles' statistics); :class:`InvariantAuditor` goes one step further and
*repairs* it, taking the owner column as the truth. Points the column
gives to no active bubble are re-homed to their nearest active bubble,
and every bubble whose statistics disagree with the points the column
gives it is rebuilt wholesale through the bubble set's ``clear`` and
grouped ``absorb`` (the merge/split machinery's path) — so a repaired
summary is indistinguishable from one that was maintained correctly all
along.

Intended uses:

* **post-recovery**: after a crash recovery, one audit proves the
  replayed state is sound (the crash-matrix suite does exactly this);
* **periodic**: long-running streams can audit every ``audit_every``
  batches (see :class:`~repro.streaming.SlidingWindowSummarizer`), so a
  latent corruption is caught within a bounded number of batches instead
  of surfacing as inexplicable clustering output months later;
* **on demand**: ``repro-bubbles audit --wal-dir state/`` audits a
  durable state directory from the command line.

Every audit, violation, repair and reassignment is counted in the
observability registry and traced, so a fleet operator can alert on
``repro_audit_violations_total`` going non-zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..database import PointStore
from ..observability import Observability
from ..observability.spans import maybe_span
from .bubble_set import BubbleSet
from .maintenance import IncrementalMaintainer
from .validate import ConsistencyReport, _stats_violations, verify_consistency

__all__ = ["AuditReport", "InvariantAuditor"]


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one :meth:`InvariantAuditor.audit` run.

    Attributes:
        ok: whether the initial consistency check found no violation.
        violations: the violations found (empty when ``ok``).
        repaired_bubbles: ids of bubbles rebuilt by the repair pass.
        reassigned_points: points whose ownership record was rewritten.
        post_repair_ok: result of the consistency re-check after repair;
            ``None`` when no repair ran (clean audit, or ``repair=False``).
    """

    ok: bool
    violations: tuple[str, ...] = ()
    repaired_bubbles: tuple[int, ...] = ()
    reassigned_points: int = 0
    post_repair_ok: bool | None = None

    @property
    def healthy(self) -> bool:
        """Clean at first check, or successfully repaired."""
        return self.ok or self.post_repair_ok is True


class InvariantAuditor:
    """Checks — and optionally repairs — summary/database consistency.

    Args:
        bubbles: the summary under audit.
        store: the database it claims to describe.
        maintainer: when given, its retired-bubble set (adaptive
            maintainers park empty bubbles) is honoured: a point owned by
            a retired bubble is a violation, and no point is re-homed
            into one.
        rel_tol: statistics tolerance, as for ``verify_consistency``.
        obs: observability handle; audit metrics and events land here.
    """

    def __init__(
        self,
        bubbles: BubbleSet,
        store: PointStore,
        maintainer: IncrementalMaintainer | None = None,
        rel_tol: float = 1e-6,
        obs: Observability | None = None,
    ) -> None:
        self._bubbles = bubbles
        self._store = store
        self._maintainer = maintainer
        self._rel_tol = float(rel_tol)
        self._obs = obs

    @classmethod
    def for_maintainer(
        cls,
        maintainer: IncrementalMaintainer,
        rel_tol: float = 1e-6,
        obs: Observability | None = None,
    ) -> "InvariantAuditor":
        """Build an auditor over a maintainer's summary and store."""
        return cls(
            maintainer.bubbles,
            maintainer.store,
            maintainer=maintainer,
            rel_tol=rel_tol,
            obs=obs if obs is not None else maintainer.obs,
        )

    # ------------------------------------------------------------------
    # The audit
    # ------------------------------------------------------------------
    def audit(self, repair: bool = True) -> AuditReport:
        """Run one consistency check, repairing violations when asked.

        Returns an :class:`AuditReport`; never raises on inconsistency
        (``report.healthy`` tells the caller whether the summary is — or
        is again — sound).
        """
        with maybe_span(self._obs, "audit", repair=repair):
            check = self._check()
            self._note_check(check.ok, len(check.violations))
            if check.ok:
                return AuditReport(ok=True)
            if not repair:
                return AuditReport(ok=False, violations=check.violations)
            with maybe_span(
                self._obs, "audit_repair", violations=len(check.violations)
            ):
                repaired, reassigned = self._repair()
            recheck = self._check()
            self._note_repair(repaired, reassigned, recheck.ok)
            return AuditReport(
                ok=False,
                violations=check.violations,
                repaired_bubbles=tuple(repaired),
                reassigned_points=reassigned,
                post_repair_ok=recheck.ok,
            )

    def _check(self) -> ConsistencyReport:
        """:func:`verify_consistency`, plus: retired bubbles own nothing."""
        check = verify_consistency(
            self._bubbles, self._store, rel_tol=self._rel_tol
        )
        retired = self._retired_ids()
        if not retired:
            return check
        ids = self._store.ids()
        parked = np.isin(
            self._store.owners_of(ids), np.fromiter(retired, dtype=np.int64)
        )
        if not parked.any():
            return check
        violations = check.violations + (
            f"{int(parked.sum())} alive point(s) owned by retired bubbles "
            f"(e.g. {ids[parked][:5].tolist()})",
        )
        return ConsistencyReport(ok=False, violations=violations)

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def _repair(self) -> tuple[list[int], int]:
        """Re-home homeless points, then rebuild drifted bubbles.

        The owner column is the truth. An alive point whose owner is not
        an active bubble (unowned, out of range or retired) moves to the
        nearest active bubble by representative distance. Then every
        bubble whose statistics disagree with the points the column gives
        it is rebuilt from their raw coordinates.
        """
        store = self._store
        bubbles = self._bubbles
        active = np.setdiff1d(
            np.arange(len(bubbles)),
            np.fromiter(self._retired_ids(), dtype=np.int64),
        )
        ids = store.ids()
        homeless = ids[~np.isin(store.owners_of(ids), active)]
        moved = 0
        if homeless.size and active.size:
            reps = bubbles.reps(active)
            points = store.points_of(homeless)
            sq = ((points[:, None, :] - reps[None, :, :]) ** 2).sum(axis=2)
            store.set_owners(homeless, active[np.argmin(sq, axis=1)])
            moved = int(homeless.size)

        offsets, members = bubbles.member_csr()
        points = store.points_of(members)
        drifted = _stats_violations(bubbles, offsets, points, self._rel_tol)
        repaired = sorted({b for b, _ in drifted})
        if repaired:
            owners = np.repeat(np.arange(len(bubbles)), np.diff(offsets))
            rebuilt = np.isin(owners, repaired)
            bubbles.clear(repaired)
            bubbles.absorb(points[rebuilt], owners[rebuilt])
        return repaired, moved

    def _retired_ids(self) -> frozenset[int]:
        if self._maintainer is None:
            return frozenset()
        return frozenset(
            getattr(self._maintainer, "retired_ids", frozenset())
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _note_check(self, ok: bool, violations: int) -> None:
        if self._obs is None:
            return
        self._obs.metrics.counter(
            "repro_audit_runs_total",
            help="Invariant audits executed.",
        ).inc()
        if not ok:
            self._obs.metrics.counter(
                "repro_audit_violations_total",
                help="Invariant violations detected by audits.",
            ).inc(violations)
        self._obs.emit("audit", ok=ok, violations=violations)

    def _note_repair(
        self, repaired: list[int], reassigned: int, ok: bool
    ) -> None:
        if self._obs is None:
            return
        self._obs.metrics.counter(
            "repro_audit_repairs_total",
            help="Bubbles rebuilt by audit repairs.",
        ).inc(len(repaired))
        self._obs.metrics.counter(
            "repro_audit_points_reassigned_total",
            help="Ownership records rewritten by audit repairs.",
            unit="points",
        ).inc(reassigned)
        self._obs.emit(
            "audit_repair",
            repaired_bubbles=len(repaired),
            reassigned_points=reassigned,
            post_repair_ok=ok,
        )
