"""Deep consistency validation of a summary against its database.

The incremental machinery maintains two coupled representations — the
store's owner column (which bubble holds each point: the only membership
record) and each bubble's sufficient statistics — and a bug in any
mutation path silently corrupts downstream clustering.
:func:`verify_consistency` recomputes the statistics from first
principles and reports every violation it finds:

1. **ownership** — every alive point is owned by an existing bubble;
2. **statistics** — each bubble's ``(n, LS, SS)`` equals a fresh
   computation over the coordinates of the alive points it owns (within
   floating point tolerance scaled to the data).

A point cannot be held by two bubbles: the column has one entry per
point. A wrong entry shows up as two bubbles' statistics disagreeing
with the points the column gives them.

The property-based tests run this after arbitrary update interleavings;
users can call it after a crash recovery or a custom mutation to know the
summary is still sound (it is O(N·d) — cheap next to any clustering run).

This module also guards the *ingestion* boundary: :func:`screen_chunk`
rejects malformed stream input (NaN/Inf coordinates, dimension
mismatches) before it can poison the sufficient statistics, under one of
three :data:`BAD_POINT_POLICIES` — ``strict`` raises
:class:`~repro.exceptions.InvalidPointError`, ``skip`` drops the bad rows,
``quarantine`` drops them but hands them back for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..database import PointStore
from ..exceptions import InvalidConfigError, InvalidPointError
from ..sufficient import SufficientStatistics
from .bubble_set import BubbleSet

__all__ = [
    "BAD_POINT_POLICIES",
    "ConsistencyReport",
    "RejectedPoint",
    "ScreenedChunk",
    "check_policy",
    "screen_chunk",
    "verify_consistency",
]

#: The three ways an ingestion boundary may treat a malformed point.
BAD_POINT_POLICIES: tuple[str, ...] = ("strict", "skip", "quarantine")


def check_policy(policy: str) -> str:
    """Validate a bad-point policy name, returning it unchanged.

    Raises:
        InvalidConfigError: ``policy`` is not one of
            :data:`BAD_POINT_POLICIES`.
    """
    if policy not in BAD_POINT_POLICIES:
        raise InvalidConfigError(
            f"on_bad_point must be one of {BAD_POINT_POLICIES}, "
            f"got {policy!r}"
        )
    return policy


@dataclass(frozen=True)
class RejectedPoint:
    """One stream point rejected at the ingestion boundary.

    Attributes:
        row: the point's row index within its chunk.
        reason: why it was rejected (``"non_finite"`` or
            ``"dimension_mismatch"``).
        point: the offending coordinates, as submitted (possibly with the
            wrong dimensionality).
    """

    row: int
    reason: str
    point: np.ndarray


@dataclass(frozen=True)
class ScreenedChunk:
    """Outcome of :func:`screen_chunk`: the clean subset plus rejects.

    Attributes:
        points: ``(m', d)`` rows that passed validation.
        labels: labels aligned with ``points``.
        rejected: the rows that did not pass, with reasons.
    """

    points: np.ndarray
    labels: tuple[int, ...]
    rejected: tuple[RejectedPoint, ...]

    @property
    def num_rejected(self) -> int:
        """How many rows were rejected."""
        return len(self.rejected)


def screen_chunk(
    points: np.ndarray,
    labels: tuple[int, ...],
    dim: int,
    policy: str,
) -> ScreenedChunk:
    """Validate one ingestion chunk under a bad-point policy.

    Checks, in order: the chunk is a ``(m, d)`` array with ``d == dim``
    (a mismatch damns the whole chunk — rows of the wrong width cannot be
    partially salvaged), and every coordinate is finite (NaN/Inf rows are
    rejected individually).

    Args:
        points: ``(m, ?)`` float array, already ``np.asarray``-coerced.
        labels: per-row labels, ``len(labels) == m``.
        dim: the dimensionality the summarizer expects.
        policy: one of :data:`BAD_POINT_POLICIES`.

    Raises:
        InvalidPointError: under ``strict``, when anything is malformed.
    """
    if points.ndim != 2 or points.shape[1] != dim:
        if policy == "strict":
            raise InvalidPointError(
                f"expected (m, {dim}) points, got shape {points.shape}"
            )
        rejected = tuple(
            RejectedPoint(
                row=i, reason="dimension_mismatch", point=np.array(row)
            )
            for i, row in enumerate(np.atleast_1d(points))
        )
        return ScreenedChunk(
            points=np.empty((0, dim), dtype=np.float64),
            labels=(),
            rejected=rejected,
        )
    finite = np.isfinite(points).all(axis=1)
    if finite.all():
        return ScreenedChunk(points=points, labels=labels, rejected=())
    bad_rows = np.flatnonzero(~finite)
    if policy == "strict":
        sample = bad_rows[:5].tolist()
        raise InvalidPointError(
            f"{bad_rows.size} point(s) carry NaN/Inf coordinates "
            f"(rows {sample}); a non-finite point would poison the "
            "sufficient statistics (n, LS, SS) irreversibly"
        )
    rejected = tuple(
        RejectedPoint(
            row=int(i), reason="non_finite", point=points[i].copy()
        )
        for i in bad_rows
    )
    return ScreenedChunk(
        points=points[finite],
        labels=tuple(
            label for keep, label in zip(finite, labels) if keep
        ),
        rejected=rejected,
    )


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of a :func:`verify_consistency` run.

    Attributes:
        ok: whether no violation was found.
        violations: human-readable description of each violation.
    """

    ok: bool
    violations: tuple[str, ...] = field(default_factory=tuple)

    def raise_if_invalid(self) -> None:
        """Raise ``AssertionError`` listing all violations, if any."""
        if not self.ok:
            raise AssertionError(
                "summary/database inconsistency:\n  "
                + "\n  ".join(self.violations)
            )


def verify_consistency(
    bubbles: BubbleSet,
    store: PointStore,
    rel_tol: float = 1e-6,
) -> ConsistencyReport:
    """Check ownership and statistics agreement.

    Args:
        bubbles: the summary under test.
        store: the database it claims to describe.
        rel_tol: relative tolerance for the statistics comparison (scaled
            by the coordinate magnitudes involved).
    """
    violations: list[str] = []
    ids = store.ids()
    owners = store.owners_of(ids)
    orphaned = (owners < 0) | (owners >= len(bubbles))
    if orphaned.any():
        violations.append(
            f"{int(orphaned.sum())} alive point(s) belong to no bubble "
            f"(e.g. {ids[orphaned][:5].tolist()})"
        )
    offsets, members = bubbles.member_csr()
    points = store.points_of(members)
    violations.extend(
        message
        for _, message in _stats_violations(bubbles, offsets, points, rel_tol)
    )
    return ConsistencyReport(
        ok=not violations, violations=tuple(violations)
    )


def _stats_violations(
    bubbles: BubbleSet,
    offsets: np.ndarray,
    points: np.ndarray,
    rel_tol: float,
) -> list[tuple[int, str]]:
    """``(bubble id, violation)`` for every bubble whose ``(n, LS, SS)``
    disagrees with the coordinates of the points it owns — ``points`` and
    ``offsets`` in the CSR layout of :meth:`BubbleSet.member_csr`."""
    counts, linear_sums, square_sums = bubbles.statistics()
    found: list[tuple[int, str]] = []
    for b in range(len(bubbles)):
        mine = points[offsets[b] : offsets[b + 1]]
        owned = mine.shape[0]
        if counts[b] != owned:
            found.append(
                (b, f"bubble {b}: n={counts[b]} but it owns {owned} alive "
                 "point(s)")
            )
            continue
        if owned == 0:
            continue
        fresh = SufficientStatistics.from_points(mine)
        scale = max(1.0, float(np.abs(mine).max()))
        atol = rel_tol * scale * owned
        if not np.allclose(
            linear_sums[b], fresh.linear_sum, rtol=rel_tol, atol=atol
        ):
            found.append((b, f"bubble {b}: LS drifted from its points' sum"))
        if abs(square_sums[b] - fresh.square_sum) > max(
            rel_tol * abs(fresh.square_sum), atol * scale
        ):
            found.append((b, f"bubble {b}: SS drifted from its points' sum"))
    return found
