"""Stateful model test of the sliding-window summarizer.

A hypothesis ``RuleBasedStateMachine`` drives one small
:class:`~repro.streaming.SlidingWindowSummarizer` through appends drawn
from a few fixed clusters — tight chunks, chunks of one repeated point
and chunks carrying a far outlier — and through capture/restore round
trips (``from_state(capture_state())``). After every step:

* ``audit(repair=False)`` finds nothing: every alive point is owned by a
  bubble whose ``(n, LS, SS)`` matches its points;
* the bincount of the alive points' owners equals ``summary.counts()``;
* the restored copy, fed the same appends as the original, stays
  bit-equal to it: store ids and owners, seeds, raw ``(n, LS, SS)`` and
  the maintenance RNG state.

The last invariant is the "incremental result equals a recomputation"
check of the incremental-DBSCAN analysis (arXiv 1406.4754): a summary
rebuilt from its captured state must continue exactly like the live one.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.streaming import SlidingWindowSummarizer

CENTERS = np.array([[0.0, 0.0], [12.0, 0.0], [0.0, 12.0]])
WINDOW = 120
POINTS_PER_BUBBLE = 10


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def _fingerprint(stream: SlidingWindowSummarizer) -> dict:
    """Everything a restored copy must reproduce, as raw bytes."""
    ids = stream.store.ids()
    state = {
        "ids": _bits(ids),
        "owners": _bits(stream.store.owners_of(ids)),
        "next_id": stream.store.next_id,
    }
    if stream.is_ready():
        summary = stream.summary
        state["seeds"] = _bits(summary.seeds())
        state["stats"] = [
            (b.stats.n, _bits(b.stats.linear_sum), b.stats.square_sum)
            for b in summary
        ]
        state["retired"] = sorted(stream.maintainer.retired_ids)
        state["rng"] = stream.maintainer.rng_state
    return state


class SummarizerMachine(RuleBasedStateMachine):
    """One live summarizer plus, after a restore, its restored twin."""

    @initialize(seed=st.integers(0, 2**16))
    def start(self, seed):
        self.stream = SlidingWindowSummarizer(
            dim=2,
            window_size=WINDOW,
            points_per_bubble=POINTS_PER_BUBBLE,
            seed=seed,
        )
        self.twin: SlidingWindowSummarizer | None = None

    @rule(
        cluster=st.integers(0, len(CENTERS) - 1),
        size=st.integers(1, 40),
        draw=st.integers(0, 2**16),
        shape=st.sampled_from(["tight", "duplicates", "outlier"]),
    )
    def append(self, cluster, size, draw, shape):
        rng = np.random.default_rng(draw)
        points = rng.normal(CENTERS[cluster], 0.6, size=(size, 2))
        labels = np.full(size, cluster, dtype=np.int64)
        if shape == "duplicates":
            points[:] = points[0]
        elif shape == "outlier":
            points[-1] += rng.choice([-1.0, 1.0], size=2) * 1e3
            labels[-1] = -1
        self.stream.append(points, labels)
        if self.twin is not None:
            self.twin.append(points, labels)

    @precondition(lambda self: self.stream.is_ready())
    @rule()
    def restore(self):
        self.twin = SlidingWindowSummarizer.from_state(
            self.stream.capture_state()
        )

    @invariant()
    def audit_is_clean(self):
        report = self.stream.audit(repair=False)
        assert report.ok, report.violations

    @invariant()
    def owner_column_matches_counts(self):
        if not self.stream.is_ready():
            return
        summary = self.stream.summary
        owners = self.stream.store.owners_of(self.stream.store.ids())
        assert (owners >= 0).all()
        assert np.array_equal(
            np.bincount(owners, minlength=len(summary)), summary.counts()
        )

    @invariant()
    def twin_is_bit_equal(self):
        if self.twin is not None:
            assert _fingerprint(self.twin) == _fingerprint(self.stream)


SummarizerMachine.TestCase.settings = settings(
    max_examples=25,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestSummarizerMachine = SummarizerMachine.TestCase
