"""The captured state of a summarizer — the unit snapshots serialize.

:class:`SummarizerState` is a plain data carrier between the live objects
(:class:`~repro.streaming.SlidingWindowSummarizer` and its
:class:`~repro.core.adaptive.AdaptiveMaintainer`) and the snapshot codec
(:mod:`repro.persistence.snapshot`). It holds everything required to resume
the incremental scheme *bit-identically*:

* the :class:`~repro.database.PointStore` content — alive ids, coordinates,
  labels, bubble ownership and the id counter (dead-id gaps included, since
  ids are never reused);
* the summary — per-bubble seeds and **raw** sufficient statistics
  ``(n, LS, SS)`` (stored verbatim, never recomputed: incremental updates
  accumulate floating point in arrival order). Which points a bubble
  holds is the store's owner column alone; on load each bubble's ``n``
  must equal the number of points the column gives it;
* the maintainer — retired-bubble set, steering parameters, and the
  maintenance RNG's bit-generator state, so replayed random choices match
  the crashed process exactly;
* the distance-counter totals, so the paper's cost accounting survives a
  restart;
* the maintainer's kept Lemma 1 seed matrix
  (:class:`~repro.core.assignment.AssignerCache`), so a recovered run
  computes — and counts — the distances an uninterrupted one does.

The module deliberately imports nothing from :mod:`repro.streaming` —
capture/restore live as methods on the summarizer itself, which keeps the
dependency arrow pointing one way (streaming → persistence).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.config import DonorPolicy, MaintenanceConfig, SplitStrategy

__all__ = ["SummarizerState", "config_to_dict", "config_from_dict"]


def config_to_dict(config: MaintenanceConfig) -> dict:
    """JSON-serializable form of a :class:`MaintenanceConfig`."""
    return {
        "probability": config.probability,
        "rebuild_rounds": config.rebuild_rounds,
        "donor_policy": config.donor_policy.value,
        "split_strategy": config.split_strategy.value,
        "use_triangle_inequality": config.use_triangle_inequality,
        "seed": config.seed,
    }


def config_from_dict(data: dict) -> MaintenanceConfig:
    """Inverse of :func:`config_to_dict`.

    Keys this version no longer reads are ignored: snapshots written
    with the assignment-engine options of earlier versions recover on
    the single serial assignment path (see docs/PERSISTENCE.md).
    """
    return MaintenanceConfig(
        probability=float(data["probability"]),
        rebuild_rounds=int(data["rebuild_rounds"]),
        donor_policy=DonorPolicy(data["donor_policy"]),
        split_strategy=SplitStrategy(data["split_strategy"]),
        use_triangle_inequality=bool(data["use_triangle_inequality"]),
        seed=None if data["seed"] is None else int(data["seed"]),
    )


def _empty_i64() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


def _empty_f64() -> np.ndarray:
    return np.empty(0, dtype=np.float64)


@dataclass
class SummarizerState:
    """Everything needed to resume a summarizer exactly where it stopped.

    Attributes:
        dim: stream dimensionality.
        window_size: the sliding window capacity.
        points_per_bubble: adaptive-maintainer compression target.
        seed: the summarizer's construction seed.
        config: maintenance parameters in force.
        batches_applied: how many stream batches this state reflects; WAL
            records with ``seq >= batches_applied`` are the replay tail.
        bootstrapped: whether the summary has been built yet (before
            bootstrap only the buffered store exists).
        store_ids / store_points / store_labels / store_owners: the alive
            rows of the point store, aligned; owners use ``-1`` for
            unowned.
        store_next_id: the store's id counter.
        counter_computed / counter_pruned: distance-accounting totals.
        seeds: ``(B, d)`` bubble seed matrix (empty before bootstrap).
        ns / linear_sums / square_sums: raw per-bubble sufficient
            statistics, aligned with ``seeds``.
        retired: ids of retired bubbles.
        max_adjust: the maintainer's per-batch steering bound.
        rng_state: the maintenance RNG bit-generator state dict, or
            ``None`` before bootstrap.
        keeper_base / keeper_dists / keeper_drift / keeper_nearest /
            keeper_last: the kept seed matrix as
            :meth:`~repro.core.assignment.AssignerCache.export` gives it:
            ``R0`` ``(K, d)``, the strict upper triangle of ``D0`` row by
            row ``(K·(K−1)/2,)``, ``δ`` and ``nn`` ``(K,)``, and the
            representatives the last ``get`` saw ``(K, d)``. All empty
            when the keeper is, and in snapshots of version 2 or 1.
    """

    dim: int
    window_size: int
    points_per_bubble: int
    seed: int | None
    config: MaintenanceConfig
    batches_applied: int
    bootstrapped: bool
    store_ids: np.ndarray = field(default_factory=_empty_i64)
    store_points: np.ndarray = field(default_factory=_empty_f64)
    store_labels: np.ndarray = field(default_factory=_empty_i64)
    store_owners: np.ndarray = field(default_factory=_empty_i64)
    store_next_id: int = 0
    counter_computed: int = 0
    counter_pruned: int = 0
    seeds: np.ndarray = field(default_factory=_empty_f64)
    ns: np.ndarray = field(default_factory=_empty_i64)
    linear_sums: np.ndarray = field(default_factory=_empty_f64)
    square_sums: np.ndarray = field(default_factory=_empty_f64)
    retired: tuple[int, ...] = ()
    max_adjust: int = 4
    rng_state: dict | None = None
    keeper_base: np.ndarray = field(default_factory=_empty_f64)
    keeper_dists: np.ndarray = field(default_factory=_empty_f64)
    keeper_drift: np.ndarray = field(default_factory=_empty_f64)
    keeper_nearest: np.ndarray = field(default_factory=_empty_f64)
    keeper_last: np.ndarray = field(default_factory=_empty_f64)

    @property
    def num_bubbles(self) -> int:
        """How many bubbles (including retired ones) the state carries."""
        return int(self.seeds.shape[0]) if self.bootstrapped else 0
