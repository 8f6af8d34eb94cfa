"""Adaptive bubble count — the paper's Section 6 future-work extension.

The published scheme maintains a *fixed* number of bubbles and recycles
under-filled ones; the conclusions list "investigating how to dynamically
increase or decrease the number of incremental data bubbles" as future
work. :class:`AdaptiveMaintainer` implements a straightforward version of
that idea on top of the fixed-count machinery:

* a target **compression rate** is expressed as *points per bubble*; after
  every batch the active bubble count is steered toward
  ``N / points_per_bubble`` (bounded by ``max_adjust_per_batch``);
* **growth** appends a fresh bubble and immediately splits the currently
  fullest (highest-β) bubble into it — the Figure 6 split with a brand-new
  (rather than recycled) donor;
* **shrinking** retires the emptiest active bubble: its points are merged
  away to their next-closest active bubbles and the bubble id is parked in
  a retired set that no assignment, donor selection or merge will touch
  again (ids stay dense and stable, which the rest of the system relies
  on). Retired bubbles are *revived* first when growth is needed later.

Everything else — deletions, insertions, β classification, merge/split
quality repair — is inherited unchanged.
"""

from __future__ import annotations

from ..database import PointStore, UpdateBatch
from ..exceptions import InvalidConfigError
from ..geometry import DistanceCounter
from ..observability import Observability
from ..observability.spans import maybe_span
from .bubble_set import BubbleSet
from .config import MaintenanceConfig
from .maintenance import BatchReport, IncrementalMaintainer
from .quality import QualityMeasure, QualityReport
from .split_merge import merge_bubble, split_bubble

__all__ = ["AdaptiveMaintainer"]


class AdaptiveMaintainer(IncrementalMaintainer):
    """Incremental maintainer that also steers the number of bubbles.

    Args:
        bubbles: the summary to maintain.
        store: the database it describes.
        points_per_bubble: target compression rate; the active bubble
            count is steered toward ``store.size / points_per_bubble``.
        max_adjust_per_batch: at most this many bubbles are added or
            retired per batch (keeps adjustments incremental too).
        config, quality, counter, obs: as for
            :class:`~repro.core.maintenance.IncrementalMaintainer`.
    """

    def __init__(
        self,
        bubbles: BubbleSet,
        store: PointStore,
        points_per_bubble: int,
        max_adjust_per_batch: int = 4,
        config: MaintenanceConfig | None = None,
        quality: QualityMeasure | None = None,
        counter: DistanceCounter | None = None,
        obs: Observability | None = None,
    ) -> None:
        if points_per_bubble < 1:
            raise InvalidConfigError(
                f"points_per_bubble must be >= 1, got {points_per_bubble}"
            )
        if max_adjust_per_batch < 1:
            raise InvalidConfigError(
                f"max_adjust_per_batch must be >= 1, got "
                f"{max_adjust_per_batch}"
            )
        super().__init__(
            bubbles,
            store,
            config=config,
            quality=quality,
            counter=counter,
            obs=obs,
        )
        self._points_per_bubble = points_per_bubble
        self._max_adjust = max_adjust_per_batch
        self._retired: set[int] = set()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def retired_ids(self) -> frozenset[int]:
        """Ids of currently retired (parked, empty) bubbles."""
        return frozenset(self._retired)

    @property
    def points_per_bubble(self) -> int:
        """The target compression rate being steered toward."""
        return self._points_per_bubble

    @property
    def max_adjust_per_batch(self) -> int:
        """Maximum bubbles added or retired per batch."""
        return self._max_adjust

    @property
    def active_count(self) -> int:
        """Number of non-retired bubbles."""
        return len(self._bubbles) - len(self._retired)

    @property
    def target_count(self) -> int:
        """The bubble count the maintainer is steering toward."""
        return max(1, round(self._store.size / self._points_per_bubble))

    def _active_ids(self) -> list[int]:
        return [
            i for i in range(len(self._bubbles)) if i not in self._retired
        ]

    # ------------------------------------------------------------------
    # Overridden steps: keep retired bubbles out of every assignment
    # ------------------------------------------------------------------
    def _assignable_ids(self) -> list[int] | None:
        """Insertions only ever target active (non-retired) bubbles.

        The inherited batch insertion path maps the assigner's indices
        back through this id list and shares the assigner cache, so the
        vectorized engine and seed-matrix reuse apply here unchanged.
        """
        return self._active_ids()

    def _donor_queue(self, report: QualityReport) -> list[int]:
        return [
            bubble_id
            for bubble_id in super()._donor_queue(report)
            if bubble_id not in self._retired
        ]

    def _merge_exclude(self) -> frozenset[int]:
        return frozenset(self._retired)

    def restore_retired(self, retired: frozenset[int] | set[int]) -> None:
        """Adopt a persisted retired-bubble set (recovery support).

        Only legal when every named bubble exists and is empty — a retired
        bubble never summarizes points, so anything else indicates a
        desynchronized snapshot.
        """
        retired = set(int(i) for i in retired)
        counts = self._bubbles.counts()
        for bubble_id in retired:
            if not (0 <= bubble_id < len(self._bubbles)):
                raise ValueError(f"retired id {bubble_id} does not exist")
            if counts[bubble_id]:
                raise ValueError(
                    f"retired bubble {bubble_id} still summarizes points"
                )
        self._retired = retired

    # ------------------------------------------------------------------
    # The adaptive step
    # ------------------------------------------------------------------
    def _apply_batch_inner(self, batch: UpdateBatch) -> BatchReport:
        report = super()._apply_batch_inner(batch)
        self._steer_count()
        return report

    def _steer_count(self) -> None:
        deficit = self.target_count - self.active_count
        if deficit == 0:
            return
        with maybe_span(self._obs, "adaptive_steer", deficit=deficit):
            if deficit > 0:
                for _ in range(min(deficit, self._max_adjust)):
                    self._grow_one()
            else:
                for _ in range(min(-deficit, self._max_adjust)):
                    if self.active_count <= 1:
                        break
                    self._shrink_one()

    def _grow_one(self) -> None:
        """Add (or revive) one bubble by splitting the fullest one."""
        counts = self._bubbles.counts()
        active = self._active_ids()
        fullest = max(active, key=lambda i: counts[i])
        if counts[fullest] < 2:
            return  # nothing worth splitting
        if self._retired:
            # Revive a parked bubble instead of allocating a new id.
            new_id = self._retired.pop()
            revived = True
        else:
            seed = self._bubbles.reps([fullest])[0]
            new_id = self._bubbles.add_bubble(seed).bubble_id
            revived = False
        donor_n, over_n = split_bubble(
            self._bubbles,
            self._store,
            over_id=fullest,
            donor_id=new_id,
            counter=self._counter,
            rng=self._rng,
            strategy=self._config.split_strategy,
            obs=self._obs,
        )
        if self._obs is not None:
            self._obs.metrics.counter(
                "repro_adaptive_grows_total",
                help="Bubbles added (or revived) by adaptive count "
                "steering.",
            ).inc()
            self._obs.emit(
                "bubble_grow",
                split=int(fullest),
                new=int(new_id),
                revived=revived,
                donor_size=donor_n,
                over_size=over_n,
            )

    def _shrink_one(self) -> None:
        """Retire the emptiest active bubble, merging its points away."""
        counts = self._bubbles.counts()
        active = self._active_ids()
        emptiest = min(active, key=lambda i: counts[i])
        exclude = frozenset(self._retired | {emptiest})
        moved = merge_bubble(
            self._bubbles,
            self._store,
            emptiest,
            self._counter,
            use_triangle_inequality=self._config.use_triangle_inequality,
            rng=self._rng,
            exclude=exclude - {emptiest},
            assigner_cache=self._assigner_cache,
            obs=self._obs,
        )
        self._retired.add(emptiest)
        if self._obs is not None:
            self._obs.metrics.counter(
                "repro_adaptive_retires_total",
                help="Bubbles retired by adaptive count steering.",
            ).inc()
            self._obs.emit(
                "bubble_retire", bubble=int(emptiest), points_migrated=moved
            )
