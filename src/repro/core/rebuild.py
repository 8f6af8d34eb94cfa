"""Complete-rebuild baseline maintainer.

The naive approach the paper compares against (Sections 1 and 5): after
every batch of updates, throw the old summary away and re-run the full
construction over the current database. Quality-wise this is the gold
standard ("building data bubbles completely from scratch can be considered
as a baseline algorithm that has been shown to perform well", Section 4.1);
cost-wise it pays a full database scan per batch, which is what Figure 11's
distance-saving factor measures the incremental scheme against.

:class:`CompleteRebuildMaintainer` exposes the same ``apply_batch`` /
``bubbles`` interface as
:class:`~repro.core.maintenance.IncrementalMaintainer`, so the experiment
harness can drive either side of the comparison identically. Figure 11
compares the incremental scheme *with* triangle-inequality pruning against
a complete rebuild *without* it, so the builder's pruning flag defaults to
off here and on for the incremental maintainer; both are configurable.
"""

from __future__ import annotations

import numpy as np

from ..database import PointStore, UpdateBatch
from ..geometry import DistanceCounter
from ..observability import Observability
from .builder import BubbleBuilder
from .bubble_set import BubbleSet
from .config import BubbleConfig
from .maintenance import BatchReport

__all__ = ["CompleteRebuildMaintainer"]


class CompleteRebuildMaintainer:
    """Re-summarizes the whole database from scratch after every batch.

    Args:
        store: the dynamic database.
        config: construction parameters used for every rebuild. Per the
            Figure 11 set-up, ``use_triangle_inequality`` defaults to
            ``False`` in :meth:`default_config`; pass a config with it
            enabled to measure a pruned rebuild instead.
        counter: shared distance counter; a private one is created when
            omitted.
        obs: optional observability sink, forwarded to the builder so the
            rebuild's assignment scans are timed like incremental batches.
    """

    def __init__(
        self,
        store: PointStore,
        config: BubbleConfig,
        counter: DistanceCounter | None = None,
        obs: Observability | None = None,
    ) -> None:
        self._store = store
        self._config = config
        self._counter = counter if counter is not None else DistanceCounter()
        self._builder = BubbleBuilder(config, counter=self._counter, obs=obs)
        self._bubbles: BubbleSet | None = None

    @staticmethod
    def default_config(
        num_bubbles: int, seed: int | None = None
    ) -> BubbleConfig:
        """The paper's Figure 11 baseline: full rebuild without pruning."""
        return BubbleConfig(
            num_bubbles=num_bubbles,
            use_triangle_inequality=False,
            seed=seed,
        )

    @property
    def store(self) -> PointStore:
        """The underlying database."""
        return self._store

    @property
    def counter(self) -> DistanceCounter:
        """The distance counter accumulating rebuild costs."""
        return self._counter

    @property
    def bubbles(self) -> BubbleSet:
        """The most recent summary (rebuild() or apply_batch() must have run).

        Raises:
            RuntimeError: when no summary has been built yet.
        """
        if self._bubbles is None:
            raise RuntimeError(
                "no summary built yet; call rebuild() or apply_batch() first"
            )
        return self._bubbles

    def rebuild(self) -> BubbleSet:
        """Summarize the store's current content from scratch."""
        self._bubbles = self._builder.build(self._store)
        return self._bubbles

    def apply_batch(self, batch: UpdateBatch) -> BatchReport:
        """Apply the raw updates to the store, then rebuild everything."""
        before = self._counter.snapshot()
        if batch.deletions:
            self._store.delete(np.asarray(batch.deletions, dtype=np.int64))
        if batch.num_insertions:
            self._store.insert(batch.insertions, batch.insertion_labels)
        self.rebuild()
        delta = self._counter.snapshot() - before
        num_bubbles = len(self._bubbles) if self._bubbles is not None else 0
        return BatchReport(
            num_deletions=batch.num_deletions,
            num_insertions=batch.num_insertions,
            num_over_filled=0,
            num_under_filled=0,
            rebuilt_bubbles=tuple(range(num_bubbles)),
            rounds_run=1,
            computed_distances=delta.computed,
            pruned_distances=delta.pruned,
            insertion_pruned_fraction=self._builder.last_pruned_fraction,
        )
