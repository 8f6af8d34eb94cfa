"""Static construction of data bubbles (Section 3).

The construction method of Breunig et al. 2001 that the paper speeds up:

1. retrieve randomly ``s`` points from the database as *seeds*;
2. scan the database and assign each point to the closest seed.

Step 2 uses one of the assigners of :mod:`repro.core.assignment`; with the
triangle-inequality assigner this *is* the accelerated construction of
Section 3. The builder also wires the resulting ownership into the
:class:`~repro.database.PointStore`, which is what later makes deletions
O(1) for the incremental maintainer.

This same code path doubles as the **complete rebuild** baseline of the
evaluation: rebuilding from scratch after a batch is exactly a fresh
:meth:`BubbleBuilder.build` over the current database.
"""

from __future__ import annotations

import time

import numpy as np

from ..database import PointStore
from ..exceptions import InvalidConfigError
from ..geometry import DistanceCounter
from ..observability import Observability
from .assignment import make_assigner
from .bubble_set import BubbleSet
from .config import BubbleConfig

__all__ = ["BubbleBuilder"]


class BubbleBuilder:
    """Builds a :class:`BubbleSet` from the current content of a store.

    Args:
        config: construction parameters (number of bubbles, pruning on/off,
            RNG seed).
        counter: optional shared :class:`DistanceCounter`; all distance
            computations of the construction are accounted there.
        obs: optional observability sink; when given, the assignment scan
            is timed into the same ``repro_assignment_*`` metrics the
            incremental maintainer records, so construction and
            maintenance costs are comparable on one dashboard.

    Example:
        >>> store = PointStore(dim=2)
        >>> _ = store.insert(np.random.default_rng(0).normal(size=(100, 2)))
        >>> builder = BubbleBuilder(BubbleConfig(num_bubbles=5, seed=0))
        >>> bubbles = builder.build(store)
        >>> len(bubbles), bubbles.total_points
        (5, 100)
    """

    def __init__(
        self,
        config: BubbleConfig,
        counter: DistanceCounter | None = None,
        obs: Observability | None = None,
    ) -> None:
        self._config = config
        self._counter = counter if counter is not None else DistanceCounter()
        self._rng = np.random.default_rng(config.seed)
        self._obs = obs

    @property
    def counter(self) -> DistanceCounter:
        """The distance counter receiving construction costs."""
        return self._counter

    @property
    def last_pruned_fraction(self) -> float:
        """Assignment-phase pruning fraction of the most recent build."""
        return self._last_pruned_fraction

    _last_pruned_fraction: float = 0.0

    def build(self, store: PointStore) -> BubbleSet:
        """Summarize the store's current points into fresh data bubbles.

        Every alive point is assigned to its closest seed; the store's
        ownership records are rewritten accordingly.

        Raises:
            InvalidConfigError: if the database holds fewer points than the
                requested number of bubbles (a seed sample without
                replacement is then impossible).
        """
        ids, points, _ = store.snapshot()
        num_points = points.shape[0]
        num_bubbles = self._config.num_bubbles
        if num_points < num_bubbles:
            raise InvalidConfigError(
                f"cannot sample {num_bubbles} seeds from {num_points} points"
            )

        # Step 1: random seed sample, without replacement.
        seed_rows = self._rng.choice(num_points, size=num_bubbles, replace=False)
        seeds = points[seed_rows]

        bubbles = BubbleSet.from_arrays(store, seeds)

        # Step 2: scan the database, assigning each point to its closest
        # seed (triangle-inequality pruned when configured).
        assigner = make_assigner(
            seeds,
            counter=self._counter,
            use_triangle_inequality=self._config.use_triangle_inequality,
            rng=self._rng,
        )
        assignment = self._timed_assign(assigner, points)
        self._last_pruned_fraction = assigner.pruned_fraction

        store.clear_owners()
        bubbles.absorb(points, assignment)
        store.set_owners(ids, assignment)
        return bubbles

    def _timed_assign(self, assigner, points: np.ndarray) -> np.ndarray:
        """Run the assignment scan, timing it when observability is wired.

        Metric names deliberately match the incremental maintainer's, so a
        complete-rebuild baseline and the incremental scheme report into
        the same series (the registry get-or-creates by name + labels).
        """
        if self._obs is None:
            return assigner.assign_many(points)
        metrics = self._obs.metrics
        started = time.perf_counter()
        assignment = assigner.assign_many(points)
        metrics.timer(
            "repro_assignment_seconds",
            help="Latency of the point-to-seed assignment phase per "
            "batch.",
        ).observe(time.perf_counter() - started)
        metrics.counter(
            "repro_assignment_points_total",
            help="Points run through nearest-seed assignment.",
            unit="points",
        ).inc(points.shape[0])
        metrics.histogram(
            "repro_assignment_batch_points",
            help="Points per batch run through the vectorized "
            "assignment engine.",
            unit="points",
            buckets=(1, 8, 64, 256, 1024, 4096, 16384, 65536),
        ).observe(points.shape[0])
        return assignment
