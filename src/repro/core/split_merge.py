"""Synchronized merge and split of data bubbles (Section 4.2, Figure 6).

The incremental scheme rebuilds a low-quality bubble pair with two
operations that always run together:

**Merge** — the donor bubble (under-filled, or the lowest-β good bubble
when no under-filled one exists) releases its points; each released point
is assigned to its *next closest* bubble (the donor itself excluded). The
donor is then empty and free to migrate.

**Split** — the emptied donor is re-seeded at a point drawn from the
over-filled bubble's members; the over-filled bubble is likewise given a
new seed from its own members; finally all of the over-filled bubble's
points are redistributed between the two new seeds. Triangle-inequality
pruning is used throughout the point assignments, and all distance
computations flow into the shared :class:`~repro.geometry.DistanceCounter`.

These functions mutate the :class:`~repro.core.bubble_set.BubbleSet`'s
statistics and the :class:`~repro.database.PointStore`'s owner column in
tandem: the column says which points a bubble holds (it is where "the
points of B" are read from), the statistics summarize exactly those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..database import PointStore
from ..geometry import DistanceCounter
from ..observability.spans import maybe_span
from ..types import BubbleId
from .assignment import AssignerCache, make_assigner
from .bubble_set import BubbleSet
from .config import SplitStrategy

__all__ = ["RebuildOutcome", "merge_bubble", "split_bubble", "rebuild_pair"]


@dataclass(frozen=True)
class RebuildOutcome:
    """What one synchronized merge + split actually moved.

    Attributes:
        points_migrated: points the donor released to other bubbles
            during the merge.
        donor_size: points the donor holds after the split.
        over_size: points the split (formerly over-filled) bubble holds
            after the split.
    """

    points_migrated: int
    donor_size: int
    over_size: int

    @property
    def points_redistributed(self) -> int:
        """Points reassigned between the two new seeds by the split."""
        return self.donor_size + self.over_size


def merge_bubble(
    bubbles: BubbleSet,
    store: PointStore,
    donor_id: BubbleId,
    counter: DistanceCounter,
    use_triangle_inequality: bool = True,
    rng: np.random.Generator | None = None,
    exclude: frozenset[BubbleId] = frozenset(),
    assigner_cache: AssignerCache | None = None,
    obs=None,
) -> int:
    """Empty the donor bubble, reassigning its points to other bubbles.

    Returns the number of points that were released and re-homed. A donor
    that is already empty is a no-op (common: bubbles drained by deletions).

    Args:
        exclude: bubble ids that must not receive points (used by the
            adaptive maintainer to keep retired bubbles empty).
        assigner_cache: optional kept seed matrix; when given, the merge
            prunes on its block for the candidate ids instead of
            building a seed matrix of its own.
        obs: observability handle; the merge runs under a
            ``merge_bubble`` span when span tracing is enabled.
    """
    size = int(bubbles.counts()[donor_id])
    if size == 0:
        return 0

    with maybe_span(obs, "merge_bubble", donor=int(donor_id), points=size):
        return _merge_bubble_inner(
            bubbles,
            store,
            donor_id,
            counter,
            use_triangle_inequality,
            rng,
            exclude,
            assigner_cache,
            obs,
        )


def _merge_bubble_inner(
    bubbles: BubbleSet,
    store: PointStore,
    donor_id: BubbleId,
    counter: DistanceCounter,
    use_triangle_inequality: bool,
    rng: np.random.Generator | None,
    exclude: frozenset[BubbleId],
    assigner_cache: AssignerCache | None,
    obs,
) -> int:
    member_ids = store.owned_by(donor_id)
    points = store.points_of(member_ids)
    bubbles.clear([donor_id])

    # Candidate targets: every other bubble, compared at its representative.
    other_ids = np.setdiff1d(
        np.arange(len(bubbles)),
        np.fromiter(exclude | {donor_id}, dtype=np.int64),
    )
    if other_ids.size == 0:
        raise ValueError("merge_bubble has no target bubbles left")
    if assigner_cache is not None:
        assigner = assigner_cache.get(
            bubbles,
            counter=counter,
            use_triangle_inequality=use_triangle_inequality,
            rng=rng,
            active_ids=other_ids,
            obs=obs,
        )
    else:
        assigner = make_assigner(
            bubbles.reps(other_ids),
            counter=counter,
            use_triangle_inequality=use_triangle_inequality,
            rng=rng,
            obs=obs,
        )
    assignment = other_ids[assigner.assign_many(points)]
    bubbles.absorb(points, assignment)
    store.set_owners(member_ids, assignment)
    return int(member_ids.size)


def _select_split_seeds(
    points: np.ndarray,
    strategy: SplitStrategy,
    rng: np.random.Generator,
    counter: DistanceCounter,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the two new seeds ``(s1, s2)`` from the over-filled bubble's points."""
    count = points.shape[0]
    first = int(rng.integers(count))
    if strategy is SplitStrategy.FARTHEST and count > 1:
        dists = counter.point_to_points(points[first], points)
        second = int(np.argmax(dists))
    else:
        second = first
        if count > 1:
            while second == first:
                second = int(rng.integers(count))
    return points[first].copy(), points[second].copy()


def split_bubble(
    bubbles: BubbleSet,
    store: PointStore,
    over_id: BubbleId,
    donor_id: BubbleId,
    counter: DistanceCounter,
    rng: np.random.Generator,
    strategy: SplitStrategy = SplitStrategy.RANDOM,
    obs=None,
) -> tuple[int, int]:
    """Split the over-filled bubble across itself and the (empty) donor.

    Figure 6, lines after the merge: re-seed the donor at a member ``s1`` of
    the over-filled bubble, re-seed the over-filled bubble at another
    member ``s2``, then distribute the over-filled bubble's points between
    ``s1`` and ``s2``.

    Preconditions: the donor has been emptied by :func:`merge_bubble` and
    the over-filled bubble is non-empty.

    Returns the post-split sizes ``(donor_n, over_n)``.
    """
    if over_id == donor_id:
        raise ValueError("a bubble cannot donate to its own split")
    counts = bubbles.counts()
    if counts[donor_id]:
        raise ValueError(
            f"donor bubble {donor_id} must be merged (emptied) before a split"
        )
    if not counts[over_id]:
        raise ValueError(f"cannot split empty bubble {over_id}")

    with maybe_span(
        obs, "split_bubble", over=int(over_id), donor=int(donor_id)
    ):
        member_ids = store.owned_by(over_id)
        points = store.points_of(member_ids)
        seed_one, seed_two = _select_split_seeds(
            points, strategy, rng, counter
        )

        bubbles.reseed(donor_id, seed_one)
        bubbles.clear([over_id])
        bubbles.reseed(over_id, seed_two)

        # Distribute the points between the two new seeds; with two
        # candidates the triangle inequality cannot prune, so compute
        # both distances.
        counter.record_computed(2 * points.shape[0])
        diff_one = points - seed_one
        diff_two = points - seed_two
        to_donor = np.einsum("ij,ij->i", diff_one, diff_one) <= np.einsum(
            "ij,ij->i", diff_two, diff_two
        )

        owners = np.where(to_donor, donor_id, over_id)
        bubbles.absorb(points, owners)
        store.set_owners(member_ids, owners)
        return int(to_donor.sum()), int(member_ids.size - to_donor.sum())


def rebuild_pair(
    bubbles: BubbleSet,
    store: PointStore,
    over_id: BubbleId,
    donor_id: BubbleId,
    counter: DistanceCounter,
    rng: np.random.Generator,
    strategy: SplitStrategy = SplitStrategy.RANDOM,
    use_triangle_inequality: bool = True,
    merge_exclude: frozenset[BubbleId] = frozenset(),
    assigner_cache: AssignerCache | None = None,
    obs=None,
) -> RebuildOutcome:
    """One synchronized merge + split: the unit of Figure 6.

    Note the ordering: the donor's merge may re-home some of its points
    *into* the over-filled bubble (they are nearby nobody else), which is
    fine — the subsequent split redistributes them immediately.

    Returns a :class:`RebuildOutcome` describing the migration and the
    post-split sizes (the maintenance event tracer records these).
    """
    with maybe_span(
        obs, "rebuild_pair", over=int(over_id), donor=int(donor_id)
    ):
        moved = merge_bubble(
            bubbles,
            store,
            donor_id,
            counter,
            use_triangle_inequality=use_triangle_inequality,
            rng=rng,
            exclude=merge_exclude,
            assigner_cache=assigner_cache,
            obs=obs,
        )
        donor_n, over_n = split_bubble(
            bubbles,
            store,
            over_id,
            donor_id,
            counter,
            rng,
            strategy=strategy,
            obs=obs,
        )
    return RebuildOutcome(
        points_migrated=moved, donor_size=donor_n, over_size=over_n
    )
