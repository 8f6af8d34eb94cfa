"""Shared OPTICS engine.

OPTICS over raw points and OPTICS over data bubbles differ only in three
plug-in decisions:

* the distance from one object to all others,
* how many *points* an object stands for (1 for raw points, ``n`` for a
  bubble), and
* the core distance of an object given its distances and the weights.

The priority-queue walk itself — visit the closest unprocessed object by
current reachability, update reachabilities of its neighbours through its
core distance — is identical, so it lives here once.

The classical realisation of OPTICS' "OrderSeeds" structure is a
lazy-deletion binary heap. This implementation replaces the heap with flat
arrays while reproducing its semantics **exactly**: reachability values
only ever *decrease*, so at any moment each object has at most one
non-stale heap entry — its most recent improving push, carrying the global
push counter as tiebreaker. The heap's next pop is therefore the
lexicographic minimum of ``(reachability, last-push counter)`` over the
unprocessed objects that have ever been pushed.

Two derived arrays make each step a few whole-array numpy calls. The *pop
key* holds the reachability of pushed, unprocessed objects and ``inf``
everywhere else, so one ``argmin`` finds the smallest reachability; only
when another object ties it does the step fall back to the last-push
counter. The *push comparand* holds the reachability of unprocessed
objects and ``-inf`` once an object is placed, so one masked compare
``max(dist, core) < comparand`` finds every improved neighbour without a
separate processed test. Every pop, every tiebreak, and every float is
identical to the heap walk; there is just no heap to churn.

:class:`OpticsWalk` exposes the walk as a resumable object so the
incremental layer (:mod:`repro.clustering.incremental`) can *replay*
verified positions of an earlier ordering (:meth:`OpticsWalk.splice`,
:meth:`OpticsWalk.splice_segment`), take over live exactly where the old
and new walks diverge (:meth:`OpticsWalk.step`), and record the **push
trace** — per ordering position, the ``(targets, values)`` reachability
improvements that position pushed — which is what makes replay
verifiable. :func:`run_optics` remains the one-shot entry point and is
bit-identical to the historical implementation (same pops, same
tiebreakers, same floats).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .reachability import ReachabilityPlot

__all__ = ["OpticsWalk", "PushBatch", "run_optics"]

#: One ordering position's recorded pushes: ``(targets, values)`` arrays,
#: in ascending target order (the order the expansion emits them).
PushBatch = tuple[np.ndarray, np.ndarray]

_EMPTY_IDX = np.empty(0, dtype=np.int64)
_EMPTY_VAL = np.empty(0, dtype=np.float64)

#: The shared "no pushes" batch.
EMPTY_PUSHES: PushBatch = (_EMPTY_IDX, _EMPTY_VAL)


class OpticsWalk:
    """A resumable OPTICS priority-queue walk.

    The walk owns the full algorithm state: the processed flags, the
    per-object best reachability, the per-object counter of its last
    improving push (the pop tiebreaker), the pop key and push comparand
    derived from them, and the ordering built so far.
    :meth:`run` drives it to completion exactly like the classical loop;
    :meth:`step` performs a single expansion so a caller can interleave
    its own checks (the incremental repair's divergence tracking);
    :meth:`splice` replays one already-verified position of an earlier
    walk, and :meth:`splice_segment` replays a whole run of them in a
    handful of vector operations.

    Args:
        num_objects: how many objects to order.
        distances_from: maps an object id to its distance vector to *all*
            objects (self-distance at its own index, typically 0).
        core_distance: maps ``(object id, its distance vector)`` to the
            object's core distance, or ``inf`` if it is not a core object.
        eps: generating distance; neighbours farther than this never have
            their reachability updated.
        record_trace: when true, every expansion's pushes are recorded in
            :attr:`trace` (needed to make a later incremental repair of
            this ordering verifiable).
    """

    def __init__(
        self,
        num_objects: int,
        distances_from: Callable[[int], np.ndarray],
        core_distance: Callable[[int, np.ndarray], float],
        eps: float = np.inf,
        record_trace: bool = False,
    ) -> None:
        if num_objects <= 0:
            raise ValueError("cannot order zero objects")
        self._num = int(num_objects)
        self._distances_from = distances_from
        self._core_distance = core_distance
        self._eps = float(eps)
        self.processed = np.zeros(self._num, dtype=bool)
        self.reach_by_obj = np.full(self._num, np.inf)
        self.core_by_obj = np.full(self._num, np.inf)
        #: Counter of each object's most recent improving push; -1 means
        #: never pushed. The pop rule is ``argmin (reach, counter)`` over
        #: unprocessed pushed objects — exactly a lazy-deletion heap's
        #: next non-stale pop.
        self.counter_by_obj = np.full(self._num, -1, dtype=np.int64)
        #: Pop key: reachability of pushed, unprocessed objects; ``inf``
        #: for objects never pushed or already placed.
        self._key = np.full(self._num, np.inf)
        #: Push comparand: reachability of unprocessed objects (``inf``
        #: until pushed); ``-inf`` once placed, so no push improves it.
        self._cmp = np.full(self._num, np.inf)
        self._ordering = np.empty(self._num, dtype=np.int64)
        self._reach_in_order = np.empty(self._num, dtype=np.float64)
        self._placed = 0
        #: Per ordering position, the pushes that expansion made (only
        #: populated when ``record_trace`` is set).
        self.trace: list[PushBatch] | None = [] if record_trace else None
        self._counter = 0  # global push counter (heap tiebreaker)
        self._next_start = 0  # lowest id that may still open a component

    @property
    def num_objects(self) -> int:
        """How many objects this walk orders."""
        return self._num

    @property
    def ordering(self) -> np.ndarray:
        """The ordering built so far (a view, grows as the walk runs)."""
        return self._ordering[: self._placed]

    @property
    def reach_in_order(self) -> np.ndarray:
        """Reachability bars aligned with :attr:`ordering`."""
        return self._reach_in_order[: self._placed]

    @property
    def position(self) -> int:
        """How many objects have been placed so far."""
        return self._placed

    def done(self) -> bool:
        """Whether every object has been placed in the ordering."""
        return self._placed >= self._num

    # ------------------------------------------------------------------
    # Core moves
    # ------------------------------------------------------------------
    def _place(self, obj: int, reach: float) -> None:
        self.processed[obj] = True
        self._key[obj] = np.inf
        self._cmp[obj] = -np.inf
        self._ordering[self._placed] = obj
        self._reach_in_order[self._placed] = reach
        self._placed += 1

    def _push(self, targets: np.ndarray, values: np.ndarray) -> None:
        """Apply improving pushes, in order, to unprocessed ``targets``.

        Counters advance one per push, in the given order — ascending
        target within an expansion, the order the classical loop's
        heappushes happen in.
        """
        self.reach_by_obj[targets] = values
        self._key[targets] = values
        self._cmp[targets] = values
        start = self._counter + 1
        self._counter += int(targets.size)
        self.counter_by_obj[targets] = np.arange(start, self._counter + 1)

    def _expand(self, obj: int) -> None:
        """Mark ``obj`` processed and push reachability updates from it."""
        self._place(obj, float(self.reach_by_obj[obj]))
        dists = self._distances_from(obj)
        core = self._core_distance(obj, dists)
        self.core_by_obj[obj] = core
        if math.isfinite(core):
            new_reach = np.maximum(dists, core)
            # Placed objects compare against -inf, so this one compare
            # also skips them; a NaN never improves anything. (Array
            # methods here and in _pop: the np.* wrappers cost more
            # than the work at these sizes.)
            improved = (new_reach < self._cmp).nonzero()[0]
            if self._eps != np.inf and improved.size:
                improved = improved[dists[improved] <= self._eps]
            if improved.size:
                values = new_reach[improved]  # fancy indexing copies
                self._push(improved, values)
                if self.trace is not None:
                    self.trace.append((improved, values))
                return
        if self.trace is not None:
            self.trace.append(EMPTY_PUSHES)

    def _pop(self) -> int:
        """The object a lazy-deletion heap would pop next, or -1.

        Among unprocessed objects that have been pushed, the one with the
        smallest ``(reachability, last-push counter)``; -1 when no pushed
        object remains (heap exhausted → a new component opens). One
        ``argmin`` over the pop key finds the smallest reachability;
        pushes are always finite, so an ``inf`` minimum means nothing is
        waiting. Only a tie at that value needs the counters.
        """
        key = self._key
        obj = int(key.argmin())
        best = key[obj]
        if best == np.inf:
            return -1
        tied = key == best
        if np.count_nonzero(tied) == 1:
            return obj
        ties = tied.nonzero()[0]
        return int(ties[self.counter_by_obj[ties].argmin()])

    def peek_pop(self) -> int:
        """What :meth:`step` would pop next, without performing it.

        The incremental repair uses this to *verify* a replayed pop:
        because the walk's reachabilities and push counters are exactly
        the live algorithm's, the peek is the ground truth for which
        object a from-scratch walk would expand at this position.
        """
        return self._pop()

    def step(self) -> int:
        """Perform exactly one expansion and return the expanded object.

        When no pushed object is waiting, the lowest unprocessed id opens
        the next component at infinite reachability — together exactly
        the classical loop's order of operations, one expansion at a
        time.
        """
        if self.done():
            raise RuntimeError("walk already complete")
        obj = self._pop()
        if obj < 0:
            while self.processed[self._next_start]:
                self._next_start += 1
            obj = self._next_start
        self._expand(obj)
        return obj

    def splice(
        self,
        obj: int,
        reach: float,
        core: float,
        targets: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Replay one verified position of an earlier walk.

        The caller certifies (see the equivalence argument in
        ``docs/CLUSTERING.md``) that a live walk at this position would
        expand exactly ``obj`` with reachability ``reach``, core distance
        ``core``, and exactly these pushes — so the expansion is applied
        to the walk state without recomputing distances or cores.
        Counters advance per push as in a live expansion, which keeps
        every later tiebreak identical to the walk being replayed.
        """
        self._place(int(obj), float(reach))
        self.core_by_obj[obj] = core
        if targets.size:
            self._push(targets, values)
        if self.trace is not None:
            self.trace.append((targets, values))

    def splice_segment(
        self,
        objs: np.ndarray,
        reaches: np.ndarray,
        cores: np.ndarray,
        targets: np.ndarray,
        values: np.ndarray,
        batches: list[PushBatch] | None = None,
    ) -> None:
        """Replay a verified run of positions in bulk.

        ``targets``/``values`` concatenate the pushes of every replayed
        position in chronological order (ascending position; ascending
        target within a position). Reachability values per target only
        ever decrease, so fancy assignment — which applies duplicate
        indices left to right — lands each target on its *last* push of
        the segment, exactly the state a push-by-push replay would reach;
        the same argument covers the counters.

        Args:
            objs: the expanded objects, in position order.
            reaches: their reachability bars.
            cores: their core distances (aligned with ``objs``).
            targets: concatenated push targets of the whole segment.
            values: concatenated push values, aligned with ``targets``.
            batches: per-position push batches, required (and only used)
                when the walk records a trace.
        """
        count = int(objs.size)
        if count == 0:
            return
        self._ordering[self._placed : self._placed + count] = objs
        self._reach_in_order[self._placed : self._placed + count] = reaches
        self._placed += count
        self.core_by_obj[objs] = cores
        if targets.size:
            self._push(targets, values)
        # After the pushes: an object pushed earlier in the segment and
        # placed later in it must end with the placed key and comparand.
        self.processed[objs] = True
        self._key[objs] = np.inf
        self._cmp[objs] = -np.inf
        if self.trace is not None:
            if batches is None or len(batches) != count:
                raise ValueError(
                    "splice_segment on a tracing walk needs one push "
                    "batch per replayed position"
                )
            self.trace.extend(batches)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(self) -> ReachabilityPlot:
        """Drive the walk to completion and return the finished plot."""
        while not self.done():
            self.step()
        return self.plot()

    def plot(self) -> ReachabilityPlot:
        """The (finished) walk as a :class:`ReachabilityPlot`."""
        return ReachabilityPlot(
            ordering=self._ordering[: self._placed].copy(),
            reachability=self._reach_in_order[: self._placed].copy(),
            core_distances=self.core_by_obj,
        )


def run_optics(
    num_objects: int,
    distances_from: Callable[[int], np.ndarray],
    core_distance: Callable[[int, np.ndarray], float],
    eps: float = np.inf,
) -> ReachabilityPlot:
    """Compute an OPTICS cluster ordering.

    Args:
        num_objects: how many objects to order.
        distances_from: maps an object id to its distance vector to *all*
            objects (self-distance at its own index, typically 0).
        core_distance: maps ``(object id, its distance vector)`` to the
            object's core distance, or ``inf`` if it is not a core object.
        eps: generating distance; neighbours farther than this never have
            their reachability updated. ``inf`` (the default used by the
            evaluation) yields the complete hierarchical ordering.

    Returns:
        The finished :class:`~repro.clustering.reachability.ReachabilityPlot`.
    """
    return OpticsWalk(num_objects, distances_from, core_distance, eps=eps).run()
