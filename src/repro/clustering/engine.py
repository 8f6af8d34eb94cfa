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

:func:`run_optics` is the one-shot entry point: it drives one
:class:`OpticsWalk` to completion and is bit-identical to the historical
implementation (same pops, same tiebreakers, same floats).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .reachability import ReachabilityPlot

__all__ = ["OpticsWalk", "run_optics"]


class OpticsWalk:
    """One OPTICS priority-queue walk.

    The walk owns the full algorithm state: the processed flags, the
    per-object best reachability, the per-object counter of its last
    improving push (the pop tiebreaker), the pop key and push comparand
    derived from them, and the ordering built so far. :meth:`run` drives
    it to completion exactly like the classical loop.

    Args:
        num_objects: how many objects to order.
        distances_from: maps an object id to its distance vector to *all*
            objects (self-distance at its own index, typically 0).
        core_distance: maps ``(object id, its distance vector)`` to the
            object's core distance, or ``inf`` if it is not a core object.
        eps: generating distance; neighbours farther than this never have
            their reachability updated.
    """

    def __init__(
        self,
        num_objects: int,
        distances_from: Callable[[int], np.ndarray],
        core_distance: Callable[[int, np.ndarray], float],
        eps: float = np.inf,
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
        self._counter = 0  # global push counter (heap tiebreaker)
        self._next_start = 0  # lowest id that may still open a component

    def _expand(self, obj: int) -> None:
        """Place ``obj`` and push reachability updates from it."""
        self.processed[obj] = True
        self._key[obj] = np.inf
        self._cmp[obj] = -np.inf
        self._ordering[self._placed] = obj
        self._reach_in_order[self._placed] = self.reach_by_obj[obj]
        self._placed += 1
        dists = self._distances_from(obj)
        core = self._core_distance(obj, dists)
        self.core_by_obj[obj] = core
        if not math.isfinite(core):
            return
        new_reach = np.maximum(dists, core)
        # Placed objects compare against -inf, so this one compare also
        # skips them; a NaN never improves anything. (Array methods here
        # and in _pop: the np.* wrappers cost more than the work at these
        # sizes.)
        improved = (new_reach < self._cmp).nonzero()[0]
        if self._eps != np.inf and improved.size:
            improved = improved[dists[improved] <= self._eps]
        if improved.size:
            values = new_reach[improved]  # fancy indexing copies
            self.reach_by_obj[improved] = values
            self._key[improved] = values
            self._cmp[improved] = values
            # Counters advance one per push in ascending target order,
            # the order the classical loop's heappushes happen in.
            start = self._counter + 1
            self._counter += int(improved.size)
            self.counter_by_obj[improved] = np.arange(
                start, self._counter + 1
            )

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

    def run(self) -> ReachabilityPlot:
        """Drive the walk to completion and return the finished plot.

        Each step expands what the heap would pop next; when no pushed
        object is waiting, the lowest unprocessed id opens the next
        component at infinite reachability — together exactly the
        classical loop's order of operations.
        """
        while self._placed < self._num:
            obj = self._pop()
            if obj < 0:
                while self.processed[self._next_start]:
                    self._next_start += 1
                obj = self._next_start
            self._expand(obj)
        return ReachabilityPlot(
            ordering=self._ordering.copy(),
            reachability=self._reach_in_order.copy(),
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
