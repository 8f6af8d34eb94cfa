"""Shared OPTICS engine.

OPTICS over raw points and OPTICS over data bubbles differ only in three
plug-in decisions:

* the distance from one object to all others,
* how many *points* an object stands for (1 for raw points, ``n`` for a
  bubble), and
* the core distance of an object given its distances and the weights.

The priority-queue walk itself — visit the closest unprocessed object by
current reachability, update reachabilities of its neighbours through its
core distance — is identical, so it lives here once, in :func:`_order`.

The walk reads one *reach row* per placed object: ``max(dist, core)`` to
every object, and ``inf`` wherever the object pushes nothing (it is not
core, or, for :func:`run_optics` with a finite ``eps``, the neighbour
lies beyond it). :class:`OpticsWalk` takes a whole distance matrix and
its core vector and computes every reach row at once, for the complete
ordering; :func:`run_optics` builds each row on demand from per-object
callbacks.

The classical realisation of OPTICS' "OrderSeeds" structure is a
lazy-deletion binary heap. This implementation replaces the heap with flat
arrays while reproducing its semantics **exactly**: reachability values
only ever *decrease*, so at any moment each object has at most one
non-stale heap entry — its most recent improving push, carrying the global
push counter as tiebreaker. The heap's next pop is therefore the
lexicographic minimum of ``(reachability, last-push counter)`` over the
unprocessed objects that have ever been pushed.

The counter advances once per push, in ascending target order within a
step, so ordering by counter is ordering by ``(step of the last improving
push, object id)``. The walk keeps that *stamp* per object instead of a
counter.

Three arrays make each step a few whole-array numpy calls. The *pop key*
holds the reachability of pushed, unprocessed objects and ``inf``
everywhere else, so one ``argmin`` finds the smallest reachability; only
when another object ties it does the step fall back to the stamps, over
the tied ids in ascending order. The *push comparand* holds the
reachability of unprocessed objects and ``-inf`` once an object is
placed, so one compare ``reach row < comparand`` finds every improved
neighbour without a separate processed test. Every pop, every tiebreak,
and every float is identical to the heap walk; there is just no heap to
churn.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .reachability import ReachabilityPlot

__all__ = ["OpticsWalk", "run_optics"]


def _order(
    num: int, reach_row: Callable[[int], np.ndarray]
) -> tuple[list[int], list[float]]:
    """The OPTICS ordering and its heights, from one reach row per object.

    Each step places what the heap would pop next; when no pushed object
    is waiting, the lowest unplaced id opens the next component at
    infinite reachability — together exactly the classical loop's order
    of operations. Pushes are always finite (a reach row is ``inf``
    wherever it pushes nothing), so an ``inf`` minimum of the pop key
    means nothing is waiting.
    """
    inf = np.inf
    key = np.full(num, inf)
    cmp = np.full(num, inf)
    stamp = np.zeros(num, dtype=np.int64)
    placed = bytearray(num)
    ordering: list[int] = []
    heights: list[float] = []
    start = 0  # lowest id that may still open a component
    for step in range(num):
        obj = int(key.argmin())
        height = key.item(obj)
        if height == inf:
            while placed[start]:
                start += 1
            obj = start
        else:
            tied = (key == height).nonzero()[0]
            if tied.size > 1:
                obj = int(tied[stamp[tied].argmin()])
        placed[obj] = 1
        key[obj] = inf
        cmp[obj] = -inf
        ordering.append(obj)
        heights.append(height)
        # Placed objects compare against -inf and a NaN never compares
        # below anything, so this one compare finds exactly the pushes.
        row = reach_row(obj)
        improved = (row < cmp).nonzero()[0]
        if improved.size:
            values = row[improved]
            key[improved] = values
            cmp[improved] = values
            stamp[improved] = step
    return ordering, heights


def _plot(
    ordering: list[int], heights: list[float], cores: np.ndarray
) -> ReachabilityPlot:
    return ReachabilityPlot(
        ordering=np.array(ordering, dtype=np.int64),
        reachability=np.array(heights, dtype=np.float64),
        core_distances=cores,
    )


class OpticsWalk:
    """One OPTICS walk over a distance matrix and its core distances.

    The walk is the complete ordering (generating distance ``inf``).
    :meth:`run` computes every reach row at once — one extra ``K × K``
    float64 matrix while it walks — so a step reads its row instead of
    recomputing it.

    Args:
        dist: ``(K, K)`` distances; row ``i`` holds object ``i``'s
            distance to every object.
        cores: the ``K`` core distances; a non-finite core (``inf``,
            ``nan`` or ``-inf``) marks an object that pushes nothing.
    """

    def __init__(self, dist: np.ndarray, cores: np.ndarray) -> None:
        if len(cores) == 0:
            raise ValueError("cannot order zero objects")
        self._dist = dist
        self._cores = cores

    def run(self) -> ReachabilityPlot:
        """Walk to completion and return the finished plot.

        The plot's ``core_distances`` is its own copy of the cores.
        """
        cores = np.array(self._cores, dtype=np.float64)
        reach = np.maximum(self._dist, cores[:, None])
        reach[~np.isfinite(cores)] = np.inf
        return _plot(*_order(len(cores), reach.__getitem__), cores)


def run_optics(
    num_objects: int,
    distances_from: Callable[[int], np.ndarray],
    core_distance: Callable[[int, np.ndarray], float],
    eps: float = np.inf,
) -> ReachabilityPlot:
    """Compute an OPTICS cluster ordering.

    Each object's reach row is built from the two callbacks when the
    walk places it, so no ``K × K`` matrix is ever held.

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
    if num_objects <= 0:
        raise ValueError("cannot order zero objects")
    num = int(num_objects)
    eps = float(eps)
    cores = np.full(num, np.inf)
    pushes_nothing = np.full(num, np.inf)

    def reach_row(obj: int) -> np.ndarray:
        dists = distances_from(obj)
        core = core_distance(obj, dists)
        cores[obj] = core
        if not math.isfinite(core):
            return pushes_nothing
        row = np.maximum(dists, core)
        if eps != np.inf:
            row[~(dists <= eps)] = np.inf
        return row

    return _plot(*_order(num, reach_row), cores)
