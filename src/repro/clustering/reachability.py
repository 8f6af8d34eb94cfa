"""Reachability plots — the output representation of OPTICS.

OPTICS (Ankerst et al. 1999) does not return a flat partition; it returns a
*cluster ordering*: a permutation of the objects together with, for each
position, the **reachability distance** of that object with respect to the
objects ordered before it. Plotting those distances in order yields the
reachability plot: valleys are clusters, and nested valleys expose the
hierarchical clustering structure.

:class:`ReachabilityPlot` stores the ordering, the reachability values *in
ordering position* (``numpy.inf`` for the first object of each connected
component), and the core distances *indexed by object id*.

For data bubbles there is one extra twist (Breunig et al. 2001): a bubble
stands for ``n`` points, so to make the plot comparable to a plot over the
raw points, each bubble is *expanded* into ``n`` consecutive entries — the
first at the bubble's actual reachability, the remaining ``n - 1`` at the
bubble's **virtual reachability** (the estimated reachability points inside
the bubble have among themselves). :meth:`ReachabilityPlot.expand`
implements that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ReachabilityPlot", "ExpandedPlot"]


@dataclass(frozen=True)
class ExpandedPlot:
    """A bubble reachability plot expanded to one entry per point.

    Attributes:
        reachability: per-entry reachability values, length = total points.
        source: for each entry, the id of the object (bubble) it came from.
    """

    reachability: np.ndarray
    source: np.ndarray

    def __len__(self) -> int:
        return int(self.reachability.shape[0])


@dataclass(frozen=True)
class ReachabilityPlot:
    """An OPTICS cluster ordering with reachability and core distances.

    Attributes:
        ordering: object ids in visit order, shape ``(n,)``.
        reachability: reachability of the object at each ordering position,
            shape ``(n,)``; ``inf`` marks the start of a new component.
        core_distances: core distance per *object id* (not position),
            shape ``(n,)``; ``inf`` when the object never had enough
            neighbours.
    """

    ordering: np.ndarray
    reachability: np.ndarray
    core_distances: np.ndarray

    def __post_init__(self) -> None:
        if self.ordering.shape != self.reachability.shape:
            raise ValueError("ordering and reachability must align")
        if self.ordering.ndim != 1:
            raise ValueError("a reachability plot is one-dimensional")

    def __len__(self) -> int:
        return int(self.ordering.shape[0])

    def reachability_of(self, obj: int) -> float:
        """Reachability value of one object id (position looked up)."""
        positions = np.flatnonzero(self.ordering == obj)
        if positions.size == 0:
            raise KeyError(f"object {obj} is not part of this ordering")
        return float(self.reachability[positions[0]])

    def finite_reachability(self) -> np.ndarray:
        """The finite reachability values (plot heights without the infs)."""
        return self.reachability[np.isfinite(self.reachability)]

    def expand(
        self,
        counts: np.ndarray,
        virtual_reachability: np.ndarray,
    ) -> ExpandedPlot:
        """Expand each object into ``counts[obj]`` plot entries.

        Args:
            counts: per-object point counts, indexed by object id. Objects
                with count 0 (empty bubbles) contribute a single entry so
                they remain visible/attributable.
            virtual_reachability: per-object virtual reachability, indexed
                by object id; fills the ``count - 1`` trailing entries.

        Returns:
            An :class:`ExpandedPlot` whose total length is
            ``sum(max(count, 1))`` over the ordering.
        """
        counts = np.asarray(counts, dtype=np.int64)
        virtual = np.asarray(virtual_reachability, dtype=np.float64)
        if counts.shape != virtual.shape or counts.shape[0] < len(self):
            raise ValueError(
                "counts and virtual_reachability must cover every object id"
            )
        ordering = self.ordering.astype(np.int64, copy=False)
        sizes = np.maximum(counts[ordering], 1)
        reach = np.repeat(virtual[ordering], sizes)
        # Each object's block opens at its own reachability.
        reach[np.cumsum(sizes) - sizes] = self.reachability
        return ExpandedPlot(
            reachability=reach, source=np.repeat(ordering, sizes)
        )
