"""Hierarchical clustering over a CF-tree summary.

The bridge that makes BIRCH's clustering features comparable to data
bubbles within this library: the leaf entries of a
:class:`~repro.birch.cftree.CFTree` are treated as summaries
(representative = centroid, extent = the bubble-style average pairwise
distance derived from the same ``(n, LS, SS)``) and ordered by the shared
summary-level OPTICS. The comparison benchmark then runs the identical
extraction + F-score pipeline over both summary kinds.

This reproduces the methodological setup of Breunig et al. 2001 (and the
premise of the paper under reproduction, Section 1): data bubbles and
clustering features carry the same sufficient statistics — the difference
lies in how the summaries are *formed* (nearest-seed partitioning vs
threshold absorption), which is exactly what the comparison isolates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..clustering.bubble_optics import (
    _virtual_reachability,
    optics_over_summaries,
)
from ..clustering.reachability import ExpandedPlot, ReachabilityPlot
from ..sufficient import extent as stats_extent, nn_dist
from .cftree import CFTree

__all__ = ["CFSummaryResult", "cluster_cf_tree"]


@dataclass(frozen=True)
class CFSummaryResult:
    """OPTICS output over a CF-tree's leaf entries.

    Attributes:
        plot: reachability plot over leaf-entry indices (tree order).
        counts: per-entry point counts.
        virtual_reachability: per-entry interior reachability estimate.
    """

    plot: ReachabilityPlot
    counts: np.ndarray
    virtual_reachability: np.ndarray

    def expanded(self) -> ExpandedPlot:
        """One plot entry per summarized point (same trick as bubbles)."""
        return self.plot.expand(self.counts, self.virtual_reachability)


def cluster_cf_tree(tree: CFTree, min_pts: int = 25) -> CFSummaryResult:
    """Order a CF-tree's leaf entries with summary-level OPTICS.

    Raises:
        ValueError: for an empty tree.
    """
    entries = tree.leaf_entries()
    if not entries:
        raise ValueError("cannot cluster an empty CF-tree")
    reps = np.stack([cf.centroid() for cf in entries])
    extents = np.asarray(
        [stats_extent(cf.stats) if cf.n > 1 else 0.0 for cf in entries]
    )
    counts = np.asarray([cf.n for cf in entries], dtype=np.int64)
    internal_core = np.asarray(
        [
            nn_dist(cf.stats, min_pts) if cf.n > 1 else 0.0
            for cf in entries
        ]
    )
    plot = optics_over_summaries(
        reps, extents, counts, internal_core, min_pts=min_pts
    )
    return CFSummaryResult(
        plot=plot,
        counts=counts,
        virtual_reachability=_virtual_reachability(
            plot.core_distances, extents
        ),
    )
