"""Automatic cluster extraction from reachability plots.

The paper extracts clusters from the OPTICS output "using a modified
version of an automatic method developed in [16]" (Sander et al. 2003:
significant local maxima of the reachability plot are split points of a
cluster tree). This module provides that extractor plus two simpler ones
used by the evaluation and the tests:

* :func:`clusters_at_threshold` — a single horizontal cut: maximal runs of
  positions whose reachability stays below the threshold (each position
  with a higher bar starts the next group and belongs to it).
* :func:`extract_cluster_tree` — the [16]-style recursive split at
  *significant* local maxima: a maximum splits its region only if both
  sides are large enough (``min_size``) and noticeably denser than the
  separating bar (average interior reachability below
  ``significance · bar``).
* :func:`extract_candidates` — a quantile sweep of horizontal cuts,
  returning every distinct cluster span seen at any level. Together with
  per-class best-match scoring this evaluates the whole hierarchy, the way
  hierarchical F-scores are usually computed (Larsen & Aone 1999).

All extractors operate on a plain reachability array (either a bubble plot
or an expanded per-point plot) and return ``(start, end)`` spans over the
ordering; :func:`labels_from_spans` and :func:`majority_bubble_labels`
convert spans into flat labels.
"""

from __future__ import annotations

import numpy as np

from ..types import NOISE_LABEL
from .cluster_tree import ClusterNode, ClusterTree
from .reachability import ExpandedPlot

__all__ = [
    "clusters_at_threshold",
    "extract_cluster_tree",
    "extract_candidates",
    "labels_from_spans",
    "majority_bubble_labels",
    "local_maxima",
]

Span = tuple[int, int]


def clusters_at_threshold(
    reachability: np.ndarray, threshold: float, min_size: int = 1
) -> list[Span]:
    """Clusters from one horizontal cut of the plot.

    A position whose reachability exceeds the threshold is only reachable
    from what precedes it at more than the threshold, so it *starts* a new
    group (and is part of it — its bar is its distance backwards, not a
    property of the point itself). Groups shorter than ``min_size`` are
    noise at this resolution and dropped.
    """
    reachability = np.asarray(reachability, dtype=np.float64)
    num = reachability.shape[0]
    if num == 0:
        return []
    # Sorted and distinct: the breaks come in order, and position 0 is
    # added only when it is not one of them.
    starts = np.flatnonzero(reachability > threshold)
    if starts.size == 0 or starts[0] != 0:
        starts = np.concatenate(([0], starts))
    ends = np.append(starts[1:], num)
    keep = ends - starts >= min_size
    return list(zip(starts[keep].tolist(), ends[keep].tolist()))


def local_maxima(reachability: np.ndarray) -> list[int]:
    """Positions that are local maxima of the plot (possible split points).

    Position 0 is excluded — its (infinite) bar opens the region rather
    than splitting it. Plateaus contribute exactly one position (their last
    entry, the one whose right neighbour is strictly lower).
    """
    reachability = np.asarray(reachability, dtype=np.float64)
    num = reachability.shape[0]
    if num < 2:
        return []
    here = reachability[1:]
    left = reachability[:-1]
    right = np.concatenate((reachability[2:], [-np.inf]))
    mask = (here >= left) & (here > right)
    return (np.flatnonzero(mask) + 1).tolist()


def _interior_average(reachability: np.ndarray, start: int, end: int) -> float:
    """Average finite reachability strictly inside ``(start, end)``.

    The bar at ``start`` is the separation *into* the region and is not
    part of its density; infinite bars (component starts) are ignored.
    The sum over the size is what ``finite.mean()`` computes, bit for
    bit, without its wrapper.
    """
    interior = reachability[start + 1 : end]
    finite = interior[np.isfinite(interior)]
    if finite.size == 0:
        return 0.0
    return float(finite.sum() / finite.size)


def extract_cluster_tree(
    reachability: np.ndarray,
    min_size: int = 5,
    significance: float = 0.75,
) -> ClusterTree:
    """Hierarchical extraction by significant local maxima (Sander et al. 2003).

    Args:
        reachability: plot heights in ordering position.
        min_size: smallest admissible cluster (both sides of a split).
        significance: a split bar is significant when the average interior
            reachability of *both* resulting regions is below
            ``significance`` times the bar (0.75 in [16]).

    Returns:
        A :class:`~repro.clustering.cluster_tree.ClusterTree` whose root
        spans the whole ordering.
    """
    reachability = np.asarray(reachability, dtype=np.float64)
    if reachability.shape[0] == 0:
        raise ValueError("cannot extract clusters from an empty plot")
    if not 0.0 < significance <= 1.0:
        raise ValueError(
            f"significance must lie in (0, 1], got {significance}"
        )
    maxima = sorted(
        local_maxima(reachability),
        key=lambda pos: (reachability[pos], pos),
    )  # ascending; pop() yields the highest bar first

    root = ClusterNode(start=0, end=int(reachability.shape[0]))
    _split_node(reachability, root, maxima, min_size, significance)
    return ClusterTree(root=root)


def _split_node(
    reachability: np.ndarray,
    node: ClusterNode,
    maxima: list[int],
    min_size: int,
    significance: float,
) -> None:
    """Recursively split ``node`` at its most significant local maximum."""
    while maxima:
        split = maxima.pop()  # highest remaining bar inside this region
        left: Span = (node.start, split)
        right: Span = (split, node.end)
        if left[1] - left[0] < min_size or right[1] - right[0] < min_size:
            continue  # one side would be noise-sized; bar is not a split
        bar = reachability[split]
        if np.isfinite(bar):
            if bar <= 0.0:
                continue
            avg_left = _interior_average(reachability, *left)
            avg_right = _interior_average(reachability, *right)
            if (
                avg_left > significance * bar
                or avg_right > significance * bar
            ):
                continue  # regions are about as sparse as the bar: no split
        left_node = ClusterNode(
            start=left[0], end=left[1], split_value=float(bar)
        )
        right_node = ClusterNode(
            start=right[0], end=right[1], split_value=float(bar)
        )
        node.children = [left_node, right_node]
        left_maxima = [m for m in maxima if left[0] < m < left[1]]
        right_maxima = [m for m in maxima if right[0] < m < right[1]]
        _split_node(reachability, left_node, left_maxima, min_size, significance)
        _split_node(
            reachability, right_node, right_maxima, min_size, significance
        )
        return


def extract_candidates(
    reachability: np.ndarray,
    min_size: int = 5,
    num_levels: int = 32,
) -> list[Span]:
    """All distinct cluster spans across a sweep of horizontal cuts.

    A horizontal cut's outcome only changes when the threshold crosses the
    height of a potential split bar (a local maximum of the plot), so the
    sweep uses exactly those heights as levels: one cut strictly below the
    lowest bar (the finest partition) and one between each pair of
    consecutive bar heights. This enumerates *every* structurally distinct
    dendrogram cut — in particular it is robust to heavily skewed plots
    where quantile levels would skip intermediate separations. When the
    plot has more than ``num_levels`` distinct bar heights, the levels are
    quantile-subsampled from them to bound cost.

    Every span produced at any level is a candidate (duplicates
    collapsed); the evaluation then lets each ground-truth cluster pick
    its best-matching candidate, which scores the whole hierarchy rather
    than one resolution.
    """
    reachability = np.asarray(reachability, dtype=np.float64)
    finite = reachability[np.isfinite(reachability)]
    if finite.size == 0:
        # Degenerate plot: every point opens its own component.
        return []
    bar_positions = local_maxima(reachability)
    heights = np.unique(
        [
            reachability[pos]
            for pos in bar_positions
            if np.isfinite(reachability[pos])
        ]
    )
    if heights.size == 0:
        # No internal structure: the whole plot is one cluster.
        return (
            [(0, int(reachability.shape[0]))]
            if reachability.shape[0] >= min_size
            else []
        )
    if heights.size > num_levels:
        quantiles = np.linspace(0.0, 1.0, num_levels)
        heights = np.unique(np.quantile(heights, quantiles))
    # One threshold below the lowest bar, one between each adjacent pair,
    # and one at the highest bar (no internal split at all).
    thresholds = np.concatenate(
        (
            [heights[0] * 0.5 if heights[0] > 0 else -1.0],
            (heights[:-1] + heights[1:]) / 2.0,
            [heights[-1]],
        )
    )
    spans: set[Span] = set()
    for threshold in thresholds:
        spans.update(
            clusters_at_threshold(reachability, float(threshold), min_size)
        )
    return sorted(spans)


def labels_from_spans(num_entries: int, spans: list[Span]) -> np.ndarray:
    """Flat labels from non-overlapping spans; unassigned entries are noise.

    Spans are numbered in the given order; overlapping spans are a caller
    error (later spans would silently overwrite earlier ones) and raise.
    """
    labels = np.full(num_entries, NOISE_LABEL, dtype=np.int64)
    for cluster_id, (start, end) in enumerate(spans):
        if start < 0 or end > num_entries or start >= end:
            raise ValueError(f"span ({start}, {end}) is out of bounds")
        if (labels[start:end] != NOISE_LABEL).any():
            raise ValueError("labels_from_spans requires disjoint spans")
        labels[start:end] = cluster_id
    return labels


def majority_bubble_labels(
    expanded: ExpandedPlot, spans: list[Span]
) -> dict[int, int]:
    """Assign each bubble the cluster owning most of its expanded entries.

    A span boundary can cut through a bubble's block of entries (the
    separation bar is the bubble's first entry); majority voting restores a
    single label per bubble, which is what the per-point evaluation needs
    (every point of a bubble inherits the bubble's label).

    Returns:
        Mapping of bubble id → cluster index (positions in ``spans``);
        bubbles whose entries are mostly outside every span map to
        :data:`~repro.types.NOISE_LABEL`.
    """
    entry_labels = labels_from_spans(len(expanded), spans)
    result: dict[int, int] = {}
    for bubble_id in np.unique(expanded.source):
        mask = expanded.source == bubble_id
        votes = entry_labels[mask]
        values, counts = np.unique(votes, return_counts=True)
        result[int(bubble_id)] = int(values[np.argmax(counts)])
    return result
