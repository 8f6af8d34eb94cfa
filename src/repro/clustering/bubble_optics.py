"""OPTICS over data bubbles (Breunig et al. 2001, as used by the paper).

Applying a hierarchical clustering algorithm to data summarizations needs
"only minor modifications" (Section 1): OPTICS keeps its priority-queue
walk, but distances, core distances and the final plot are defined on
bubbles instead of points.

**Bubble-to-bubble distance.** With representatives ``rep``, extents ``e``
and expected nearest-neighbour distances ``nnDist(1, ·)``::

    d_rep = dist(rep_B, rep_C)
    dist(B, C) = d_rep - (e_B + e_C) + nnDist(1, B) + nnDist(1, C)
                                         if d_rep - (e_B + e_C) >= 0
                 max(nnDist(1, B), nnDist(1, C))      otherwise (overlap)

i.e. the expected distance between *border points* of non-overlapping
bubbles, corrected by the average gap between points inside each bubble;
overlapping bubbles are as close as their internal point gaps.

**Core distance.** MinPts counts *points*, not bubbles: a bubble whose own
``n`` reaches MinPts is core within itself and its core distance is the
internal estimate ``nnDist(MinPts, B)``. A smaller bubble accumulates
neighbouring bubbles by increasing distance until the cumulative point
count reaches MinPts; its core distance is the bubble distance at which
that happens.

**Virtual reachability.** For expanding a bubble into its ``n`` plot
entries, the points inside a bubble are estimated to reach each other at
``max(coreDist(B), nnDist(1, B))``, which the internal core-distance
estimate already dominates; empty/singleton bubbles fall back to their
extent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.bubble_set import BubbleSet
from ..sufficient import SufficientStatistics
from .engine import run_optics
from .reachability import ExpandedPlot, ReachabilityPlot

__all__ = [
    "BubbleOptics",
    "BubbleOpticsResult",
    "bubble_distance_matrix",
    "bubble_distance_rows",
    "optics_over_summaries",
]

#: Row block size for the chunked distance matrix build; bounds the
#: ``(block, B, d)`` difference tensor without changing any result float
#: (each row is computed independently).
_MATRIX_BLOCK_ROWS = 256


def _clamp_extents(extents: np.ndarray) -> np.ndarray:
    """Extents with every degenerate one clamped to 0.0.

    A NaN, infinite or negative extent (float cancellation in the
    variance term of ``extent``, e.g. from duplicate points) would leak
    NaN into every distance involving the summary and from there into the
    whole reachability plot. The paper's formula gives 0 for a
    zero-spread summary, so those clamp to 0.0.
    """
    return np.where(np.isfinite(extents) & (extents > 0.0), extents, 0.0)


def _clamp_internal_cores(values: np.ndarray) -> np.ndarray:
    """Internal core estimates with NaN and negative ones clamped to 0.0.

    A NaN comes from the same variance cancellation as a degenerate
    extent. A ``+inf`` is meaningful (never core within itself) and kept.
    """
    return np.where(np.isnan(values) | (values < 0.0), 0.0, values)


def _virtual_reachability(
    cores: np.ndarray, extents: np.ndarray
) -> np.ndarray:
    """Per summary, the reachability of its interior points.

    Interior points reach each other at roughly the summary's core
    distance; where that is undefined or degenerate (not finite, or not
    positive), at its extent instead.
    """
    virtual = cores.copy()
    fallback = ~np.isfinite(virtual) | (virtual <= 0.0)
    virtual[fallback] = extents[fallback]
    return virtual


def _nn_dist_arrays(
    counts: np.ndarray, extents: np.ndarray, dim: int, k: int
) -> np.ndarray:
    """Vectorised ``nnDist(k, B)`` for every bubble; the extent where
    ``n <= k``. ``extents`` are clamped ones (:func:`_clamp_extents`).
    """
    result = extents.copy()
    mask = counts > k
    result[mask] = (k / counts[mask]) ** (1.0 / dim) * extents[mask]
    return result


def _distance_rows_from_sq(
    sq: np.ndarray,
    rows: np.ndarray,
    extents: np.ndarray,
    nn1: np.ndarray,
) -> np.ndarray:
    """Finish bubble distances for ``rows`` given squared rep distances."""
    d_rep = np.sqrt(sq)
    gap = d_rep - (extents[rows][:, None] + extents[None, :])
    # The nn1 sum is parenthesized so every term of the row formula is
    # symmetric under (i, j) swap; the whole matrix is then bitwise
    # symmetric, letting the incremental repair refresh column j of a
    # touched bubble from its recomputed row without ULP drift.
    separated = gap + (nn1[rows][:, None] + nn1[None, :])
    overlapping = np.maximum(nn1[rows][:, None], nn1[None, :])
    dists = np.where(gap >= 0.0, separated, overlapping)
    dists[np.arange(rows.shape[0]), rows] = 0.0
    return dists


def bubble_distance_rows(
    rows: np.ndarray,
    reps: np.ndarray,
    extents: np.ndarray,
    nn1: np.ndarray,
) -> np.ndarray:
    """Bubble distances from each of ``rows`` to every bubble.

    Bit-identical to the corresponding rows of
    :func:`bubble_distance_matrix`: both compute the squared rep distance
    as a difference-based einsum contraction over the coordinate axis
    (same operands, same reduction order), so an incrementally repaired
    row equals a from-scratch rebuild float for float — the foundation of
    the exact-equivalence contract in
    :mod:`repro.clustering.incremental`.
    """
    rows = np.asarray(rows, dtype=np.int64)
    diff = reps[rows][:, None, :] - reps[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    np.maximum(sq, 0.0, out=sq)
    return _distance_rows_from_sq(sq, rows, extents, nn1)


def bubble_distance_matrix(
    reps: np.ndarray, extents: np.ndarray, nn1: np.ndarray
) -> np.ndarray:
    """Full matrix of bubble-to-bubble distances.

    The squared rep distances are computed difference-based (``(a-b)·(a-b)``
    per pair) rather than via the norm trick (``|a|² + |b|² - 2a·b``):
    marginally slower, but exactly reproducible one row at a time, which
    the incremental cluster cache requires to repair touched rows without
    introducing ULP drift against a cold rebuild. Rows are processed in
    blocks to bound the ``(block, B, d)`` difference tensor.

    Args:
        reps: ``(B, d)`` representative matrix.
        extents: per-bubble extents, shape ``(B,)``.
        nn1: per-bubble ``nnDist(1, ·)`` estimates, shape ``(B,)``.
    """
    num = reps.shape[0]
    dists = np.empty((num, num), dtype=np.float64)
    for start in range(0, num, _MATRIX_BLOCK_ROWS):
        rows = np.arange(start, min(start + _MATRIX_BLOCK_ROWS, num))
        dists[rows] = bubble_distance_rows(rows, reps, extents, nn1)
    return dists


def optics_over_summaries(
    reps: np.ndarray,
    extents: np.ndarray,
    counts: np.ndarray,
    internal_core: np.ndarray,
    min_pts: int,
) -> ReachabilityPlot:
    """OPTICS over arbitrary summaries described by rep/extent/count.

    The generic path shared by data bubbles and BIRCH clustering features:
    any summary that can state a representative, a spatial extent, a point
    count and an internal ``nnDist(MinPts)`` estimate can be ordered with
    the bubble distance function.

    Args:
        reps: ``(K, d)`` representatives.
        extents: per-summary extents.
        counts: per-summary point counts (weights for the core condition).
        internal_core: per-summary internal core-distance estimate, used
            when the summary alone holds ``min_pts`` points.
        min_pts: MinPts in points.

    The ordering is the complete one (generating distance ``inf``), the
    one the evaluation extracts its clusters from.
    """
    reps = np.ascontiguousarray(reps, dtype=np.float64)
    extents = np.asarray(extents, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    internal_core = np.asarray(internal_core, dtype=np.float64)
    num = reps.shape[0]
    if num == 0:
        # Nothing to order is a legal state for service-facing callers (a
        # "cluster me now" query against a fresh tenant): an empty plot,
        # not an error. run_optics itself still rejects zero objects.
        empty = np.empty(0)
        return ReachabilityPlot(
            ordering=np.empty(0, dtype=np.int64),
            reachability=empty,
            core_distances=empty,
        )
    extents = _clamp_extents(extents)
    internal_core = _clamp_internal_cores(internal_core)
    nn1 = _nn_dist_arrays(counts, extents, reps.shape[1], k=1)
    dist_matrix = bubble_distance_matrix(reps, extents, nn1)

    def distances_from(obj: int) -> np.ndarray:
        return dist_matrix[obj]

    def core_distance(obj: int, dists: np.ndarray) -> float:
        if counts[obj] >= min_pts:
            return float(internal_core[obj])
        order = np.argsort(dists, kind="stable")
        cumulative = np.cumsum(counts[order])
        reached = np.flatnonzero(cumulative >= min_pts)
        if reached.size == 0:
            return np.inf
        return float(dists[order[reached[0]]])

    return run_optics(num, distances_from, core_distance)


@dataclass(frozen=True)
class BubbleOpticsResult:
    """A bubble-level cluster ordering plus what is needed to expand it.

    Attributes:
        plot: the reachability plot over *compact indices* (0..K-1 over the
            non-empty bubbles that were clustered).
        bubble_ids: compact index → original bubble id.
        counts: per compact index, how many points the bubble summarizes.
        virtual_reachability: per compact index, the reachability estimate
            for the bubble's interior points.
    """

    plot: ReachabilityPlot
    bubble_ids: np.ndarray
    counts: np.ndarray
    virtual_reachability: np.ndarray

    def expanded(self) -> ExpandedPlot:
        """One plot entry per summarized point, attributed to bubble ids.

        The entry order follows the bubble ordering; each bubble's first
        entry carries its actual reachability, the rest its virtual
        reachability — the comparability trick of Breunig et al. 2001 that
        makes cluster sizes in the bubble plot match the point plot.
        """
        raw = self.plot.expand(self.counts, self.virtual_reachability)
        return ExpandedPlot(
            reachability=raw.reachability,
            source=self.bubble_ids[raw.source],
        )


class BubbleOptics:
    """OPTICS configured for :class:`~repro.core.bubble_set.BubbleSet`.

    Orders the bubbles completely (generating distance ``inf``, the
    evaluation's setting).

    Args:
        min_pts: MinPts in *points* (summed over bubbles).

    Example:
        >>> # bubbles: a BubbleSet from BubbleBuilder
        >>> result = BubbleOptics(min_pts=25).fit(bubbles)  # doctest: +SKIP
        >>> expanded = result.expanded()                    # doctest: +SKIP
    """

    def __init__(self, min_pts: int = 25) -> None:
        if min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {min_pts}")
        self._min_pts = int(min_pts)

    @property
    def min_pts(self) -> int:
        """The MinPts parameter (in points)."""
        return self._min_pts

    def fit(self, bubbles: BubbleSet) -> BubbleOpticsResult:
        """Order the non-empty bubbles of ``bubbles``.

        Empty bubbles summarize nothing and are skipped; they reappear the
        moment the maintainer recycles them.

        Raises:
            ValueError: when every bubble is empty.
        """
        non_empty = bubbles.non_empty_ids()
        if not non_empty:
            raise ValueError("cannot cluster a summary with no points")
        bubble_ids = np.asarray(non_empty, dtype=np.int64)
        counts, reps, extents, internal_core = bubbles.features(
            bubble_ids, self._min_pts
        )
        plot = optics_over_summaries(
            reps, extents, counts, internal_core, min_pts=self._min_pts
        )
        return BubbleOpticsResult(
            plot=plot,
            bubble_ids=bubble_ids,
            counts=counts,
            virtual_reachability=_virtual_reachability(
                plot.core_distances, extents
            ),
        )

    @staticmethod
    def distance(
        stats_a: SufficientStatistics, stats_b: SufficientStatistics
    ) -> float:
        """Bubble distance between two standalone sufficient statistics.

        Convenience for tests and for users composing their own pipelines;
        semantics identical to the matrix used by :meth:`fit`.
        """
        from ..sufficient import extent as _extent, nn_dist

        rep_a, rep_b = stats_a.mean(), stats_b.mean()
        ext_a, ext_b = _extent(stats_a), _extent(stats_b)
        nn_a = nn_dist(stats_a, 1) if stats_a.n > 1 else ext_a
        nn_b = nn_dist(stats_b, 1) if stats_b.n > 1 else ext_b
        diff = rep_a - rep_b
        d_rep = float(np.sqrt(np.dot(diff, diff)))
        gap = d_rep - (ext_a + ext_b)
        if gap >= 0.0:
            return gap + nn_a + nn_b
        return max(nn_a, nn_b)
