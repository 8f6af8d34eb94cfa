"""High-level clustering snapshot over a bubble summary.

The pipeline modules (:class:`BubbleOptics`, extraction, majority
labelling) are deliberately small and composable; this façade packages the
common composition into one object — the "current clustering" an
application holds between update batches:

* build once from a :class:`~repro.core.bubble_set.BubbleSet`;
* read the hierarchical structure (:attr:`tree`, :meth:`render`);
* label the database (:meth:`point_labels`) through bubble membership;
* classify *new* points without touching the database
  (:meth:`predict` — nearest non-noise bubble representative), the
  "cluster assignment of new points should use a function that does not
  depend on comparison to past points" requirement Barbará [4] states for
  stream clustering.

Snapshots are immutable value objects: after the next update batch, build
a fresh one (construction is O(B²) — trivial next to the batch itself).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.bubble_set import BubbleSet
from ..database import PointStore
from ..types import NOISE_LABEL, PointMatrix
from .bubble_optics import BubbleOptics, BubbleOpticsResult
from .cluster_tree import ClusterTree
from .extraction import extract_cluster_tree, majority_bubble_labels
from .render import render_reachability
from .hierarchy import render_tree

__all__ = ["ClusteringSnapshot"]


@dataclass(frozen=True)
class ClusteringSnapshot:
    """One point-in-time hierarchical clustering of a summarized database.

    Build with :meth:`build`; the constructor fields are the pipeline's
    intermediate products for users who need them.

    Attributes:
        optics: the bubble-level OPTICS result.
        tree: the extracted cluster tree over the expanded plot.
        bubble_labels: bubble id → leaf-cluster index (noise = ``-1``).
        reps: ``(B, d)`` representatives of the non-empty bubbles, aligned
            with :attr:`rep_labels`.
        rep_labels: cluster index of each row of :attr:`reps`.
        num_clusters: how many leaf clusters the snapshot distinguishes.
    """

    optics: BubbleOpticsResult
    tree: ClusterTree
    bubble_labels: dict[int, int]
    reps: np.ndarray
    rep_labels: np.ndarray
    num_clusters: int

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        bubbles: BubbleSet,
        min_pts: int = 25,
        min_cluster_fraction: float = 0.02,
        significance: float = 0.45,
    ) -> "ClusteringSnapshot":
        """Cluster a summary and freeze the result.

        Args:
            bubbles: the (non-empty) summary to cluster.
            min_pts: OPTICS MinPts, in points.
            min_cluster_fraction: smallest admissible cluster as a
                fraction of the summarized points.
            significance: split-significance of the tree extraction. The
                default is deliberately stricter than the 0.75 of Sander
                et al. (which targets smooth point-level plots): expanded
                bubble plots are jagged — flat virtual-reachability
                plateaus with jumps at bubble boundaries — so a moderate
                bar easily clears 0.75 against its plateau interiors and
                over-segments. At 0.45 a split needs its bar to more than
                double the interior level, which empirically recovers the
                generating clusters across seeds and dimensions.
        """
        optics = BubbleOptics(min_pts=min_pts).fit(bubbles)
        expanded = optics.expanded()
        min_size = max(2, int(min_cluster_fraction * len(expanded)))
        tree = extract_cluster_tree(
            expanded.reachability,
            min_size=min_size,
            significance=significance,
        )
        spans = [leaf.span() for leaf in tree.leaves()]
        labels = majority_bubble_labels(expanded, spans)

        labelled = sorted(labels)
        return cls(
            optics=optics,
            tree=tree,
            bubble_labels=labels,
            reps=bubbles.reps(labelled),
            rep_labels=np.asarray(
                [labels[b] for b in labelled], dtype=np.int64
            ),
            num_clusters=len(spans),
        )

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def point_labels(self, store: PointStore) -> np.ndarray:
        """Cluster labels for every alive point, aligned with ``store.ids()``.

        Each point inherits its owning bubble's cluster; points owned by
        no bubble (never summarized) come out as noise.
        """
        owners = store.owners_of(store.ids())
        # Row b + 1 holds bubble b's label; row 0 serves unowned points
        # (owner -1) and every bubble without a label.
        top = max(
            int(owners.max(initial=-1)), max(self.bubble_labels, default=-1)
        )
        table = np.full(top + 2, NOISE_LABEL, dtype=np.int64)
        for bubble_id, label in self.bubble_labels.items():
            table[bubble_id + 1] = label
        return table[owners + 1]

    def predict(self, points: PointMatrix) -> np.ndarray:
        """Cluster labels for new points, via nearest bubble representative.

        Noise-labelled bubbles participate: a point closest to a noise
        bubble is predicted as noise (it landed in a region the clustering
        deems unclustered).
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points.reshape(1, -1)
        sq = (
            np.einsum("ij,ij->i", points, points)[:, None]
            + np.einsum("ij,ij->i", self.reps, self.reps)[None, :]
            - 2.0 * (points @ self.reps.T)
        )
        nearest = np.argmin(sq, axis=1)
        return self.rep_labels[nearest]

    def cluster_sizes(self) -> np.ndarray:
        """Summarized points per leaf cluster (cluster index order)."""
        sizes = np.zeros(self.num_clusters, dtype=np.int64)
        counts = self.optics.counts
        for row, bubble_id in enumerate(self.optics.bubble_ids):
            label = self.bubble_labels.get(int(bubble_id), NOISE_LABEL)
            if label != NOISE_LABEL:
                sizes[label] += counts[row]
        return sizes

    def render(self, width: int = 78, height: int = 10) -> str:
        """ASCII reachability plot plus the cluster tree."""
        expanded = self.optics.expanded()
        plot = render_reachability(
            expanded.reachability, width=width, height=height
        )
        return plot + "\n\n" + render_tree(self.tree)
