"""Hierarchical clustering substrate: OPTICS, extraction, and references.

* :class:`PointOptics` — OPTICS over raw points.
* :class:`BubbleOptics` — OPTICS over data bubbles with bubble distances,
  weighted core distances and virtual-reachability expansion.
* :mod:`~repro.clustering.extraction` — automatic cluster extraction from
  reachability plots (threshold cuts, the Sander et al. 2003 cluster tree,
  and a quantile candidate sweep).
* :mod:`~repro.clustering.incremental` — version-keyed cluster cache,
  incremental reachability repair, anytime deadline-bounded fits, and
  cluster lineage across window slides.
* :class:`DBSCAN`, :class:`SingleLink` — reference algorithms used for
  cross-checks and examples.
"""

from .bubble_optics import (
    BubbleOptics,
    BubbleOpticsResult,
    bubble_distance_matrix,
    bubble_distance_rows,
    optics_over_summaries,
)
from .cluster_tree import ClusterNode, ClusterTree
from .dbscan import DBSCAN
from .engine import OpticsWalk, run_optics
from .hierarchy import labels_at_depth, leaf_labels, render_tree
from .incremental import (
    ClusterCache,
    ClusterFit,
    ClusterLineage,
    IncrementalClusterer,
    LineageEvent,
    StageResult,
)
from .kmeans import KMeansResult, WeightedKMeans
from .extraction import (
    clusters_at_threshold,
    extract_candidates,
    extract_cluster_tree,
    labels_from_spans,
    local_maxima,
    majority_bubble_labels,
)
from .optics import PointOptics
from .reachability import ExpandedPlot, ReachabilityPlot
from .render import render_reachability
from .singlelink import Dendrogram, SingleLink
from .snapshot import ClusteringSnapshot
from .xi import XiCluster, extract_xi

__all__ = [
    "BubbleOptics",
    "BubbleOpticsResult",
    "ClusterCache",
    "ClusterFit",
    "ClusterLineage",
    "ClusterNode",
    "ClusterTree",
    "ClusteringSnapshot",
    "DBSCAN",
    "Dendrogram",
    "ExpandedPlot",
    "IncrementalClusterer",
    "KMeansResult",
    "LineageEvent",
    "OpticsWalk",
    "PointOptics",
    "ReachabilityPlot",
    "SingleLink",
    "StageResult",
    "WeightedKMeans",
    "XiCluster",
    "bubble_distance_matrix",
    "bubble_distance_rows",
    "clusters_at_threshold",
    "extract_candidates",
    "extract_cluster_tree",
    "extract_xi",
    "labels_at_depth",
    "labels_from_spans",
    "leaf_labels",
    "local_maxima",
    "majority_bubble_labels",
    "optics_over_summaries",
    "render_reachability",
    "render_tree",
    "run_optics",
]
