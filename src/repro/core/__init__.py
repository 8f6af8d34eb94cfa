"""The paper's primary contribution: incremental data bubbles.

Public surface:

* :class:`DataBubble`, :class:`BubbleSet` — the summary objects
  (Definition 1 over sufficient statistics).
* :class:`BubbleBuilder` + :class:`BubbleConfig` — static construction
  with triangle-inequality-pruned assignment (Section 3).
* :class:`NaiveAssigner` / :class:`TriangleInequalityAssigner` — the
  Figure 2 assignment algorithms; the latter's batch path is one
  lockstep tile loop, bit-identical to its scalar loop.
* :class:`BetaQuality` / :class:`ExtentQuality` and
  :class:`QualityReport` — compression-quality classification
  (Definitions 2–3).
* :class:`IncrementalMaintainer` + :class:`MaintenanceConfig` — the
  Section 4 scheme, with :func:`merge_bubble` / :func:`split_bubble` as
  the Figure 6 operations.
* :class:`CompleteRebuildMaintainer` — the from-scratch baseline.
"""

from .adaptive import AdaptiveMaintainer
from .audit import AuditReport, InvariantAuditor
from .assignment import (
    Assigner,
    AssignerCache,
    NaiveAssigner,
    TriangleInequalityAssigner,
    make_assigner,
)
from .bubble import DataBubble
from .bubble_set import BubbleSet
from .builder import BubbleBuilder
from .config import (
    BubbleConfig,
    DonorPolicy,
    MaintenanceConfig,
    SplitStrategy,
    chebyshev_k,
)
from .extent_quality import ExtentQuality
from .maintenance import BatchReport, IncrementalMaintainer
from .quality import (
    BetaQuality,
    BubbleClass,
    QualityMeasure,
    QualityReport,
    classify_values,
)
from .rebuild import CompleteRebuildMaintainer
from .split_merge import merge_bubble, rebuild_pair, split_bubble
from .validate import (
    BAD_POINT_POLICIES,
    ConsistencyReport,
    RejectedPoint,
    ScreenedChunk,
    screen_chunk,
    verify_consistency,
)

__all__ = [
    "AdaptiveMaintainer",
    "Assigner",
    "AssignerCache",
    "AuditReport",
    "BAD_POINT_POLICIES",
    "BatchReport",
    "BetaQuality",
    "BubbleBuilder",
    "BubbleClass",
    "BubbleConfig",
    "BubbleSet",
    "CompleteRebuildMaintainer",
    "ConsistencyReport",
    "DataBubble",
    "DonorPolicy",
    "ExtentQuality",
    "IncrementalMaintainer",
    "InvariantAuditor",
    "MaintenanceConfig",
    "NaiveAssigner",
    "QualityMeasure",
    "QualityReport",
    "RejectedPoint",
    "ScreenedChunk",
    "SplitStrategy",
    "TriangleInequalityAssigner",
    "chebyshev_k",
    "classify_values",
    "make_assigner",
    "merge_bubble",
    "rebuild_pair",
    "screen_chunk",
    "split_bubble",
    "verify_consistency",
]
