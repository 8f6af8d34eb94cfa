"""repro — incremental data bubbles for dynamic hierarchical clustering.

A faithful, self-contained reproduction of Nassar, Sander & Cheng,
*"Incremental and Effective Data Summarization for Dynamic Hierarchical
Clustering"* (SIGMOD 2004), including every substrate the paper relies on:
data bubbles over sufficient statistics, triangle-inequality accelerated
point assignment, the β quality measure with Chebyshev classification,
synchronized merge/split maintenance, OPTICS (on points and on bubbles),
reachability-plot cluster extraction, the paper's six dynamic workload
scenarios, and the full evaluation harness for Table 1 and Figures 7–11.

Quickstart::

    import numpy as np
    from repro import (
        BubbleBuilder, BubbleConfig, IncrementalMaintainer, PointStore,
    )

    store = PointStore(dim=2)
    store.insert(np.random.default_rng(0).normal(size=(10_000, 2)))
    bubbles = BubbleBuilder(BubbleConfig(num_bubbles=100, seed=0)).build(store)
    maintainer = IncrementalMaintainer(bubbles, store)
    # ... maintainer.apply_batch(update) as the database changes ...
"""

from .core import (
    AdaptiveMaintainer,
    Assigner,
    AssignerCache,
    AuditReport,
    BatchReport,
    BetaQuality,
    BubbleBuilder,
    BubbleClass,
    BubbleConfig,
    BubbleSet,
    CompleteRebuildMaintainer,
    DataBubble,
    DonorPolicy,
    ExtentQuality,
    IncrementalMaintainer,
    InvariantAuditor,
    MaintenanceConfig,
    NaiveAssigner,
    QualityMeasure,
    QualityReport,
    SplitStrategy,
    TriangleInequalityAssigner,
    chebyshev_k,
    make_assigner,
)
from .database import PointStore, UpdateBatch
from .exceptions import (
    CorruptStateError,
    DimensionMismatchError,
    DuplicatePointError,
    EmptyBubbleError,
    InvalidConfigError,
    InvalidPointError,
    NotFittedError,
    PersistenceError,
    ReproError,
    SnapshotError,
    UnknownPointError,
    WalCorruptionError,
)
from .geometry import CounterSnapshot, DistanceCounter
from .streaming import DurableSummarizer, SlidingWindowSummarizer
from .sufficient import SufficientStatistics

__version__ = "1.2.0"

__all__ = [
    "AdaptiveMaintainer",
    "Assigner",
    "AssignerCache",
    "AuditReport",
    "BatchReport",
    "BetaQuality",
    "BubbleBuilder",
    "BubbleClass",
    "BubbleConfig",
    "BubbleSet",
    "CompleteRebuildMaintainer",
    "CorruptStateError",
    "CounterSnapshot",
    "DataBubble",
    "DimensionMismatchError",
    "DistanceCounter",
    "DonorPolicy",
    "DuplicatePointError",
    "DurableSummarizer",
    "EmptyBubbleError",
    "ExtentQuality",
    "IncrementalMaintainer",
    "InvalidConfigError",
    "InvalidPointError",
    "InvariantAuditor",
    "MaintenanceConfig",
    "NaiveAssigner",
    "NotFittedError",
    "PersistenceError",
    "PointStore",
    "QualityMeasure",
    "QualityReport",
    "ReproError",
    "SlidingWindowSummarizer",
    "SnapshotError",
    "SplitStrategy",
    "SufficientStatistics",
    "TriangleInequalityAssigner",
    "UnknownPointError",
    "UpdateBatch",
    "WalCorruptionError",
    "chebyshev_k",
    "make_assigner",
    "__version__",
]
