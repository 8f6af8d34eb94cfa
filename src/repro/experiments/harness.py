"""Shared experiment harness.

Everything Section 5 measures flows through the same pipeline:

1. a :class:`~repro.data.scenarios.DynamicScenario` populates a database
   and streams batches of updates;
2. two summaries track it — the **incremental** data bubbles (the paper's
   scheme, triangle-inequality pruning on) and the **complete rebuild**
   baseline (fresh bubbles from scratch after every batch, pruning off,
   per the Figure 11 set-up);
3. after each batch, OPTICS is applied to each bubble set, clusters are
   extracted from the expanded reachability plot, every point inherits its
   bubble's cluster, and the result is scored against the ground-truth
   labels (F-score) alongside the summarization compactness.

:func:`run_comparison` drives one repetition and returns per-batch
measurements for both arms; the table/figure modules aggregate repetitions
into the paper's rows and series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..clustering import BubbleOptics, extract_candidates
from ..core import (
    BubbleBuilder,
    BubbleConfig,
    BubbleSet,
    CompleteRebuildMaintainer,
    IncrementalMaintainer,
    MaintenanceConfig,
)
from ..core.maintenance import BatchReport
from ..core.quality import QualityMeasure
from ..data import UpdateStream, clone_batch_for, make_scenario
from ..database import PointStore
from ..evaluation import best_match_fscore, compactness
from ..geometry import DistanceCounter
from ..observability import Observability

__all__ = [
    "ExperimentConfig",
    "BatchMeasurement",
    "ArmTrace",
    "ComparisonResult",
    "score_summary",
    "candidate_point_sets",
    "run_comparison",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one scenario run.

    Attributes:
        scenario: scenario kind (``random``, ``appear``, ``extappear``,
            ``disappear``, ``gradmove``, ``complex``, ``figure7``).
        dim: data dimensionality.
        initial_size: initial database size (the paper uses 50k–110k; the
            defaults here are scaled down, see DESIGN.md — all reported
            quantities are size-stable ratios).
        num_bubbles: summary size (compression-rate knob).
        update_fraction: per-batch update volume (deletes+inserts this
            fraction of the database, half each).
        num_batches: how many batches each repetition runs.
        min_pts: OPTICS MinPts, in points.
        min_cluster_size: smallest admissible extracted cluster, as a
            fraction of the database size.
        num_levels: quantile levels of the extraction candidate sweep.
        probability: Chebyshev probability of the β quality classes.
        seed: base RNG seed; repetition ``r`` derives ``seed + r``.
    """

    scenario: str = "complex"
    dim: int = 2
    initial_size: int = 10_000
    num_bubbles: int = 100
    update_fraction: float = 0.05
    num_batches: int = 10
    min_pts: int = 25
    min_cluster_size: float = 0.01
    num_levels: int = 32
    probability: float = 0.9
    seed: int = 0


@dataclass(frozen=True)
class BatchMeasurement:
    """One arm's measurements after one batch.

    Attributes:
        fscore: best-match clustering F-score vs ground truth.
        compactness: summarization compactness (Σ squared dist to rep).
        report: the maintainer's batch bookkeeping.
    """

    fscore: float
    compactness: float
    report: BatchReport


@dataclass
class ArmTrace:
    """Per-batch measurements of one arm across a repetition."""

    name: str
    measurements: list[BatchMeasurement] = field(default_factory=list)

    def fscores(self) -> np.ndarray:
        """F-score per batch."""
        return np.asarray([m.fscore for m in self.measurements])

    def compactnesses(self) -> np.ndarray:
        """Compactness per batch."""
        return np.asarray([m.compactness for m in self.measurements])

    def mean_fscore(self) -> float:
        """Mean F-score over batches (the repetition's quality value)."""
        return float(self.fscores().mean())

    def mean_compactness(self) -> float:
        """Mean compactness over batches."""
        return float(self.compactnesses().mean())

    def total_computed(self) -> int:
        """Total distance computations across all batches."""
        return sum(m.report.computed_distances for m in self.measurements)

    def rebuilt_fractions(self, num_bubbles: int) -> np.ndarray:
        """Per-batch fraction of bubbles rebuilt (Figure 9's quantity)."""
        return np.asarray(
            [m.report.num_rebuilt / num_bubbles for m in self.measurements]
        )

    def insertion_pruned_fractions(self) -> np.ndarray:
        """Per-batch insertion-assignment pruning rates (Figure 10)."""
        return np.asarray(
            [m.report.insertion_pruned_fraction for m in self.measurements]
        )


@dataclass(frozen=True)
class ComparisonResult:
    """Both arms of one repetition.

    Attributes:
        incremental: trace of the incremental maintainer.
        complete: trace of the complete-rebuild baseline.
        config: the configuration that produced the traces.
    """

    incremental: ArmTrace
    complete: ArmTrace
    config: ExperimentConfig


def candidate_point_sets(
    expanded,
    spans: list[tuple[int, int]],
    bubbles: BubbleSet,
    alive_ids: np.ndarray,
) -> list[np.ndarray]:
    """Convert extraction spans into point-position candidate sets.

    A span covers expanded plot entries; a bubble belongs to the span's
    cluster when at least half of its entries fall inside (spans may cut
    through a bubble's entry block at the separating bar). The candidate
    is then the union of the ids of its bubbles' points (read from the
    store's owner column), translated to positions within ``alive_ids``
    (the universe the truth labels are indexed by).
    """
    offsets, owned = bubbles.member_csr()
    source = expanded.source
    totals: dict[int, int] = {}
    for bubble_id, count in zip(*np.unique(source, return_counts=True)):
        totals[int(bubble_id)] = int(count)

    candidates: list[np.ndarray] = []
    for start, end in spans:
        inside, counts = np.unique(source[start:end], return_counts=True)
        chosen = [
            int(b)
            for b, c in zip(inside, counts)
            if 2 * int(c) >= totals[int(b)]
        ]
        if not chosen:
            candidates.append(np.empty(0, dtype=np.int64))
            continue
        member_ids = np.concatenate(
            [owned[offsets[b] : offsets[b + 1]] for b in chosen]
        )
        positions = np.searchsorted(alive_ids, member_ids)
        candidates.append(positions)
    return candidates


def score_summary(
    bubbles: BubbleSet,
    store: PointStore,
    config: ExperimentConfig,
) -> tuple[float, float]:
    """Cluster one summary with OPTICS and score it: ``(fscore, compactness)``.

    The full evaluation pipeline of Section 5 for one summary at one point
    in time: bubble OPTICS → expanded reachability plot → candidate
    extraction (quantile sweep over the hierarchy) → per-point labels via
    bubble membership → best-match F-score against the store's ground
    truth.
    """
    alive_ids, _, truth = store.snapshot()
    result = BubbleOptics(min_pts=config.min_pts).fit(bubbles)
    expanded = result.expanded()
    min_size = max(2, int(config.min_cluster_size * store.size))
    spans = extract_candidates(
        expanded.reachability,
        min_size=min_size,
        num_levels=config.num_levels,
    )
    candidates = candidate_point_sets(expanded, spans, bubbles, alive_ids)
    fscore = best_match_fscore(truth, candidates).overall
    return fscore, compactness(bubbles)


def run_comparison(
    config: ExperimentConfig,
    repetition: int = 0,
    quality: QualityMeasure | None = None,
    maintenance: MaintenanceConfig | None = None,
    obs: Observability | None = None,
) -> ComparisonResult:
    """One repetition of the incremental-vs-complete comparison.

    Both arms see the *same* logical update stream: batches are generated
    against the incremental store and re-targeted to the mirror store by
    :func:`~repro.data.stream.clone_batch_for`.

    Args:
        config: experiment parameters.
        repetition: repetition index (shifts every RNG seed).
        quality: override the incremental arm's quality measure (used by
            the Figure 7 experiment to run the extent baseline).
        maintenance: override the incremental arm's maintenance config.
        obs: observability handle for the incremental arm (the baseline
            arm stays uninstrumented — its distance totals would pollute
            the Figure 10/11 pruning numbers).
    """
    seed = config.seed + repetition
    scenario = make_scenario(
        config.scenario, config.dim, config.initial_size, seed=seed
    )
    points, labels = scenario.initial()

    store_inc = PointStore(dim=config.dim)
    store_inc.insert(points, labels)
    store_cmp = PointStore(dim=config.dim)
    store_cmp.insert(points, labels)

    counter_inc = DistanceCounter()
    builder = BubbleBuilder(
        BubbleConfig(num_bubbles=config.num_bubbles, seed=seed),
        counter=counter_inc,
    )
    bubbles_inc = builder.build(store_inc)
    if maintenance is None:
        maintenance = MaintenanceConfig(
            probability=config.probability, seed=seed
        )
    incremental = IncrementalMaintainer(
        bubbles_inc,
        store_inc,
        config=maintenance,
        quality=quality,
        counter=counter_inc,
        obs=obs,
    )
    complete = CompleteRebuildMaintainer(
        store_cmp,
        CompleteRebuildMaintainer.default_config(
            config.num_bubbles, seed=seed
        ),
    )
    complete.rebuild()

    trace_inc = ArmTrace(name="incremental")
    trace_cmp = ArmTrace(name="complete")
    stream = UpdateStream(
        scenario,
        store_inc,
        update_fraction=config.update_fraction,
        num_batches=config.num_batches,
    )
    for batch in stream:
        mirrored = clone_batch_for(batch, store_inc, store_cmp)
        report_inc = incremental.apply_batch(batch)
        report_cmp = complete.apply_batch(mirrored)

        fscore_inc, compact_inc = score_summary(
            incremental.bubbles, store_inc, config
        )
        trace_inc.measurements.append(
            BatchMeasurement(fscore_inc, compact_inc, report_inc)
        )
        fscore_cmp, compact_cmp = score_summary(
            complete.bubbles, store_cmp, config
        )
        trace_cmp.measurements.append(
            BatchMeasurement(fscore_cmp, compact_cmp, report_cmp)
        )
    return ComparisonResult(
        incremental=trace_inc, complete=trace_cmp, config=config
    )
