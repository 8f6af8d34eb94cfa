"""Staleness — the motivation experiment behind incremental summaries.

Section 1: completely reapplying the summarization after every batch "is
prohibitively slow for fast changing and large databases, especially if an
up-to-date clustering structure is required frequently". The practical
alternative to the incremental scheme is therefore *periodic* rebuilding —
and between rebuilds the analyst works with a **stale** summary: its
bubbles still describe points that may have been deleted, and know nothing
about the points inserted since.

This experiment makes that cost measurable. Both arms see the same update
stream on the same logical database:

* the **incremental** arm maintains its bubbles every batch (always
  current);
* the **periodic** arm rebuilds from scratch every ``rebuild_every``
  batches and serves the stale summary in between. Scoring is honest
  about staleness: extracted clusters keep only their still-alive member
  points (deleted members cannot be reported), and freshly inserted
  points belong to no cluster (pure recall loss).

The output is a per-batch F-score trace for each arm plus their average
distance cost — the quality-vs-cost frontier the paper's scheme improves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..clustering import BubbleOptics, extract_candidates
from ..core import (
    BubbleBuilder,
    BubbleConfig,
    BubbleSet,
    IncrementalMaintainer,
    MaintenanceConfig,
)
from ..data import UpdateStream, apply_raw, clone_batch_for, make_scenario
from ..database import PointStore
from ..evaluation import RunSummary, best_match_fscore, summarize
from ..geometry import DistanceCounter
from .harness import ExperimentConfig
from .reporting import render_table

__all__ = ["StalenessResult", "run_staleness", "render_staleness"]


@dataclass(frozen=True)
class StalenessResult:
    """Outcome of one staleness comparison.

    Attributes:
        rebuild_every: the periodic arm's rebuild interval in batches.
        incremental_fscores: per-batch F of the always-current summary.
        periodic_fscores: per-batch F of the periodically rebuilt summary
            (stale between rebuilds).
        incremental_cost: distance computations per batch (summary).
        periodic_cost: distance computations per batch (summary; zero on
            non-rebuild batches).
    """

    rebuild_every: int
    incremental_fscores: tuple[float, ...]
    periodic_fscores: tuple[float, ...]
    incremental_cost: RunSummary
    periodic_cost: RunSummary

    @property
    def incremental_mean(self) -> float:
        """Mean per-batch F of the incremental arm."""
        return float(np.mean(self.incremental_fscores))

    @property
    def periodic_mean(self) -> float:
        """Mean per-batch F of the periodic arm."""
        return float(np.mean(self.periodic_fscores))


def _stale_score(
    bubbles: BubbleSet,
    store: PointStore,
    config: ExperimentConfig,
) -> float:
    """Score a possibly stale summary against the *current* database."""
    alive_ids, _, truth = store.snapshot()
    offsets, owned = bubbles.member_csr()
    result = BubbleOptics(min_pts=config.min_pts).fit(bubbles)
    expanded = result.expanded()
    min_size = max(2, int(config.min_cluster_size * store.size))
    spans = extract_candidates(
        expanded.reachability, min_size=min_size, num_levels=config.num_levels
    )

    source = expanded.source
    totals = {
        int(b): int(c) for b, c in zip(*np.unique(source, return_counts=True))
    }
    candidates: list[np.ndarray] = []
    for start, end in spans:
        inside, counts = np.unique(source[start:end], return_counts=True)
        chosen = [
            int(b)
            for b, c in zip(inside, counts)
            if 2 * int(c) >= totals[int(b)]
        ]
        # The owner column lists only alive points: a stale summary's
        # deleted points are gone from it, and points inserted since the
        # last rebuild are owned by no bubble.
        members = np.sort(
            np.concatenate(
                [owned[offsets[b] : offsets[b + 1]] for b in chosen]
                + [np.empty(0, dtype=np.int64)]
            )
        )
        candidates.append(np.searchsorted(alive_ids, members))
    return best_match_fscore(truth, candidates).overall


def run_staleness(
    config: ExperimentConfig | None = None,
    rebuild_every: int = 5,
    repetition: int = 0,
) -> StalenessResult:
    """Run the incremental-vs-periodic-rebuild comparison once."""
    if config is None:
        config = ExperimentConfig(scenario="complex")
    if rebuild_every < 1:
        raise ValueError(
            f"rebuild_every must be >= 1, got {rebuild_every}"
        )
    seed = config.seed + repetition
    scenario = make_scenario(
        config.scenario, config.dim, config.initial_size, seed=seed
    )
    points, labels = scenario.initial()

    store_inc = PointStore(dim=config.dim)
    store_inc.insert(points, labels)
    store_per = PointStore(dim=config.dim)
    store_per.insert(points, labels)

    counter_inc = DistanceCounter()
    bubbles_inc = BubbleBuilder(
        BubbleConfig(num_bubbles=config.num_bubbles, seed=seed),
        counter=counter_inc,
    ).build(store_inc)
    incremental = IncrementalMaintainer(
        bubbles_inc,
        store_inc,
        MaintenanceConfig(probability=config.probability, seed=seed),
        counter=counter_inc,
    )

    counter_per = DistanceCounter()
    periodic_builder = BubbleBuilder(
        BubbleConfig(
            num_bubbles=config.num_bubbles,
            use_triangle_inequality=False,
            seed=seed,
        ),
        counter=counter_per,
    )
    bubbles_per = periodic_builder.build(store_per)

    inc_fscores: list[float] = []
    per_fscores: list[float] = []
    inc_costs: list[float] = []
    per_costs: list[float] = []

    stream = UpdateStream(
        scenario,
        store_inc,
        update_fraction=config.update_fraction,
        num_batches=config.num_batches,
    )
    for index, batch in enumerate(stream, start=1):
        mirrored = clone_batch_for(batch, store_inc, store_per)

        before = counter_inc.snapshot()
        incremental.apply_batch(batch)
        inc_costs.append(float((counter_inc.snapshot() - before).computed))

        before = counter_per.snapshot()
        apply_raw(store_per, mirrored)
        if index % rebuild_every == 0:
            bubbles_per = periodic_builder.build(store_per)
        per_costs.append(float((counter_per.snapshot() - before).computed))

        inc_fscores.append(
            _stale_score(incremental.bubbles, store_inc, config)
        )
        per_fscores.append(_stale_score(bubbles_per, store_per, config))

    return StalenessResult(
        rebuild_every=rebuild_every,
        incremental_fscores=tuple(inc_fscores),
        periodic_fscores=tuple(per_fscores),
        incremental_cost=summarize(inc_costs),
        periodic_cost=summarize(per_costs),
    )


def render_staleness(result: StalenessResult) -> str:
    """Format the per-batch trace as a table."""
    rows = [
        [
            batch + 1,
            f"{inc:.4f}",
            f"{per:.4f}",
            "rebuild" if (batch + 1) % result.rebuild_every == 0 else "stale",
        ]
        for batch, (inc, per) in enumerate(
            zip(result.incremental_fscores, result.periodic_fscores)
        )
    ]
    table = render_table(
        headers=[
            "batch",
            "incremental F",
            f"periodic F (every {result.rebuild_every})",
            "periodic arm state",
        ],
        rows=rows,
        title="Staleness: always-current incremental summary vs periodic "
        "rebuilds (complex scenario).",
    )
    footer = (
        f"\nmeans: incremental {result.incremental_mean:.4f} at "
        f"{result.incremental_cost.mean:,.0f} dists/batch; periodic "
        f"{result.periodic_mean:.4f} at "
        f"{result.periodic_cost.mean:,.0f} dists/batch"
    )
    return table + footer
