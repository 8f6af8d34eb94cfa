"""Shared scale constants for the benchmark suite.

Kept out of ``conftest.py`` so benchmark modules can import them plainly
(pytest imports conftest files under mangled module names).
"""

from __future__ import annotations

from repro.experiments import ExperimentConfig

#: Shared benchmark-scale configuration (smaller than the CLI defaults;
#: see DESIGN.md on size-stable ratios).
BENCH_CONFIG = ExperimentConfig(
    scenario="complex",
    dim=2,
    initial_size=5_000,
    num_bubbles=80,
    update_fraction=0.05,
    num_batches=5,
    min_pts=25,
    seed=0,
)

#: Repetitions per sweep point at benchmark scale.
BENCH_REPS = 2
