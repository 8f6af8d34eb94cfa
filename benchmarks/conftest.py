"""Shared fixtures for the benchmark suite.

Every ``test_bench_*`` module regenerates one of the paper's evaluation
artifacts (Table 1, Figures 7/9/10/11) or an ablation. The regenerated
tables are printed to stdout *and* written to ``benchmarks/results/`` so a
``pytest benchmarks/ --benchmark-only`` run leaves the artifacts behind.
Scale constants live in :mod:`_config`.

BLAS/OpenMP thread pools are pinned to one thread *before numpy loads*
(conftest imports run ahead of the benchmark modules): the bench gates
compare single-stream kernels, and an unpinned BLAS would add thread
scheduling noise to what the gates measure. The CI bench legs set the
same variables at the job level as a belt-and-braces for any earlier
numpy import.
"""

from __future__ import annotations

import os
import pathlib

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def emit():
    """Print an artifact and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit
