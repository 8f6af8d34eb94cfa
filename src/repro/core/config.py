"""Configuration for bubble construction and incremental maintenance.

All tunables of Sections 3–4 live here as validated dataclasses so a bad
parameter fails loudly at construction time. The defaults follow the paper:

* the Chebyshev probability ``p`` is 0.90 (Section 5: "The probability
  needed to determine the boundaries of the classes of the data bubbles
  ... was set to 90%");
* the triangle-inequality pruning of Section 3 is on by default;
* the synchronized merge/split pass "is repeated after updating the
  database with each batch" (Section 4.2) — read here as: re-classify and
  split again until no over-filled bubble remains, bounded by
  ``rebuild_rounds`` (default 2). Setting ``rebuild_rounds = 1`` gives
  the strictly-single-pass ablation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ..exceptions import InvalidConfigError

__all__ = [
    "BubbleConfig",
    "MaintenanceConfig",
    "DonorPolicy",
    "SplitStrategy",
    "chebyshev_k",
]


def chebyshev_k(probability: float) -> float:
    """The ``k`` for which Chebyshev guarantees mass ``probability`` within ``k·σ``.

    Chebyshev's inequality gives ``P(|X - μ| < k·σ) >= 1 - 1/k²``; solving
    ``1 - 1/k² = p`` yields ``k = 1 / sqrt(1 - p)``. For the paper's default
    ``p = 0.9`` this is ``k = √10 ≈ 3.162``.

    Raises:
        InvalidConfigError: unless ``0 < probability < 1``.
    """
    if not 0.0 < probability < 1.0:
        raise InvalidConfigError(
            f"Chebyshev probability must lie in (0, 1), got {probability}"
        )
    return 1.0 / math.sqrt(1.0 - probability)


class DonorPolicy(Enum):
    """How the maintainer picks the bubble that is migrated to split an
    over-filled bubble (Section 4.2).

    * ``UNDERFILLED_FIRST`` — the paper's scheme: use an under-filled bubble
      when one exists, otherwise the lowest-β "good" bubble.
    * ``LOWEST_BETA`` — ablation: always take the globally lowest-β bubble
      regardless of its class.
    """

    UNDERFILLED_FIRST = "underfilled-first"
    LOWEST_BETA = "lowest-beta"


class SplitStrategy(Enum):
    """How the two new seeds of a split are drawn from the over-filled
    bubble's member points (Figure 6 says only "selecting a new seed ...
    from the current points").

    * ``RANDOM`` — both seeds are distinct uniform random members. With an
      over-filled bubble dominated by one absorbed substructure, both
      seeds usually land inside that substructure and the bubble's
      far-flung minority points stay attached to distant seeds
      indefinitely (no later pass re-homes points of "good" bubbles), so
      compactness never recovers. Kept as an ablation.
    * ``FARTHEST`` — the default: the first seed is random, the second is
      the member farthest from it. This costs one distance scan over the
      bubble's members and separates merged substructures in one shot,
      which is what reproduces Table 1's "incremental compactness is
      comparable to complete rebuilds" behaviour.
    """

    RANDOM = "random"
    FARTHEST = "farthest"


@dataclass(frozen=True)
class BubbleConfig:
    """Parameters of static bubble construction (Section 3).

    Attributes:
        num_bubbles: how many bubbles summarize the database — the paper's
            compression-rate knob (step 1 samples this many seeds).
        use_triangle_inequality: whether point-to-seed assignment uses the
            Lemma 1 pruning (Figure 2) or the naive full scan.
        seed: RNG seed for the random seed-point sampling.
    """

    num_bubbles: int
    use_triangle_inequality: bool = True
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.num_bubbles < 1:
            raise InvalidConfigError(
                f"num_bubbles must be >= 1, got {self.num_bubbles}"
            )


@dataclass(frozen=True)
class MaintenanceConfig:
    """Parameters of the incremental maintenance scheme (Section 4).

    Attributes:
        probability: the Chebyshev probability ``p`` delimiting "good"
            bubbles; the class boundaries are ``μ_β ± k·σ_β`` with
            ``k = 1/sqrt(1-p)``.
        rebuild_rounds: how many classification → merge/split passes run per
            batch. ``1`` is the paper's scheme; larger values iterate until
            either no over-filled bubble remains or the round budget is
            exhausted.
        donor_policy: how split donors are selected.
        split_strategy: how the two new seeds of a split are drawn.
        use_triangle_inequality: whether incremental point assignment uses
            the Lemma 1 pruning.
        seed: RNG seed for the random choices inside merge/split (new seed
            selection from an over-filled bubble's points).
    """

    probability: float = 0.9
    rebuild_rounds: int = 2
    donor_policy: DonorPolicy = DonorPolicy.UNDERFILLED_FIRST
    split_strategy: SplitStrategy = SplitStrategy.FARTHEST
    use_triangle_inequality: bool = True
    seed: int | None = None

    def __post_init__(self) -> None:
        # Validates the probability range as a side effect.
        chebyshev_k(self.probability)
        if self.rebuild_rounds < 1:
            raise InvalidConfigError(
                f"rebuild_rounds must be >= 1, got {self.rebuild_rounds}"
            )

    @property
    def k(self) -> float:
        """The Chebyshev ``k`` implied by :attr:`probability`."""
        return chebyshev_k(self.probability)
