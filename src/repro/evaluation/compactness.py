"""Compactness of a data summarization (Table 1's second metric).

Section 5: "the compactness (which is the sum of the square distances of
the points in the data bubble to its representative)" measures how well
the (re)positioned representatives sit among their points. Lower is
better; if the incremental repositioning is effective, "the overall
compactness of the incremental data bubbles should not (significantly)
exceed the overall compactness of the completely rebuilt data bubbles".

Given the sufficient statistics, each bubble's compactness has the closed
form ``SS - |LS|² / n`` (the points' squared deviation from their mean);
:func:`compactness` uses it directly, and
:func:`compactness_from_points` recomputes it from raw coordinates as a
cross-check (used in tests).
"""

from __future__ import annotations

import numpy as np

from ..core.bubble_set import BubbleSet
from ..database import PointStore

__all__ = ["compactness", "bubble_compactness", "compactness_from_points"]


def bubble_compactness(bubble_stats) -> float:
    """Σ ||x - rep||² of one bubble, from its sufficient statistics.

    ``Σ |x - mean|² = SS - |LS|²/n``; empty bubbles contribute 0.
    """
    n = bubble_stats.n
    if n == 0:
        return 0.0
    ls = bubble_stats.linear_sum
    value = bubble_stats.square_sum - float(np.dot(ls, ls)) / n
    return max(value, 0.0)  # clamp floating point cancellation noise


def compactness(bubbles: BubbleSet) -> float:
    """Total compactness of a summary: sum over all bubbles."""
    return sum(bubble_compactness(bubble.stats) for bubble in bubbles)


def compactness_from_points(bubbles: BubbleSet, store: PointStore) -> float:
    """Compactness recomputed from the raw coordinates of each bubble's
    points (the store's owner column says which those are).

    Numerically independent of the sufficient statistics; the property
    tests assert it agrees with :func:`compactness` to within floating
    point tolerance.
    """
    offsets, member_ids = bubbles.member_csr()
    points = store.points_of(member_ids)
    total = 0.0
    for bubble in bubbles:
        if bubble.is_empty():
            continue
        b = bubble.bubble_id
        diff = points[offsets[b] : offsets[b + 1]] - bubble.rep
        total += float(np.einsum("ij,ij->", diff, diff))
    return total
