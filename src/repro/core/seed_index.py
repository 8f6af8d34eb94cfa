"""Spatial candidate generation for the assignment engine.

The triangle-inequality batch kernel (:mod:`repro.core.assignment`)
probes seeds in a random order and prunes with Lemma 1, but every probe
it cannot prune still costs one exact distance — so assignment cost
grows linearly with the bubble count ``B`` even when most seeds are
hopeless. :class:`SeedIndex` shrinks the per-point *candidate set* from
``O(B)`` to ``O(log B + k)`` by answering, for a block of query points,
two questions per point:

* **membership** — which seeds are among the point's ``k`` spatially
  nearest (a boolean ``(m, B)`` mask), and
* **gate** — a radius ``g`` such that every *non-member* seed is
  provably at exact Euclidean distance ``>= g`` from the point.

The batch kernel may then skip the exact distance to any non-member
probe whose row already holds ``minDist <= g``: the skipped distance is
``>= g >= minDist``, so under the kernel's strict ``<`` update the probe
could never have improved the row. Assignments, tie-breaks, Lemma-1
dynamics and the RNG stream are untouched — the skip only converts
*computed* distances into *pruned* ones, which is the
distance-count-equal-or-better invariant the assigner's parity tests
pin down.

Two backends provide the mask/gate pair:

``kdtree``
    :class:`scipy.spatial.cKDTree` k-nearest-neighbour queries. Used
    when scipy is importable (it is an optional dependency — the
    ``spatial`` extra); the tree's k-th neighbour distance is the gate.

``grid``
    A pure-numpy uniform grid: seeds are binned into cubic cells of
    side ``h``; for a query point the Chebyshev cell distance to every
    seed bounds the true distance from below (two coordinates in cells
    ``R + 1`` apart differ by at least ``R·h`` on that axis), so the
    ``k``-th smallest cell distance yields both the member set and the
    gate. No dependencies beyond numpy; coarser gates than the tree,
    never unsound.

Both gates are multiplied by ``1 - 1e-9`` before use so ulp-level
disagreement between backend arithmetic and the assigner's
:func:`~repro.geometry.distance.row_norms` kernel can never flip a skip
decision the wrong way — the safety margin only makes gates smaller,
i.e. skips rarer, never incorrect.

Indexes are immutable snapshots of one seed matrix. The maintainers
never mutate them in place: a :class:`SeedIndex` hangs off the assigner
cached by :class:`~repro.core.assignment.AssignerCache`, whose key
includes :attr:`BubbleSet.version
<repro.core.bubble_set.BubbleSet.version>` — any bubble mutation
invalidates the assigner and with it the index, which is rebuilt lazily
on the next batch.
"""

from __future__ import annotations

import math

import numpy as np

from ..types import PointMatrix

__all__ = ["SeedIndex", "default_candidate_count", "kdtree_available"]

#: Relative safety margin applied to every gate radius. Backend
#: distance arithmetic (tree internals, grid cell geometry) may differ
#: from the assigner's ``row_norms`` einsum by a few ulps; shrinking the
#: gate by 1e-9 relative absorbs that slack in the conservative
#: direction (fewer skips, never a wrong one).
_GATE_SAFETY = 1.0 - 1e-9

_UNRESOLVED = object()

#: ``scipy.spatial.cKDTree``, or ``None`` when scipy is absent. Resolved
#: on first use by :func:`_kdtree_class` rather than at import: scipy is
#: optional, only ``backend="kdtree"`` needs it, and importing
#: ``scipy.spatial`` costs about as much as the rest of ``repro``.
_cKDTree = _UNRESOLVED


def _kdtree_class():
    """The KD-tree class, importing scipy on the first call."""
    global _cKDTree
    if _cKDTree is _UNRESOLVED:
        try:  # scipy is optional; the grid backend needs only numpy.
            from scipy.spatial import cKDTree
        except ImportError:  # pragma: no cover - exercised where scipy absent
            cKDTree = None
        _cKDTree = cKDTree
    return _cKDTree


def kdtree_available() -> bool:
    """Whether the scipy KD-tree backend can be used in this process."""
    return _kdtree_class() is not None


def default_candidate_count(num_seeds: int) -> int:
    """Default ``k`` for :class:`SeedIndex` — ``O(log B)`` candidates.

    Small enough that candidate generation stays sublinear in ``B``,
    large enough that the true nearest seed is essentially always a
    member (membership is only an optimisation hint — correctness never
    depends on it, see the module docstring).
    """
    if num_seeds <= 2:
        return num_seeds
    k = int(math.ceil(2.0 * math.log2(num_seeds))) + 2
    return min(num_seeds, max(4, k))


class SeedIndex:
    """k-NN candidate index over a fixed ``(B, d)`` seed matrix.

    Args:
        seeds: ``(B, d)`` seed matrix; copied defensively.
        k: candidate-set size per query point; defaults to
            :func:`default_candidate_count`. Clamped to ``B``.
        backend: ``"auto"`` (KD-tree when scipy is importable, grid
            otherwise), ``"kdtree"`` (requires scipy) or ``"grid"``.

    Raises:
        ValueError: empty/ill-shaped seeds, ``k < 1`` or an unknown
            backend name.
        RuntimeError: ``backend="kdtree"`` without scipy installed.
    """

    __slots__ = (
        "_seeds",
        "_k",
        "_backend",
        "_tree",
        "_cell_lo",
        "_cell_h",
        "_seed_cells",
        "_cells_per_axis",
        "queries",
    )

    def __init__(
        self,
        seeds: PointMatrix,
        k: int | None = None,
        backend: str = "auto",
    ) -> None:
        seeds = np.array(seeds, dtype=np.float64, order="C")
        if seeds.ndim != 2 or seeds.shape[0] == 0:
            raise ValueError(
                f"seeds must be a non-empty (B, d) matrix, got shape "
                f"{seeds.shape}"
            )
        if k is None:
            k = default_candidate_count(seeds.shape[0])
        k = int(k)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._seeds = seeds
        self._k = min(k, seeds.shape[0])
        self.queries = 0
        if backend == "auto":
            backend = "kdtree" if kdtree_available() else "grid"
        if backend == "kdtree":
            if not kdtree_available():
                raise RuntimeError(
                    "SeedIndex backend 'kdtree' requires scipy; install "
                    "the 'spatial' extra or use backend='grid'"
                )
            self._tree = _kdtree_class()(seeds)
        elif backend == "grid":
            self._tree = None
            self._build_grid()
        else:
            raise ValueError(
                f"unknown SeedIndex backend {backend!r}; expected "
                f"'auto', 'kdtree' or 'grid'"
            )
        self._backend = backend

    @property
    def backend(self) -> str:
        """Which backend was selected: ``"kdtree"`` or ``"grid"``."""
        return self._backend

    @property
    def k(self) -> int:
        """Candidate-set size per query point (clamped to ``B``)."""
        return self._k

    @property
    def num_seeds(self) -> int:
        """How many seeds the index covers."""
        return int(self._seeds.shape[0])

    @property
    def dim(self) -> int:
        """Dimensionality of the indexed seeds."""
        return int(self._seeds.shape[1])

    def _build_grid(self) -> None:
        """Bin seeds into cubic cells of side ``h`` (numpy fallback).

        The cell count per axis targets ``B^(1/d)`` so the expected
        occupancy is O(1) seeds per cell on roughly uniform data. A
        degenerate extent (all seeds identical on every axis) leaves
        ``h = 0``; queries then degrade to the everything-is-a-member
        answer, which disables skipping but stays correct.
        """
        seeds = self._seeds
        lo = seeds.min(axis=0)
        span = float((seeds.max(axis=0) - lo).max())
        per_axis = max(
            1, int(round(seeds.shape[0] ** (1.0 / seeds.shape[1])))
        )
        self._cell_lo = lo
        self._cells_per_axis = per_axis
        if span <= 0.0:
            self._cell_h = 0.0
            self._seed_cells = np.zeros(seeds.shape, dtype=np.int64)
            return
        h = span / per_axis
        self._cell_h = h
        self._seed_cells = np.floor((seeds - lo) / h).astype(np.int64)

    def candidates(
        self, points: PointMatrix
    ) -> tuple[np.ndarray, np.ndarray]:
        """Membership mask and gate radii for a block of query points.

        Args:
            points: ``(m, d)`` query block.

        Returns:
            ``(member, gate)`` where ``member`` is an ``(m, B)`` boolean
            mask (``member[i, j]`` — seed ``j`` is one of point ``i``'s
            candidates) and ``gate`` is an ``(m,)`` float array such
            that every non-member seed of point ``i`` is at exact
            distance ``>= gate[i]`` from it. Rows whose mask is all-True
            carry ``gate = 0`` (nothing can be skipped anyway).
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self._seeds.shape[1]:
            raise ValueError(
                f"candidates expects an (m, {self._seeds.shape[1]}) "
                f"matrix, got shape {points.shape}"
            )
        rows = points.shape[0]
        num = self._seeds.shape[0]
        self.queries += rows
        if rows == 0:
            return (
                np.zeros((0, num), dtype=bool),
                np.zeros(0, dtype=np.float64),
            )
        if self._k >= num:
            # Everything is a candidate; no skips are possible.
            return (
                np.ones((rows, num), dtype=bool),
                np.zeros(rows, dtype=np.float64),
            )
        if self._backend == "kdtree":
            return self._candidates_kdtree(points)
        return self._candidates_grid(points)

    def _candidates_kdtree(
        self, points: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        rows = points.shape[0]
        num = self._seeds.shape[0]
        # workers=1 keeps the query single-threaded: bench gates pin
        # BLAS/OpenMP threads, and parallelism lives at the block level.
        dist, idx = self._tree.query(points, k=self._k, workers=1)
        if self._k == 1:
            dist = dist[:, None]
            idx = idx[:, None]
        member = np.zeros((rows, num), dtype=bool)
        member[np.arange(rows)[:, None], idx] = True
        # Ties at the k-th neighbour may leave equally-near seeds out of
        # the member set; their exact distance still equals the k-th
        # distance, so the gate bound holds for them too.
        gate = dist[:, -1] * _GATE_SAFETY
        return member, gate

    def _candidates_grid(
        self, points: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        rows = points.shape[0]
        num = self._seeds.shape[0]
        if self._cell_h == 0.0:
            # Degenerate extent: no usable geometry, disable skipping.
            return (
                np.ones((rows, num), dtype=bool),
                np.zeros(rows, dtype=np.float64),
            )
        h = self._cell_h
        # Cells are clipped to one halo ring around the seed bounding
        # box. Clipping moves an outside point's cell coordinates
        # towards every seed's, so computed cell distances only shrink —
        # the lower bound below stays valid — while keeping coordinate
        # magnitudes O(cells_per_axis) so floor() rounding slack stays
        # far below the 1e-9 gate margin.
        pcell = np.floor((points - self._cell_lo) / h)
        np.clip(pcell, -1, self._cells_per_axis, out=pcell)
        pcell = pcell.astype(np.int64)
        # Chebyshev cell distance, accumulated one axis at a time to
        # keep the temporary at (m, B) instead of (m, B, d).
        cheb = np.abs(
            pcell[:, 0, None] - self._seed_cells[None, :, 0]
        )
        for axis in range(1, points.shape[1]):
            np.maximum(
                cheb,
                np.abs(
                    pcell[:, axis, None]
                    - self._seed_cells[None, :, axis]
                ),
                out=cheb,
            )
        # k-th smallest cell distance per row: members are every seed at
        # cell distance <= R. Any non-member sits at cell distance
        # >= R + 1, hence at true distance >= R·h on some axis.
        radius = np.partition(cheb, self._k - 1, axis=1)[:, self._k - 1]
        member = cheb <= radius[:, None]
        gate = radius.astype(np.float64) * h * _GATE_SAFETY
        return member, gate
