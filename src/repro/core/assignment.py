"""Assignment of points to their closest bubble seed.

Section 3 of the paper speeds up the construction (and incremental
maintenance) of data bubbles by pruning distance computations with the
triangle inequality:

**Lemma 1.** Let ``p`` be a database point and ``s_B1``, ``s_B2`` seeds of
two bubbles. If ``dist(s_B1, s_B2) >= 2 · dist(p, s_B1)`` then
``dist(p, s_B1) <= dist(p, s_B2)`` — so ``s_B2`` can be discarded without
computing ``dist(p, s_B2)``.

:class:`TriangleInequalityAssigner` implements the pseudocode of Figure 2
verbatim (candidate set, random probing, pruning against the current
candidate), on top of a precomputed seed-to-seed distance matrix. Its
:meth:`~TriangleInequalityAssigner.assign_many` is a *blockwise batch
engine*: row tiles of at most ``_TI_TILE_ELEMENTS`` row×seed elements
draw their points' probing permutations in one call each and run the
Figure 2 loop in lockstep, one probe per row per round at a fixed number
of numpy calls per round. It returns bit-identical assignments — and
identical computed/pruned totals — to the scalar :meth:`assign` loop under
the same RNG (see the class docstring for how that equivalence is kept).

:class:`NaiveAssigner` is the unpruned baseline that compares against every
seed; the complete-rebuild experiments of Figure 11 use it.

Both assigners account every conceptual distance computation either as
*computed* or as *pruned* so the experiments of Figures 10–11 can be
reproduced exactly in the paper's own metric. The cost of building the
seed matrix is tracked separately (:attr:`setup_computed`) because the
paper reports the assignment-phase pruning factor net of that (small)
overhead while still acknowledging it.

:class:`AssignerCache` memoizes one assigner (and therefore its O(B²) seed
matrix) across consecutive batch assignments, invalidating only when the
:class:`~repro.core.bubble_set.BubbleSet` actually mutates; the maintainers
use it so a quiet summary never pays the seed matrix twice.

Two optional layers sit under/around the batch engine:

* ``use_seed_index=True`` builds a :class:`~repro.core.seed_index.SeedIndex`
  over the seeds (lazily, on the first batch) and lets the lockstep loop
  *skip* the exact distance to probes the index proves cannot win —
  assignments, RNG stream and total accounting stay bit-identical to the
  plain batch kernel, with skipped probes moving from *computed* into
  *pruned* (sub-total in :attr:`assign_index_pruned`).
* ``workers=N`` with ``N >= 1`` runs the lockstep blocks on a forked
  worker pool under per-block RNG substreams (see
  :mod:`repro.core.parallel`); ``workers=0`` remains the serial,
  main-RNG, bit-reproducible reference path.
"""

from __future__ import annotations

import numpy as np

from ..geometry import DistanceCounter, pairwise
from ..geometry.distance import row_norms
from ..observability.spans import maybe_span
from ..types import Point, PointMatrix
from .parallel import run_blocks
from .seed_index import SeedIndex

__all__ = [
    "Assigner",
    "AssignerCache",
    "NaiveAssigner",
    "TriangleInequalityAssigner",
    "make_assigner",
]

#: Floor for the adaptively sized blocks of
#: :meth:`TriangleInequalityAssigner.assign_many`. A block is the unit
#: of RNG drawing, accounting and (with ``workers >= 1``) parallel work;
#: ``workers >= 1`` results are a function of this partition, so it is
#: fixed here independently of the lockstep tiles below.
DEFAULT_BLOCK_SIZE = 1024

#: Target float64 element count of the temporary ``(rows, B, d)``
#: difference tensor built by :meth:`NaiveAssigner.assign_many` per block
#: (4M elements = 32 MiB).
_NAIVE_BLOCK_ELEMENTS = 1 << 22

#: Row×seed element count of one triangle-inequality block: the
#: adaptive partition is ``max(DEFAULT_BLOCK_SIZE, this // B)`` rows.
_TI_BLOCK_ELEMENTS = 1 << 22

#: Row×seed element budget of one lockstep tile inside a block. Every
#: ``(rows, B)`` array of the kernel (permutations, live mask, Lemma 1
#: gather: 2 MiB of int64 or float64 each) is tile-sized, so memory is
#: bounded without touching the block partition.
_TI_TILE_ELEMENTS = 1 << 18


class Assigner:
    """Common interface: map points to the index of their closest location.

    Args:
        locations: ``(B, d)`` matrix of bubble seeds/representatives.
            Copied defensively — callers may hand in views of live,
            mutating state (e.g. a :class:`BubbleSet`'s cached
            representative matrix).
        counter: shared :class:`DistanceCounter`; a private one is created
            when omitted.
        obs: observability handle; batch kernels run each block under an
            ``assign_block`` span when span tracing is enabled. Mutable
            (:attr:`obs`) so a cached assigner can follow its owner's
            handle without invalidating the cache.
    """

    def __init__(
        self,
        locations: PointMatrix,
        counter: DistanceCounter | None = None,
        obs=None,
    ) -> None:
        locations = np.array(locations, dtype=np.float64, order="C")
        if locations.ndim != 2 or locations.shape[0] == 0:
            raise ValueError(
                f"locations must be a non-empty (B, d) matrix, got shape "
                f"{locations.shape}"
            )
        self._locations = locations
        self._counter = counter if counter is not None else DistanceCounter()
        self._assign_computed = 0
        self._assign_pruned = 0
        self.obs = obs

    @property
    def num_locations(self) -> int:
        """How many candidate locations the assigner chooses among."""
        return int(self._locations.shape[0])

    @property
    def locations(self) -> np.ndarray:
        """The candidate locations (read-only view)."""
        view = self._locations.view()
        view.flags.writeable = False
        return view

    @property
    def counter(self) -> DistanceCounter:
        """The distance counter receiving this assigner's accounting."""
        return self._counter

    @property
    def assign_computed(self) -> int:
        """Distance computations executed during point assignment."""
        return self._assign_computed

    @property
    def assign_pruned(self) -> int:
        """Distance computations avoided during point assignment."""
        return self._assign_pruned

    @property
    def pruned_fraction(self) -> float:
        """Fraction of assignment-phase computations avoided (Figure 10)."""
        considered = self._assign_computed + self._assign_pruned
        if considered == 0:
            return 0.0
        return self._assign_pruned / considered

    def _validated_points(self, points: PointMatrix) -> np.ndarray:
        """Coerce batch input to float64 and reject anything not ``(m, d)``.

        Shape problems must surface *here*, with the expected shape in the
        message — not as an opaque broadcast error from deep inside a
        kernel after part of the batch was already accounted.
        """
        points = np.asarray(points, dtype=np.float64)
        dim = self._locations.shape[1]
        if points.ndim != 2 or points.shape[1] != dim:
            raise ValueError(
                f"assign_many expects an (m, {dim}) matrix of points "
                f"matching the (B, {dim}) locations; got shape "
                f"{points.shape}"
            )
        return points

    def assign(self, point: Point) -> int:
        """Index of the closest location for one point."""
        raise NotImplementedError

    def assign_many(self, points: PointMatrix) -> np.ndarray:
        """Indices of the closest locations for each row of ``points``.

        Subclasses override this with vectorised batch kernels; the base
        implementation is the per-point reference loop.

        Raises:
            ValueError: ``points`` is not an ``(m, d)`` matrix with ``d``
                matching the locations.
        """
        points = self._validated_points(points)
        result = np.empty(points.shape[0], dtype=np.int64)
        for i, point in enumerate(points):
            result[i] = self.assign(point)
        return result


class NaiveAssigner(Assigner):
    """Full-scan nearest-seed assignment (no pruning).

    The baseline of Section 3: "the distance between p and all the seeds
    has to be determined". Every point costs exactly ``B`` distance
    computations.

    :meth:`assign_many` is vectorised but computes the *exact* blockwise
    distances ``‖p − s‖`` through the same reduction kernel as
    :meth:`assign` — not the expanded norm trick ``‖p‖² + ‖s‖² − 2p·s``,
    whose floating-point cancellation can go slightly negative and break
    argmin ties differently from the exact distances. Batch and scalar
    paths therefore always return the same owner, duplicate and
    equidistant seeds included.
    """

    def assign(self, point: Point) -> int:
        dists = self._counter.point_to_points(point, self._locations)
        self._assign_computed += self._locations.shape[0]
        return int(np.argmin(dists))

    def assign_many(self, points: PointMatrix) -> np.ndarray:
        # Vectorised and identically accounted: m · B computations.
        points = self._validated_points(points)
        num_points = points.shape[0]
        result = np.empty(num_points, dtype=np.int64)
        if num_points == 0:
            return result
        locations = self._locations
        num, dim = locations.shape
        count = num_points * num
        self._counter.record_computed(count)
        self._assign_computed += count
        block = max(1, _NAIVE_BLOCK_ELEMENTS // (num * dim))
        for start in range(0, num_points, block):
            chunk = points[start : start + block]
            with maybe_span(
                self.obs, "assign_block", points=chunk.shape[0]
            ):
                # (rows, B, d) difference tensor, reduced row-by-row
                # through the exact same kernel assign() uses —
                # bit-identical floats, hence bit-identical argmin
                # tie-breaks.
                diff = chunk[:, None, :] - locations[None, :, :]
                dists = row_norms(diff.reshape(-1, dim)).reshape(
                    chunk.shape[0], num
                )
                result[start : start + chunk.shape[0]] = np.argmin(
                    dists, axis=1
                )
        return result


class TriangleInequalityAssigner(Assigner):
    """Lemma 1 pruning assigner — the pseudocode of Figure 2.

    On construction the pairwise distances among all locations are computed
    once (``B·(B-1)/2`` computations, tracked in :attr:`setup_computed`).
    Per point, candidates are pruned against the current best candidate
    ``s_c``: every remaining seed ``s_j`` with
    ``dist(s_j, s_c) >= 2 · minDist`` cannot be closer than ``s_c`` and is
    discarded without a distance computation.

    **Batch engine.** :meth:`assign_many` runs the same Figure 2 loop over
    blocks of points in lockstep, tile by tile: per tile it draws each
    point's random probing permutation from the shared RNG (one
    Fisher–Yates draw per point, in point order — exactly the stream the
    scalar loop consumes, so scalar and batch calls interleave
    reproducibly), then alternates a vectorised Lemma 1 prune (a gather
    from the cached seed-to-seed matrix, compared and ANDed into a
    live-slot mask kept in permutation order) with a vectorised probe
    (each row's rightmost live slot, one exact distance per row) until
    every point's candidate set is exhausted. Every round costs a fixed
    number of numpy calls.
    Assignments are bit-identical to the scalar loop and the
    computed/pruned totals — accumulated per block, recorded once per
    block — match the scalar accounting exactly (see
    :meth:`_assign_tile` for why).

    **Setup accounting contract.** :attr:`setup_computed` *always* reports
    the ``B·(B-1)/2`` cost of the seed matrix, in both ``count_setup``
    modes; the flag only controls whether that cost is *additionally*
    recorded into the shared ``counter``. Figure-10 aggregation relies on
    attribute and counter agreeing when ``count_setup=True`` and on the
    counter staying at zero (pre-assignment) when ``count_setup=False``.

    **Spatial skip layer.** With ``use_seed_index=True`` the engine
    builds a :class:`~repro.core.seed_index.SeedIndex` on the first
    batch and asks it, per block, for each point's candidate mask and a
    gate radius ``g`` bounding every non-candidate's distance from
    below. A probe is skipped — no exact distance — exactly when it is
    a non-candidate *and* the row's ``minDist <= g``: the skipped
    distance is ``>= g >= minDist`` and the update rule is a strict
    ``<``, so the probe could not have changed ``current``, ``minDist``
    or any later Lemma-1 test. Probing order (hence the RNG stream),
    assignments and tie-breaks are therefore bit-identical to the plain
    batch kernel; each skip converts one *computed* distance into a
    *pruned* one, so total accounting is conserved and the computed
    count is provably ``<=`` the plain kernel's on every input. The
    scalar :meth:`assign` never consults the index — it stays the
    pure Figure 2 reference the batch engine is tested against.

    **Parallel blocks.** With ``workers >= 1``, :meth:`assign_many`
    draws one 64-bit entropy value from the main RNG (a single draw per
    call, regardless of size) and runs its lockstep blocks as
    independent tasks under per-block substreams — results are a pure
    function of the block partition and that draw, so every
    ``workers >= 1`` value produces identical output and worker count
    only changes wall-clock (see :mod:`repro.core.parallel`).
    ``workers=0`` is the serial reference: blocks consume the main RNG
    in point order, bit-identical to the scalar loop.

    Args:
        locations: ``(B, d)`` seed matrix.
        counter: shared distance counter.
        rng: randomness source for the random candidate probing of
            Figure 2; a fresh default generator is used when omitted.
        count_setup: whether the seed-matrix construction cost is also
            recorded into ``counter`` (it always shows in
            :attr:`setup_computed`).
        block_size: points processed per block by :meth:`assign_many`;
            ``None`` (the default) sizes blocks adaptively from a fixed
            permutation element budget. The blocking never changes
            results with ``workers=0`` — only memory and per-block
            overhead. With ``workers >= 1`` results are a pure function
            of the partition (still independent of worker count).
        use_seed_index: build a spatial candidate index and let the
            batch engine skip provably hopeless probes (see the class
            docstring). Off by default — the plain kernel is the
            scalar-parity reference.
        index_k: candidate-set size for the seed index; ``None`` uses
            :func:`~repro.core.seed_index.default_candidate_count`.
        index_backend: ``"auto"`` / ``"kdtree"`` / ``"grid"`` — see
            :class:`~repro.core.seed_index.SeedIndex`.
        workers: worker-pool size for :meth:`assign_many`; ``0`` (the
            default) is the serial bit-reproducible reference path.
    """

    def __init__(
        self,
        locations: PointMatrix,
        counter: DistanceCounter | None = None,
        rng: np.random.Generator | None = None,
        count_setup: bool = True,
        block_size: int | None = None,
        obs=None,
        use_seed_index: bool = False,
        index_k: int | None = None,
        index_backend: str = "auto",
        workers: int = 0,
    ) -> None:
        super().__init__(locations, counter, obs=obs)
        if block_size is not None and block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self._rng = rng if rng is not None else np.random.default_rng()
        self._seed_dists = pairwise(self._locations)
        self._block_size = None if block_size is None else int(block_size)
        self._use_seed_index = bool(use_seed_index)
        self._index_k = None if index_k is None else int(index_k)
        self._index_backend = str(index_backend)
        self._seed_index: SeedIndex | None = None
        self._workers = int(workers)
        self._assign_index_pruned = 0
        b = self._locations.shape[0]
        self._setup_computed = b * (b - 1) // 2
        if count_setup:
            self._counter.record_computed(self._setup_computed)

    @property
    def setup_computed(self) -> int:
        """Distance computations spent on the seed-to-seed matrix.

        Reported unconditionally — the matrix is always built — even when
        ``count_setup=False`` kept the cost out of the shared counter.
        """
        return self._setup_computed

    @property
    def workers(self) -> int:
        """Worker-pool size used by :meth:`assign_many` (0 = serial)."""
        return self._workers

    @property
    def assign_index_pruned(self) -> int:
        """Probes skipped by the spatial index (subset of pruned).

        Every skip is also counted in :attr:`assign_pruned` — the index
        converts computed distances into pruned ones without changing
        the computed + pruned total.
        """
        return self._assign_index_pruned

    @property
    def seed_index(self) -> SeedIndex | None:
        """The lazily built spatial index, or ``None`` before first use."""
        return self._seed_index

    def assign(self, point: Point) -> int:
        locations = self._locations
        num = locations.shape[0]
        if num == 1:
            self._counter.record_computed(1)
            self._assign_computed += 1
            return 0

        # "set CandidateSeeds to the set of all seeds of data bubbles"
        order = self._rng.permutation(num)
        candidates = order.tolist()

        # "select and remove a random seed s_i ... compute minDist"
        current = candidates.pop()
        min_dist = float(row_norms(locations[current : current + 1] - point)[0])
        computed = 1

        pruned = 0
        remaining = np.asarray(candidates, dtype=np.int64)
        while remaining.size:
            # Prune every s_j with dist(s_j, s_c) >= 2 · minDist (Lemma 1).
            keep_mask = self._seed_dists[current, remaining] < 2.0 * min_dist
            pruned += int(remaining.size - keep_mask.sum())
            remaining = remaining[keep_mask]
            if remaining.size == 0:
                break
            # "select and remove a random seed s_j; compute dist(p, s_j)"
            # `remaining` preserves the initial random permutation, so
            # popping the last element is a uniformly random probe.
            probe = int(remaining[-1])
            remaining = remaining[:-1]
            dist = float(row_norms(locations[probe : probe + 1] - point)[0])
            computed += 1
            if dist < min_dist:
                current = probe
                min_dist = dist

        self._counter.record_computed(computed)
        self._counter.record_pruned(pruned)
        self._assign_computed += computed
        self._assign_pruned += pruned
        return current

    def assign_many(self, points: PointMatrix) -> np.ndarray:
        points = self._validated_points(points)
        num_points = points.shape[0]
        result = np.empty(num_points, dtype=np.int64)
        if num_points == 0:
            # No RNG draw in either mode: empty batches are invisible
            # to both the main stream and the substream contract.
            return result
        num = self._locations.shape[0]
        if num == 1:
            # Matches assign(): one computed distance per point, and the
            # RNG is never consulted (there is nothing to probe).
            self._counter.record_computed(num_points)
            self._assign_computed += num_points
            result[:] = 0
            return result
        if self._use_seed_index and self._seed_index is None:
            self._seed_index = SeedIndex(
                self._locations,
                k=self._index_k,
                backend=self._index_backend,
            )
        block = self._block_size
        if block is None:
            block = max(DEFAULT_BLOCK_SIZE, _TI_BLOCK_ELEMENTS // num)
        if self._workers >= 1:
            return self._assign_many_parallel(points, result, block)
        for start in range(0, num_points, block):
            chunk = points[start : start + block]
            with maybe_span(
                self.obs, "assign_block", points=chunk.shape[0]
            ):
                result[start : start + chunk.shape[0]] = self._assign_block(
                    chunk
                )
        return result

    def _assign_many_parallel(
        self, points: np.ndarray, result: np.ndarray, block: int
    ) -> np.ndarray:
        """Run the lockstep blocks as parallel tasks and merge in order.

        One 64-bit entropy draw from the main RNG per call — never more,
        never fewer — keeps the main stream's advance independent of
        input size, block partition and worker count; each block then
        runs under its :func:`~repro.core.parallel.block_rng` substream.
        Children cannot touch the parent's counters, so the per-block
        (computed, pruned, index-pruned) tallies travel back with the
        indices and are recorded here once, in block order.
        """
        num_points = points.shape[0]
        blocks = [
            (start, min(start + block, num_points))
            for start in range(0, num_points, block)
        ]
        entropy = int(
            self._rng.integers(0, 2**64, dtype=np.uint64)
        )
        with maybe_span(
            self.obs,
            "assign_parallel",
            points=num_points,
            workers=self._workers,
            blocks=len(blocks),
        ):
            outputs = run_blocks(
                self._assign_block_task,
                points,
                blocks,
                entropy,
                self._workers,
            )
        computed = 0
        lemma_pruned = 0
        index_pruned = 0
        for (start, stop), out in zip(blocks, outputs):
            indices, block_computed, block_lemma, block_index = out
            result[start:stop] = indices
            computed += block_computed
            lemma_pruned += block_lemma
            index_pruned += block_index
        self._record_block(computed, lemma_pruned, index_pruned)
        return result

    def _record_block(
        self, computed: int, lemma_pruned: int, index_pruned: int
    ) -> None:
        """Fold one block's tallies into the counter and attributes.

        Index skips count as pruned — same conservation law as Lemma 1:
        ``computed + pruned`` per point always sums to ``B``.
        """
        pruned = lemma_pruned + index_pruned
        self._counter.record_computed(int(computed))
        self._counter.record_pruned(int(pruned))
        self._assign_computed += int(computed)
        self._assign_pruned += int(pruned)
        self._assign_index_pruned += int(index_pruned)

    def _assign_block(self, points: np.ndarray) -> np.ndarray:
        """Serial per-block wrapper: main RNG, immediate accounting."""
        member, gate = self._index_candidates(points)
        indices, computed, lemma_pruned, index_pruned = (
            self._assign_block_core(
                points, self._rng, member, gate
            )
        )
        # Block-granular accounting: totals identical to per-point
        # scalar recording, at two counter calls per block instead of 2m.
        self._record_block(computed, lemma_pruned, index_pruned)
        return indices

    def _assign_block_task(
        self, points: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, int, int, int]:
        """Pure per-block task for the parallel runner.

        Runs in a forked child (or inline under ``workers=1``): derives
        the block's candidates, runs the lockstep core under the given
        substream and returns the tallies instead of recording them —
        the parent owns the shared counter.
        """
        member, gate = self._index_candidates(points)
        return self._assign_block_core(points, rng, member, gate)

    def _index_candidates(
        self, points: np.ndarray
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Per-block (membership, gate) from the seed index, if any."""
        if self._seed_index is None:
            return None, None
        return self._seed_index.candidates(points)

    def _assign_block_core(
        self,
        points: np.ndarray,
        rng: np.random.Generator,
        member: np.ndarray | None = None,
        gate: np.ndarray | None = None,
    ) -> tuple[np.ndarray, int, int, int]:
        """Figure 2 in lockstep over one block of points.

        Runs :meth:`_assign_tile` over consecutive row tiles of at most
        ``_TI_TILE_ELEMENTS`` row×seed elements. Tiles draw their
        permutations in point order and nothing else consumes ``rng``,
        so the stream is the scalar loop's whatever the tile size.
        Tiling bounds every ``(rows, B)`` array without changing any
        result; the block partition itself (which ``workers >= 1``
        results depend on) is the caller's.

        Returns:
            ``(indices, computed, lemma_pruned, index_pruned)`` — the
            block's assignments plus its accounting tallies. The caller
            records them (serial: immediately; parallel: merged in the
            parent), keeping this core pure enough to run in a forked
            worker against copy-on-write state.
        """
        rows = points.shape[0]
        indices = np.empty(rows, dtype=np.int64)
        computed = pruned = index_pruned = 0
        tile = max(1, _TI_TILE_ELEMENTS // self._locations.shape[0])
        for start in range(0, rows, tile):
            rows_in = slice(start, start + tile)
            current, tile_computed, tile_pruned, tile_index = (
                self._assign_tile(
                    points[rows_in],
                    rng,
                    None if member is None else member[rows_in],
                    None if gate is None else gate[rows_in],
                )
            )
            indices[rows_in] = current
            computed += tile_computed
            pruned += tile_pruned
            index_pruned += tile_index
        return indices, computed, pruned, index_pruned

    def _assign_tile(
        self,
        points: np.ndarray,
        rng: np.random.Generator,
        member: np.ndarray | None,
        gate: np.ndarray | None,
    ) -> tuple[np.ndarray, int, int, int]:
        """The lockstep rounds of Figure 2 over one tile of rows.

        ``live[r, k]`` says whether slot ``k`` of row ``r``'s permutation
        ``cand[r]`` is still in the scalar loop's candidate list. The
        scalar loop compacts that list in permutation order and pops its
        tail, so its next probe is the row's *rightmost live slot*. Each
        round therefore costs a fixed number of numpy calls, whatever
        the gaps between live slots: ``any`` retires rows with no
        candidate left, ``argmax`` over the reversed rows finds the
        probe, one exact distance per surviving row updates
        ``(current, minDist)``. The number of rounds is the largest
        probe count in the tile.

        The Lemma 1 prune runs on the rows whose probe just *improved*
        ``minDist`` (plus every row once, after the first probe): the
        seed-matrix row of ``current`` gathered in permutation order,
        compared against ``2 · minDist`` and ANDed into ``live``. A row
        whose ``(current, minDist)`` did not change would repeat a test
        every live candidate already passed, so skipping it changes
        nothing. A cleared slot never returns, so each prune counts
        exactly the live candidates it clears, and a probed slot leaves
        ``live`` at probe time — accounting matches the scalar loop pass
        for pass.

        **Spatial collapse (``member``/``gate`` given).** The moment a
        row's ``minDist`` drops to ``<= gate``, every one of its live
        non-member slots is cleared in one masked AND and tallied as
        index-pruned. Each cleared seed is provably inert: its exact
        distance is ``>= gate >= minDist``, so its probe could not
        improve the row under the strict ``<`` update, and a probe that
        does not improve ``minDist`` changes nothing else — not the
        probing order of the other candidates (the permutations are
        drawn up front), not the Lemma 1 dynamics (only improvements
        re-enter the prune), not the RNG. Assignments and the RNG stream
        stay bit-identical to the plain kernel. Accounting is conserved:
        per point ``computed + lemma_pruned + index_pruned`` still sums
        to ``B``, and the computed count is ``<=`` the plain kernel's
        (every cleared seed would have cost a computed probe or a
        Lemma 1 prune there).
        """
        rows = points.shape[0]
        num = self._locations.shape[0]
        last = num - 1
        locations = self._locations
        seed_dists = self._seed_dists

        # One probing permutation per point, in point order.
        # ``Generator.permutation(n)`` is ``arange(n)`` + ``shuffle``, and
        # ``permuted(axis=1)`` shuffles row after row with the same draws
        # ``shuffle`` makes: one call yields the scalar loop's stream.
        cand = np.empty((rows, num), dtype=np.int64)
        cand[:] = np.arange(num)
        rng.permuted(cand, axis=1, out=cand)

        # "select and remove a random seed s_i": the scalar loop pops the
        # permutation's last element first.
        current = cand[:, last].copy()
        min_dist = row_norms(locations[current] - points)
        computed = rows
        pruned = 0
        index_pruned = 0

        live = np.ones((rows, num), dtype=bool)
        live[:, last] = False
        alive = np.arange(rows)
        to_prune = alive
        # Rows that have not yet collapsed to their spatial candidate
        # set; None when no index is in play.
        uncollapsed = None if member is None else np.ones(rows, dtype=bool)

        while True:
            if to_prune.size:
                if uncollapsed is not None:
                    # Spatial collapse: rows whose minDist just reached
                    # the gate keep only their index members.
                    gated = to_prune[
                        uncollapsed[to_prune]
                        & (min_dist[to_prune] <= gate[to_prune])
                    ]
                    if gated.size:
                        keep = member[gated[:, None], cand[gated]]
                        lv = live[gated]
                        index_pruned += int(np.count_nonzero(lv & ~keep))
                        live[gated] = lv & keep
                        uncollapsed[gated] = False
                # Lemma 1 in permutation order: slot k survives while
                # dist(s_cand[k], s_c) < 2 · minDist.
                keep = (
                    seed_dists[current[to_prune, None], cand[to_prune]]
                    < 2.0 * min_dist[to_prune, None]
                )
                lv = live[to_prune]
                pruned += int(np.count_nonzero(lv & ~keep))
                live[to_prune] = lv & keep

            # Rows with no live slot left are done (their scalar loop
            # would see an empty candidate list).
            lv = live[alive]
            has = lv.any(axis=1)
            alive = alive[has]
            if alive.size == 0:
                break

            # Probe each survivor's rightmost live slot — the tail the
            # scalar loop pops.
            pos = last - np.argmax(lv[has, ::-1], axis=1)
            probes = cand[alive, pos]
            live[alive, pos] = False
            dists = row_norms(locations[probes] - points[alive])
            computed += alive.size
            better = dists < min_dist[alive]
            improved = alive[better]
            current[improved] = probes[better]
            min_dist[improved] = dists[better]
            to_prune = improved

        return current, int(computed), int(pruned), index_pruned


class AssignerCache:
    """Reuses one assigner while the bubble set it reflects is unchanged.

    Building a :class:`TriangleInequalityAssigner` costs the ``B·(B-1)/2``
    seed-to-seed matrix; maintainers that assign several batches against
    an unchanged summary (or run several redistribution steps against the
    same candidate set) should not pay it repeatedly. The cache keys on
    the :attr:`BubbleSet.version <repro.core.bubble_set.BubbleSet.version>`
    mutation counter plus the candidate id subset and the pruning flag, so
    any mutation of any bubble — absorb, release, reseed, clear, restore —
    invalidates it.

    The shared ``counter`` and ``rng`` are captured at construction of the
    cached assigner; callers must pass the same objects on every ``get``
    (the maintainers do — both live for the maintainer's lifetime).
    Accounting note: a cache *hit* spends no setup distance computations,
    and honestly records none.
    """

    __slots__ = ("_key", "_assigner", "hits", "misses")

    def __init__(self) -> None:
        self._key: tuple | None = None
        self._assigner: Assigner | None = None
        self.hits = 0
        self.misses = 0

    def invalidate(self) -> None:
        """Drop the cached assigner unconditionally."""
        self._key = None
        self._assigner = None

    def get(
        self,
        bubbles,
        counter: DistanceCounter,
        use_triangle_inequality: bool = True,
        rng: np.random.Generator | None = None,
        active_ids: np.ndarray | list | None = None,
        obs=None,
        use_seed_index: bool = False,
        workers: int = 0,
    ) -> Assigner:
        """The cached assigner, rebuilt only when the bubble set changed.

        Args:
            bubbles: the :class:`~repro.core.bubble_set.BubbleSet` whose
                representatives are the candidate locations.
            counter, use_triangle_inequality, rng: as for
                :func:`make_assigner`.
            active_ids: optional id subset to assign among (e.g. the
                adaptive maintainer's non-retired bubbles, or a merge's
                everything-but-the-donor set); ``None`` means all bubbles.
            obs: observability handle stamped onto the assigner (hit or
                miss) so block spans follow the caller; deliberately NOT
                part of the cache key — instrumentation must never change
                cache behaviour.
            use_seed_index, workers: as for :func:`make_assigner`; part
                of the cache key, so flipping either rebuilds the
                assigner. A cache hit also reuses the assigner's lazily
                built :class:`~repro.core.seed_index.SeedIndex` — this
                is how the index stays keyed on ``bubbles.version``
                without its own invalidation machinery.
        """
        key = (
            bubbles.version,
            None
            if active_ids is None
            else tuple(int(i) for i in active_ids),
            bool(use_triangle_inequality),
            bool(use_seed_index),
            int(workers),
        )
        if self._assigner is not None and key == self._key:
            self.hits += 1
            self._assigner.obs = obs
            return self._assigner
        reps = bubbles.reps()
        if active_ids is not None:
            reps = reps[np.asarray(active_ids, dtype=np.int64)]
        self._assigner = make_assigner(
            reps,
            counter=counter,
            use_triangle_inequality=use_triangle_inequality,
            rng=rng,
            obs=obs,
            use_seed_index=use_seed_index,
            workers=workers,
        )
        self._key = key
        self.misses += 1
        return self._assigner


def make_assigner(
    locations: PointMatrix,
    counter: DistanceCounter | None = None,
    use_triangle_inequality: bool = True,
    rng: np.random.Generator | None = None,
    obs=None,
    use_seed_index: bool = False,
    workers: int = 0,
) -> Assigner:
    """Factory selecting the pruning or naive assigner.

    Single-location sets short-circuit to the naive assigner — with one
    seed there is nothing to prune (``use_seed_index`` and ``workers``
    are meaningless there and are ignored).
    """
    locations = np.asarray(locations, dtype=np.float64)
    if use_triangle_inequality and locations.shape[0] > 1:
        return TriangleInequalityAssigner(
            locations,
            counter,
            rng,
            obs=obs,
            use_seed_index=use_seed_index,
            workers=workers,
        )
    return NaiveAssigner(locations, counter, obs=obs)
