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
:meth:`~TriangleInequalityAssigner.assign_many` is the one batch path:
row tiles of at most ``_TI_TILE_ELEMENTS`` row×seed elements draw their
points' probing permutations in one call each and run the Figure 2 loop
in lockstep, one probe per row per round at a fixed number of numpy
calls per round, until the last few rows finish one by one. It returns
bit-identical assignments — and identical computed/pruned totals — to
the scalar :meth:`assign` loop under the same RNG (see the class
docstring for how that equivalence is kept).

:class:`NaiveAssigner` is the unpruned baseline that compares against every
seed; the complete-rebuild experiments of Figure 11 use it.

Both assigners account every conceptual distance computation either as
*computed* or as *pruned* so the experiments of Figures 10–11 can be
reproduced exactly in the paper's own metric. The cost of building the
seed matrix is tracked separately (:attr:`setup_computed`) because the
paper reports the assignment-phase pruning factor net of that (small)
overhead while still acknowledging it.

:class:`AssignerCache` keeps one seed matrix per maintainer across
batches: exact distances between base representatives, and lower bounds
corrected for how far each representative drifted since (Elkan's
centre-drift bound). Lemma 1 against those bounds prunes a subset of what
the exact matrix prunes and picks the same closest seed, so a maintainer
pays a distance per moved representative, and a row now and then,
instead of the O(B²) matrix per batch.
"""

from __future__ import annotations

import numpy as np

from ..geometry import DistanceCounter, pairwise
from ..geometry.distance import row_norms
from ..observability.spans import maybe_span
from ..types import Point, PointMatrix

__all__ = [
    "Assigner",
    "AssignerCache",
    "NaiveAssigner",
    "TriangleInequalityAssigner",
    "make_assigner",
]

#: Target float64 element count of the temporary ``(rows, B, d)``
#: difference tensor built by :meth:`NaiveAssigner.assign_many` per block
#: (4M elements = 32 MiB).
_NAIVE_BLOCK_ELEMENTS = 1 << 22

#: Row×seed element budget of one lockstep tile of
#: :meth:`TriangleInequalityAssigner.assign_many`. Every ``(rows, B)``
#: array of the kernel (permutations, probe key, Lemma 1 gather: at most
#: 2 MiB each) is tile-sized, so memory stays bounded whatever the batch
#: size; results do not depend on it.
_TI_TILE_ELEMENTS = 1 << 18

#: Live rows at or below which a tile leaves its lockstep rounds and
#: finishes each row with its own Figure 2 loop. The rows that outlast
#: the rest are mostly points Lemma 1 cannot prune for (noise far from
#: every seed probes nearly all of them), and a lockstep round costs a
#: fixed number of numpy calls however few rows it serves. On captured
#: ``cluster_live`` calls (32 points, 250 seeds, d = 8), values from 2
#: to 8 were within 12% of each other; results do not depend on it.
_TI_SERIAL_ROWS = 4

#: Share of a kept row's nearest-seed distance its representative may
#: drift before :class:`AssignerCache` rebases the row. A drift ``δ``
#: loosens each of the row's bounds by ``δ``: rebasing early spends
#: distances on rows, rebasing late on probes, which cost kernel time
#: too. ``perfbench`` ``cluster_live`` (seed 1) at ⅛ / ¼ / ½ / 1 / never
#: counted 460.7 / 438.9 / 432.0 / 431.2 / 441.1 distances per point,
#: and the probes' pruned share read 0.840 at ¼, 0.837 at ½, 0.834 at 1
#: and 0.791 never. Assignments do not depend on it.
_REBASE_FRACTION = 0.25


class Assigner:
    """Common interface: map points to the index of their closest location.

    Args:
        locations: ``(B, d)`` matrix of bubble seeds/representatives.
            Copied defensively — callers may hand in views of live,
            mutating state (e.g. a :class:`BubbleSet`'s cached
            representative matrix).
        counter: shared :class:`DistanceCounter`; a private one is created
            when omitted.
        obs: observability handle; batch kernels run each block or tile
            under an ``assign_block`` span when span tracing is enabled.
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

    **The seed matrix** is exact for an assigner built here. One served by
    :class:`AssignerCache` holds lower bounds of the seed distances
    instead, which the cache keeps across batches and neither this class
    recomputes nor counts (``setup_computed`` is 0). The test
    ``bound >= 2 · minDist`` still implies Lemma 1's premise, so it prunes
    a subset of what the exact matrix prunes and every point still gets
    its closest seed; the kernel reads either matrix alike.

    **Batch engine.** :meth:`assign_many` runs the same Figure 2 loop
    over the points in lockstep, tile by tile: per tile it draws each
    point's random probing permutation from the shared RNG (one
    Fisher–Yates draw per point, in point order — exactly the stream the
    scalar loop consumes, so scalar and batch calls interleave
    reproducibly, whatever the tile size), turns them into a per-row
    probe key indexed by seed id, then alternates a vectorised Lemma 1
    prune (a row of the seed matrix, compared and masked into the key)
    with a vectorised probe (each row's key ``argmax``, one exact
    distance per row). Every round costs a fixed number of numpy calls;
    the last few rows finish one by one.
    Assignments are bit-identical to the scalar loop and the
    computed/pruned totals — accumulated per tile, recorded once per
    call — match the scalar accounting exactly (see
    :meth:`_assign_tile` for why).

    **Setup accounting contract.** :attr:`setup_computed` *always* reports
    the ``B·(B-1)/2`` cost of the seed matrix, in both ``count_setup``
    modes; the flag only controls whether that cost is *additionally*
    recorded into the shared ``counter``. Figure-10 aggregation relies on
    attribute and counter agreeing when ``count_setup=True`` and on the
    counter staying at zero (pre-assignment) when ``count_setup=False``.

    Args:
        locations: ``(B, d)`` seed matrix.
        counter: shared distance counter.
        rng: randomness source for the random candidate probing of
            Figure 2; a fresh default generator is used when omitted.
        count_setup: whether the seed-matrix construction cost is also
            recorded into ``counter`` (it always shows in
            :attr:`setup_computed`).
    """

    def __init__(
        self,
        locations: PointMatrix,
        counter: DistanceCounter | None = None,
        rng: np.random.Generator | None = None,
        count_setup: bool = True,
        obs=None,
    ) -> None:
        super().__init__(locations, counter, obs=obs)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._seed_dists = pairwise(self._locations)
        b = self._locations.shape[0]
        self._setup_computed = b * (b - 1) // 2
        if count_setup:
            self._counter.record_computed(self._setup_computed)

    @classmethod
    def _with_bounds(
        cls,
        locations: np.ndarray,
        seed_dists: np.ndarray,
        counter: DistanceCounter,
        rng: np.random.Generator | None,
        obs,
    ) -> "TriangleInequalityAssigner":
        """An assigner pruning on ``seed_dists``, an :class:`AssignerCache`'s
        lower bounds, read in place: valid until the cache's next ``get``."""
        self = cls.__new__(cls)
        Assigner.__init__(self, locations, counter, obs=obs)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._seed_dists = seed_dists
        self._setup_computed = 0
        return self

    @property
    def setup_computed(self) -> int:
        """Distance computations spent on the seed-to-seed matrix.

        Reported unconditionally — the matrix is always built — even when
        ``count_setup=False`` kept the cost out of the shared counter; 0
        for an assigner served by :class:`AssignerCache`, whose distances
        the cache counts.
        """
        return self._setup_computed

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
            # No RNG draw: empty batches are invisible to the stream.
            return result
        num = self._locations.shape[0]
        if num == 1:
            # Matches assign(): one computed distance per point, and the
            # RNG is never consulted (there is nothing to probe).
            self._counter.record_computed(num_points)
            self._assign_computed += num_points
            result[:] = 0
            return result
        # Tiles draw their permutations in point order and nothing else
        # consumes the RNG, so the stream is the scalar loop's whatever
        # the tile size: tiling bounds memory without changing a result.
        tile = max(1, _TI_TILE_ELEMENTS // num)
        computed = pruned = 0
        for start in range(0, num_points, tile):
            chunk = points[start : start + tile]
            with maybe_span(
                self.obs, "assign_block", points=chunk.shape[0]
            ):
                current, tile_computed, tile_pruned = self._assign_tile(
                    chunk, self._rng
                )
            result[start : start + chunk.shape[0]] = current
            computed += tile_computed
            pruned += tile_pruned
        # Call-granular accounting: totals identical to per-point scalar
        # recording, at two counter calls per call instead of 2m.
        self._counter.record_computed(computed)
        self._counter.record_pruned(pruned)
        self._assign_computed += computed
        self._assign_pruned += pruned
        return result

    def _assign_tile(
        self, points: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, int, int]:
        """The lockstep rounds of Figure 2 over one tile of rows.

        ``key[r, s]`` is seed ``s``'s slot in row ``r``'s probing
        permutation while ``s`` is still in the scalar loop's candidate
        list, and −1 once it was probed or pruned. The scalar loop keeps
        that list in permutation order and pops its tail, so its next
        probe is the candidate with the highest slot: one ``argmax`` per
        round finds every row's probe (a row whose maximum is −1 has no
        candidate left and is done), and one exact distance per live row
        updates ``(current, minDist)``.

        The Lemma 1 prune runs on the rows whose probe just *improved*
        ``minDist`` (plus every row once, after the first probe): the
        seed-matrix row of ``current`` is compared against ``2 · minDist``
        with the scalar loop's ``<``, and every seed that fails leaves
        the key. A row whose ``(current, minDist)`` did not change would
        repeat a test every candidate already passed, so skipping it
        changes nothing, and a seed that is out stays out.

        Finished rows leave the key only once the live rows have halved,
        so most rounds index it whole. Rounds go on while more than
        ``_TI_SERIAL_ROWS`` rows are live; each row still live then
        finishes with its own loop (:meth:`_finish_row`), because a
        lockstep round for a few rows costs more than their probes do.

        Every seed of a row is probed or pruned exactly once, as in the
        scalar loop, so the tile's pruned total is ``rows · B − computed``.

        Returns:
            ``(indices, computed, pruned)`` — the tile's assignments and
            its accounting tallies, which the caller records.
        """
        rows = points.shape[0]
        num = self._locations.shape[0]
        locations = self._locations
        seed_dists = self._seed_dists

        # One probing permutation per point, in point order.
        # ``Generator.permutation(n)`` is ``arange(n)`` + ``shuffle``, and
        # ``permuted(axis=1)`` shuffles row after row with the same draws
        # ``shuffle`` makes: one call yields the scalar loop's stream.
        cand = np.empty((rows, num), dtype=np.int64)
        cand[:] = np.arange(num)
        rng.permuted(cand, axis=1, out=cand)
        tile_rows = np.arange(rows)
        key = np.empty((rows, num), dtype=np.int32)
        key[tile_rows[:, None], cand] = np.arange(num, dtype=np.int32)

        # "select and remove a random seed s_i": the scalar loop pops the
        # permutation's last element first.
        current = cand[:, -1].copy()
        del cand
        key[tile_rows, current] = -1
        min_dist = row_norms(locations[current] - points)
        computed = rows
        np.putmask(
            key, ~(seed_dists[current] < 2.0 * min_dist[:, None]), -1
        )

        # ``index[k]`` is the tile row held in key row ``k``.
        index = key_rows = tile_rows
        while True:
            probes = key.argmax(axis=1)
            live = key[key_rows, probes] >= 0
            count = int(np.count_nonzero(live))
            if count <= _TI_SERIAL_ROWS:
                for k in np.flatnonzero(live):
                    r = index[k]
                    current[r], probed = self._finish_row(
                        points[r : r + 1], current[r], min_dist[r], key[k]
                    )
                    computed += probed
                break
            if count < key_rows.size:
                sel = live.nonzero()[0]
                probes = probes[sel]
                if 2 * count <= key_rows.size:
                    key = key[sel]
                    index = index[sel]
                    sel = key_rows = np.arange(count)
            else:
                sel = key_rows
            owner = index[sel]

            key[sel, probes] = -1
            dists = row_norms(locations[probes] - points[owner])
            computed += count
            better = dists < min_dist[owner]
            if np.count_nonzero(better):
                improved = owner[better]
                best = probes[better]
                best_dist = dists[better]
                current[improved] = best
                min_dist[improved] = best_dist
                at = sel[better]
                key[at] = np.where(
                    seed_dists[best] < 2.0 * best_dist[:, None], key[at], -1
                )

        return current, int(computed), int(rows * num - computed)

    def _finish_row(
        self,
        point: np.ndarray,
        current: int,
        min_dist: float,
        key_row: np.ndarray,
    ) -> tuple[int, int]:
        """Figure 2's loop for one row, from its lockstep state.

        ``point`` is the row's ``(1, d)`` point and ``key_row`` holds its
        candidates as :meth:`_assign_tile` keeps them. They are probed
        from the highest slot down — the scalar loop's tail pop — at one
        exact distance each, and Lemma 1 prunes after each improvement.

        Returns:
            ``(current, computed)`` — the row's assignment and the
            distances its probes computed.
        """
        locations = self._locations
        seed_dists = self._seed_dists
        candidates = np.flatnonzero(key_row >= 0)
        remaining = candidates[np.argsort(key_row[candidates])]
        computed = 0
        while remaining.size:
            # A Python int slices faster than a numpy one.
            probe = int(remaining[-1])
            remaining = remaining[:-1]
            dist = float(row_norms(locations[probe : probe + 1] - point)[0])
            computed += 1
            if dist < min_dist:
                current = probe
                min_dist = dist
                remaining = remaining[
                    seed_dists[current, remaining] < 2.0 * min_dist
                ]
        return current, computed


class AssignerCache:
    """One Lemma 1 seed matrix per maintainer, kept across batches.

    A maintainer assigns right after mutating its set (a batch's
    deletions release statistics before its insertions are assigned, a
    merge empties its donor first), so an exact seed matrix is stale at
    every call and would cost ``K·(K−1)/2`` distances each time. The
    keeper holds, for all ``K`` bubbles of the set:

    * the base representatives ``R0`` and their exact distances ``D0``;
    * each row's drift ``δ_i = ‖r_i − R0_i‖`` from its base;
    * the lower bounds ``L[i, j] = D0[i, j] − (δ_i + δ_j)``, at most
      ``dist(r_i, r_j)`` by the triangle inequality (Elkan's centre-drift
      bound), and symmetric like ``D0``;
    * each row's nearest-seed distance ``nn_i`` from when it was last
      based, and the representatives the last :meth:`get` saw.

    Lemma 1 run against ``L`` prunes a subset of what it prunes against
    the exact matrix, and a seed the exact matrix prunes cannot strictly
    improve ``minDist`` when probed: every assignment, RNG draw and split
    is the one an exact matrix gives, at a few more probes.

    A :meth:`get` compares the representatives with the last call's (no
    distance), recomputes ``δ`` for the rows that moved (one counted
    distance each), rebases every moved row whose drift passed
    ``_REBASE_FRACTION · nn_i`` (``R0_i = r_i``, ``δ_i = 0``, and the
    row's ``K − 1`` distances against ``R0``, counted, pairs among rows
    rebased together once) and rewrites ``L`` in place on the moved rows
    and columns. Only an empty keeper, a changed ``K`` (``add_bubble``)
    or :meth:`invalidate` make it rebuild in full (``K·(K−1)/2`` counted
    distances): that is a *miss*, every other ``get`` a *hit*.
    :attr:`matrix_computed` totals every distance the keeper counted.

    The returned assigner reads ``L`` (for an id subset, a copy of its
    block) in place, so it is valid until the next ``get``; the
    maintainers use it at once. ``counter`` and ``rng`` are the caller's,
    passed on every call.
    """

    __slots__ = (
        "_base",
        "_base_dists",
        "_drift",
        "_lower",
        "_nearest",
        "_last",
        "hits",
        "misses",
        "matrix_computed",
    )

    def __init__(self) -> None:
        self.invalidate()
        self.hits = 0
        self.misses = 0
        self.matrix_computed = 0

    def invalidate(self) -> None:
        """Drop the kept matrix; the next :meth:`get` rebuilds it."""
        self._base = self._base_dists = self._drift = None
        self._lower = self._nearest = self._last = None

    def get(
        self,
        bubbles,
        counter: DistanceCounter,
        use_triangle_inequality: bool = True,
        rng: np.random.Generator | None = None,
        active_ids: np.ndarray | list | None = None,
        obs=None,
    ) -> Assigner:
        """An assigner over the current representatives, pruning on ``L``.

        Args:
            bubbles: the :class:`~repro.core.bubble_set.BubbleSet` whose
                representatives are the candidate locations.
            counter, use_triangle_inequality, rng: as for
                :func:`make_assigner`; the keeper's own distances go to
                ``counter`` too.
            active_ids: optional id subset to assign among (the adaptive
                maintainer's non-retired bubbles, a merge's
                everything-but-the-donor set); ``None`` means all.
            obs: observability handle stamped onto the assigner.

        A naive assigner, or one over a single location, needs no matrix:
        it is built as :func:`make_assigner` builds it and the keeper is
        left as it is.
        """
        reps = bubbles.reps()
        num = reps.shape[0]
        ids = None if active_ids is None else np.asarray(active_ids, np.int64)
        if ids is not None and np.array_equal(ids, np.arange(num)):
            ids = None
        locations = reps if ids is None else reps[ids]
        if not use_triangle_inequality or locations.shape[0] < 2:
            self.hits += 1
            return make_assigner(
                locations, counter, use_triangle_inequality, rng, obs
            )
        if self._lower is None or self._lower.shape[0] != num:
            computed = self._rebuild(reps)
            self.misses += 1
        else:
            computed = self._follow(reps)
            self.hits += 1
        counter.record_computed(computed)
        self.matrix_computed += computed
        # Rows then columns: a few times faster than one np.ix_ gather.
        lower = self._lower if ids is None else self._lower[ids][:, ids]
        return TriangleInequalityAssigner._with_bounds(
            locations, lower, counter, rng, obs
        )

    def _rebuild(self, reps: np.ndarray) -> int:
        """Base every row on ``reps``; the distances it computed."""
        num = reps.shape[0]
        dists = pairwise(reps)
        np.fill_diagonal(dists, np.inf)
        self._nearest = dists.min(axis=1)
        np.fill_diagonal(dists, 0.0)
        self._base = reps.copy()
        self._base_dists = dists
        self._lower = dists.copy()
        self._drift = np.zeros(num)
        self._last = reps
        return num * (num - 1) // 2

    def _follow(self, reps: np.ndarray) -> int:
        """Bring the kept rows up to ``reps``; the distances it computed."""
        moved = np.flatnonzero((reps != self._last).any(axis=1))
        self._last = reps
        if not moved.size:
            return 0
        computed = int(moved.size)
        drift = row_norms(reps[moved] - self._base[moved])
        far = drift > _REBASE_FRACTION * self._nearest[moved]
        if far.any():
            computed += self._rebase(reps, moved[far])
            drift[far] = 0.0
        self._drift[moved] = drift
        rows = self._base_dists[moved]
        rows -= drift[:, None] + self._drift
        self._lower[moved] = rows
        self._lower[:, moved] = rows.T
        return computed

    def _rebase(self, reps: np.ndarray, rebased: np.ndarray) -> int:
        """Move the ``rebased`` rows' bases to ``reps`` and recompute
        their ``D0`` rows and columns; the distances it computed. Each is
        one exact ``row_norms`` of a difference, so a pair of rebased rows
        gets the same float both ways round."""
        base = self._base
        fresh = reps[rebased]
        base[rebased] = fresh
        num, dim = base.shape
        count = int(rebased.size)
        diffs = fresh[:, None, :] - base
        rows = row_norms(diffs.reshape(-1, dim)).reshape(count, num)
        self._base_dists[rebased] = rows
        self._base_dists[:, rebased] = rows.T
        rows[np.arange(count), rebased] = np.inf
        self._nearest[rebased] = rows.min(axis=1)
        return count * (num - 1) - count * (count - 1) // 2


def make_assigner(
    locations: PointMatrix,
    counter: DistanceCounter | None = None,
    use_triangle_inequality: bool = True,
    rng: np.random.Generator | None = None,
    obs=None,
) -> Assigner:
    """Factory selecting the pruning or naive assigner.

    Single-location sets short-circuit to the naive assigner — with one
    seed there is nothing to prune.
    """
    locations = np.asarray(locations, dtype=np.float64)
    if use_triangle_inequality and locations.shape[0] > 1:
        return TriangleInequalityAssigner(locations, counter, rng, obs=obs)
    return NaiveAssigner(locations, counter, obs=obs)
