"""Unit tests for the Euclidean distance kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import (
    cross_pairwise,
    euclidean,
    nearest_index,
    pairwise,
    point_to_points,
    squared_euclidean,
)


class TestEuclidean:
    def test_pythagorean_triple(self):
        assert euclidean(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_identity(self):
        p = np.array([1.5, -2.5, 3.0])
        assert euclidean(p, p) == 0.0

    def test_symmetry(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([-4.0, 0.5, 2.0])
        assert euclidean(a, b) == euclidean(b, a)

    def test_one_dimensional(self):
        assert euclidean(np.array([2.0]), np.array([-3.0])) == 5.0

    def test_squared_matches_square_of_distance(self):
        a = np.array([1.0, 1.0])
        b = np.array([4.0, 5.0])
        assert squared_euclidean(a, b) == pytest.approx(euclidean(a, b) ** 2)


class TestPointToPoints:
    def test_matches_scalar_kernel(self):
        rng = np.random.default_rng(0)
        point = rng.normal(size=3)
        points = rng.normal(size=(20, 3))
        batch = point_to_points(point, points)
        expected = [euclidean(point, row) for row in points]
        assert batch == pytest.approx(expected)

    def test_empty_matrix(self):
        result = point_to_points(np.array([1.0, 2.0]), np.empty((0, 2)))
        assert result.shape == (0,)


class TestPairwise:
    def test_matches_scalar_kernel(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(10, 4))
        matrix = pairwise(points)
        for i in range(10):
            for j in range(10):
                assert matrix[i, j] == pytest.approx(
                    euclidean(points[i], points[j]), abs=1e-9
                )

    def test_zero_diagonal(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(8, 3)) * 1000.0
        assert (np.diag(pairwise(points)) == 0.0).all()

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(15, 2))
        matrix = pairwise(points)
        assert matrix == pytest.approx(matrix.T)

    def test_bytes_equal_three_temporary_formula(self):
        # The in-place evaluation must give the exact floats of the
        # plain expression, duplicate rows (cancellation to zero or just
        # below it) included.
        rng = np.random.default_rng(5)
        for scale, dim in ((1.0, 2), (12.0, 8), (1e6, 3)):
            points = rng.normal(size=(40, dim)) * scale
            points[7] = points[3]
            points[20:24] = points[11]
            sq_norms = np.einsum("ij,ij->i", points, points)
            sq = (
                sq_norms[:, None]
                + sq_norms[None, :]
                - 2.0 * (points @ points.T)
            )
            expected = np.sqrt(np.maximum(sq, 0.0))
            np.fill_diagonal(expected, 0.0)
            assert pairwise(points).tobytes() == expected.tobytes()

    def test_no_negative_entries_for_near_duplicates(self):
        # Cancellation in x·x + y·y - 2·x·y can go slightly negative.
        base = np.full((5, 3), 1e8)
        base[1] += 1e-4
        matrix = pairwise(base)
        assert (matrix >= 0.0).all()


class TestCrossPairwise:
    def test_shape_and_values(self):
        rng = np.random.default_rng(4)
        left = rng.normal(size=(6, 3))
        right = rng.normal(size=(4, 3))
        matrix = cross_pairwise(left, right)
        assert matrix.shape == (6, 4)
        for i in range(6):
            for j in range(4):
                assert matrix[i, j] == pytest.approx(
                    euclidean(left[i], right[j]), abs=1e-9
                )


class TestNearestIndex:
    def test_finds_closest(self):
        points = np.array([[0.0, 0.0], [5.0, 5.0], [1.0, 1.0]])
        idx, dist = nearest_index(np.array([1.2, 1.1]), points)
        assert idx == 2
        assert dist == pytest.approx(euclidean(np.array([1.2, 1.1]), points[2]))

    def test_ties_return_first(self):
        points = np.array([[1.0, 0.0], [-1.0, 0.0]])
        idx, _ = nearest_index(np.array([0.0, 0.0]), points)
        assert idx == 0
