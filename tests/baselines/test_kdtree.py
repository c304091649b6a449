"""Unit tests for the kd-tree baseline (FBF search)."""

import pytest

from hypothesis import given, settings, strategies as st

from repro import Rect
from repro.baselines import linear_scan_items
from repro.baselines.kdtree import KdTree
from repro.datasets import uniform_points
from repro.errors import DimensionMismatchError, InvalidParameterError
from tests.conftest import assert_same_distances

coord = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
point2d = st.tuples(coord, coord)


def oracle(points, query, k):
    items = [(Rect.from_point(p), i) for i, p in enumerate(points)]
    return linear_scan_items(items, query, k=k)


class TestConstruction:
    def test_empty(self):
        tree = KdTree([])
        assert len(tree) == 0
        assert tree.dimension is None
        neighbors, stats = tree.nearest((0.0, 0.0))
        assert neighbors == []
        assert stats.nodes_visited == 0

    def test_rejects_bad_bucket_size(self):
        with pytest.raises(InvalidParameterError):
            KdTree([((0.0, 0.0), 0)], bucket_size=0)

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            KdTree([((0.0, 0.0), 0), ((1.0,), 1)])

    def test_node_count_grows_with_size(self):
        small = KdTree([(p, i) for i, p in enumerate(uniform_points(20, 1))])
        big = KdTree([(p, i) for i, p in enumerate(uniform_points(500, 1))])
        assert big.node_count > small.node_count


class TestQueries:
    def test_single_point(self):
        tree = KdTree([((3.0, 4.0), "only")])
        neighbors, _ = tree.nearest((0.0, 0.0))
        assert neighbors[0].payload == "only"
        assert neighbors[0].distance == 5.0

    def test_matches_oracle_on_uniform(self):
        points = uniform_points(400, seed=9)
        tree = KdTree([(p, i) for i, p in enumerate(points)])
        for q in [(0.0, 0.0), (512.0, 512.0), (999.0, 1.0)]:
            for k in (1, 5, 13):
                got, _ = tree.nearest(q, k=k)
                assert_same_distances(got, oracle(points, q, k))

    def test_dimension_mismatch(self):
        tree = KdTree([((0.0, 0.0), 0)])
        with pytest.raises(DimensionMismatchError):
            tree.nearest((0.0, 0.0, 0.0))

    def test_invalid_k(self):
        tree = KdTree([((0.0, 0.0), 0)])
        with pytest.raises(InvalidParameterError):
            tree.nearest((0.0, 0.0), k=0)

    def test_duplicate_points(self):
        tree = KdTree([((1.0, 1.0), i) for i in range(50)])
        neighbors, _ = tree.nearest((1.0, 1.0), k=10)
        assert len(neighbors) == 10
        assert all(n.distance == 0.0 for n in neighbors)

    def test_visits_fewer_nodes_than_total(self):
        points = uniform_points(2000, seed=10)
        tree = KdTree([(p, i) for i, p in enumerate(points)])
        _, stats = tree.nearest((500.0, 500.0), k=1)
        assert stats.nodes_visited < tree.node_count / 4

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(point2d, min_size=1, max_size=150),
        point2d,
        st.integers(1, 10),
        st.integers(1, 16),
    )
    def test_property_matches_oracle(self, points, query, k, bucket_size):
        tree = KdTree(
            [(p, i) for i, p in enumerate(points)], bucket_size=bucket_size
        )
        got, _ = tree.nearest(query, k=k)
        assert_same_distances(got, oracle(points, query, k), tolerance=1e-6)
