"""Unit and property tests for the quadtree baseline."""

import pytest

from hypothesis import given, settings, strategies as st

from repro import Rect
from repro.baselines import linear_scan_items
from repro.baselines.quadtree import QuadTree
from repro.datasets import gaussian_clusters, uniform_points
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
        tree = QuadTree([])
        assert len(tree) == 0
        neighbors, stats = tree.nearest((0.0, 0.0))
        assert neighbors == []
        assert stats.nodes_visited == 0

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionMismatchError):
            QuadTree([((1.0, 2.0, 3.0), 0)])

    def test_rejects_bad_capacity(self):
        with pytest.raises(InvalidParameterError):
            QuadTree([((0.0, 0.0), 0)], leaf_capacity=0)

    def test_duplicate_points_bounded_depth(self):
        # 100 identical points cannot be separated by splitting; the depth
        # cap must stop the recursion.
        tree = QuadTree([((5.0, 5.0), i) for i in range(100)], leaf_capacity=2)
        neighbors, _ = tree.nearest((5.0, 5.0), k=10)
        assert len(neighbors) == 10
        assert all(n.distance == 0.0 for n in neighbors)

    def test_node_count_grows_under_clustering(self):
        uniform = QuadTree(
            [(p, i) for i, p in enumerate(uniform_points(800, seed=141))]
        )
        clustered = QuadTree(
            [(p, i) for i, p in enumerate(
                gaussian_clusters(800, seed=141, clusters=2, spread=2.0)
            )]
        )
        # Space-splitting digs deeper under dense clusters.
        assert clustered.node_count != uniform.node_count


class TestQueries:
    def test_single_point(self):
        tree = QuadTree([((3.0, 4.0), "only")])
        neighbors, _ = tree.nearest((0.0, 0.0))
        assert neighbors[0].payload == "only"
        assert neighbors[0].distance == 5.0

    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_matches_oracle(self, k):
        points = uniform_points(600, seed=142)
        tree = QuadTree([(p, i) for i, p in enumerate(points)])
        for q in [(0.0, 0.0), (512.0, 512.0), (-100.0, 1200.0)]:
            got, _ = tree.nearest(q, k=k)
            assert_same_distances(got, oracle(points, q, k))

    def test_clustered_matches_oracle(self):
        points = gaussian_clusters(700, seed=143)
        tree = QuadTree([(p, i) for i, p in enumerate(points)])
        got, _ = tree.nearest((500.0, 500.0), k=7)
        assert_same_distances(got, oracle(points, (500.0, 500.0), 7))

    def test_invalid_k(self):
        tree = QuadTree([((0.0, 0.0), 0)])
        with pytest.raises(InvalidParameterError):
            tree.nearest((0.0, 0.0), k=0)

    def test_visits_few_nodes(self):
        points = uniform_points(4000, seed=144)
        tree = QuadTree([(p, i) for i, p in enumerate(points)])
        _, stats = tree.nearest((500.0, 500.0), k=1)
        assert stats.nodes_visited < tree.node_count / 5


@settings(max_examples=50, deadline=None)
@given(
    st.lists(point2d, min_size=1, max_size=120),
    point2d,
    st.integers(1, 8),
    st.integers(1, 12),
)
def test_property_matches_oracle(points, query, k, capacity):
    tree = QuadTree(
        [(p, i) for i, p in enumerate(points)], leaf_capacity=capacity
    )
    got, _ = tree.nearest(query, k=k)
    assert_same_distances(got, oracle(points, query, k), tolerance=1e-6)
