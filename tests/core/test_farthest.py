"""Unit and property tests for farthest-neighbor queries."""

import pytest

from hypothesis import given, settings, strategies as st

from repro import RTree
from repro.storage import CountingTracker
from repro.core.farthest import farthest_best_first
from repro.core.metrics import maxdist_squared
from repro.errors import DimensionMismatchError, InvalidParameterError
from repro.geometry.point import euclidean
from repro.geometry.rect import Rect
from tests.conftest import build_point_tree

coord = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
point2d = st.tuples(coord, coord)


class TestMaxdist:
    def test_point_inside_square(self):
        r = Rect((0.0, 0.0), (2.0, 2.0))
        # From (0.5, 0.5) the farthest corner is (2, 2).
        assert maxdist_squared((0.5, 0.5), r) == pytest.approx(1.5**2 + 1.5**2)

    def test_point_outside(self):
        r = Rect((0.0, 0.0), (1.0, 1.0))
        assert maxdist_squared((-1.0, 0.0), r) == pytest.approx(4.0 + 1.0)

    def test_degenerate_rect(self):
        r = Rect.from_point((3.0, 4.0))
        assert maxdist_squared((0.0, 0.0), r) == 25.0

    def test_upper_bounds_mindist_and_minmaxdist(self):
        from repro.core.metrics import mindist_squared, minmaxdist_squared

        r = Rect((1.0, 2.0), (5.0, 9.0))
        for q in [(0.0, 0.0), (3.0, 4.0), (10.0, 10.0)]:
            assert maxdist_squared(q, r) >= minmaxdist_squared(q, r) - 1e-12
            assert maxdist_squared(q, r) >= mindist_squared(q, r) - 1e-12


class TestFarthest:
    def test_empty_tree(self):
        neighbors, stats = farthest_best_first(RTree(), (0.0, 0.0))
        assert neighbors == []
        assert stats.nodes_accessed == 0

    def test_invalid_k(self, small_tree):
        with pytest.raises(InvalidParameterError):
            farthest_best_first(small_tree, (0.0, 0.0), k=0)

    def test_dimension_mismatch(self, small_tree):
        with pytest.raises(DimensionMismatchError):
            farthest_best_first(small_tree, (0.0,))

    def test_simple_case(self):
        tree = RTree()
        for p, name in [((0.0, 0.0), "origin"), ((10.0, 0.0), "east"),
                        ((0.0, 20.0), "north")]:
            tree.insert(p, payload=name)
        neighbors, _ = farthest_best_first(tree, (0.0, 0.0), k=2)
        assert [n.payload for n in neighbors] == ["north", "east"]
        assert neighbors[0].distance == 20.0

    def test_matches_oracle(self, medium_points):
        tree = build_point_tree(medium_points)
        for q in [(0.0, 0.0), (500.0, 500.0), (999.0, 1.0)]:
            for k in (1, 5):
                got, _ = farthest_best_first(tree, q, k=k)
                expected = sorted(
                    (euclidean(q, p) for p in medium_points), reverse=True
                )[:k]
                assert [n.distance for n in got] == pytest.approx(expected)

    def test_results_sorted_descending(self, small_tree):
        got, _ = farthest_best_first(small_tree, (500.0, 500.0), k=10)
        distances = [n.distance for n in got]
        assert distances == sorted(distances, reverse=True)

    def test_prunes_near_subtrees(self, medium_points):
        tree = build_point_tree(medium_points)
        _, stats = farthest_best_first(tree, (500.0, 500.0), k=1)
        assert stats.nodes_accessed < tree.node_count / 3

    def test_tracker_counts(self, small_tree):
        tracker = CountingTracker()
        _, stats = farthest_best_first(
            small_tree, (500.0, 500.0), k=2, tracker=tracker
        )
        assert tracker.stats.total == stats.nodes_accessed

    def test_k_exceeding_size_returns_all(self, small_tree):
        got, _ = farthest_best_first(small_tree, (0.0, 0.0), k=10_000)
        assert len(got) == len(small_tree)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(point2d, min_size=1, max_size=100),
    point2d,
    st.integers(1, 8),
)
def test_property_matches_oracle(points, query, k):
    tree = RTree(max_entries=4)
    for i, p in enumerate(points):
        tree.insert(p, payload=i)
    got, _ = farthest_best_first(tree, query, k=k)
    expected = sorted((euclidean(query, p) for p in points), reverse=True)
    expected = expected[: min(k, len(points))]
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert abs(g.distance - e) <= 1e-6
