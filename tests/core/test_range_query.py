"""Unit and property tests for within-distance (range) queries."""

import pytest

from hypothesis import given, settings, strategies as st

from repro import RTree
from repro.core import count_within_distance, within_distance
from repro.storage import CountingTracker
from repro.core.stats import SearchStats
from repro.errors import DimensionMismatchError, InvalidParameterError
from repro.geometry.point import euclidean
from tests.conftest import build_point_tree

coord = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
point2d = st.tuples(coord, coord)


class TestBasics:
    def test_empty_tree(self):
        assert within_distance(RTree(), (0.0, 0.0), 5.0) == []

    def test_negative_radius_rejected(self, small_tree):
        with pytest.raises(InvalidParameterError):
            within_distance(small_tree, (0.0, 0.0), -1.0)

    def test_dimension_mismatch(self, small_tree):
        with pytest.raises(DimensionMismatchError):
            within_distance(small_tree, (0.0, 0.0, 0.0), 5.0)

    def test_zero_radius_finds_exact_matches(self):
        tree = RTree()
        tree.insert((3.0, 3.0), payload="hit")
        tree.insert((3.1, 3.0), payload="miss")
        got = within_distance(tree, (3.0, 3.0), 0.0)
        assert [n.payload for n in got] == ["hit"]

    def test_boundary_is_inclusive(self):
        tree = RTree()
        tree.insert((3.0, 0.0), payload="on-circle")
        got = within_distance(tree, (0.0, 0.0), 3.0)
        assert [n.payload for n in got] == ["on-circle"]

    def test_results_sorted_by_distance(self, small_points):
        tree = build_point_tree(small_points)
        got = within_distance(tree, (500.0, 500.0), 300.0)
        distances = [n.distance for n in got]
        assert distances == sorted(distances)

    def test_radius_covering_everything(self, small_points):
        tree = build_point_tree(small_points)
        got = within_distance(tree, (500.0, 500.0), 1e6)
        assert len(got) == len(small_points)

    def test_count_matches_list(self, small_points):
        tree = build_point_tree(small_points)
        assert count_within_distance(
            tree, (500.0, 500.0), 250.0
        ) == len(within_distance(tree, (500.0, 500.0), 250.0))

    def test_pruning_skips_far_subtrees(self, medium_points):
        tree = build_point_tree(medium_points)
        stats = SearchStats()
        within_distance(tree, (10.0, 10.0), 30.0, stats=stats)
        assert stats.nodes_accessed < tree.node_count / 3

    def test_tracker_counts(self, medium_points):
        tree = build_point_tree(medium_points)
        tracker = CountingTracker()
        stats = SearchStats()
        within_distance(tree, (500.0, 500.0), 50.0, tracker=tracker, stats=stats)
        assert tracker.stats.total == stats.nodes_accessed


@settings(max_examples=50, deadline=None)
@given(
    st.lists(point2d, min_size=0, max_size=120),
    point2d,
    st.floats(min_value=0.0, max_value=150.0),
)
def test_property_matches_brute_force(points, query, radius):
    tree = RTree(max_entries=4)
    for i, p in enumerate(points):
        tree.insert(p, payload=i)
    got = sorted(n.payload for n in within_distance(tree, query, radius))
    expected = sorted(
        i for i, p in enumerate(points) if euclidean(query, p) <= radius
    )
    # Tolerate boundary-of-circle float disagreements by re-checking with
    # a hair of slack in both directions.
    if got != expected:
        definitely_in = {
            i for i, p in enumerate(points)
            if euclidean(query, p) <= radius * (1 - 1e-9) - 1e-9
        }
        possibly_in = {
            i for i, p in enumerate(points)
            if euclidean(query, p) <= radius * (1 + 1e-9) + 1e-9
        }
        assert definitely_in <= set(got) <= possibly_in
