"""Unit tests for the best-first search and incremental distance browsing."""

import pytest

from repro import RTree, linear_scan
from repro.storage import CountingTracker
from repro.core.knn_best_first import nearest_best_first, nearest_incremental
from repro.core.knn_dfs import nearest_dfs
from repro.core.stats import SearchStats
from repro.errors import DimensionMismatchError, InvalidParameterError
from tests.conftest import assert_same_distances


class TestBestFirst:
    def test_empty_tree(self):
        neighbors, stats = nearest_best_first(RTree(), (0.0, 0.0), k=2)
        assert neighbors == []
        assert stats.nodes_accessed == 0

    def test_invalid_k(self, small_tree):
        with pytest.raises(InvalidParameterError):
            nearest_best_first(small_tree, (0.0, 0.0), k=-1)

    def test_dimension_mismatch(self, small_tree):
        with pytest.raises(DimensionMismatchError):
            nearest_best_first(small_tree, (1.0,))

    @pytest.mark.parametrize("k", [1, 3, 7, 20])
    def test_matches_oracle(self, medium_tree, k):
        for q in [(0.0, 0.0), (123.0, 987.0), (500.0, 500.0)]:
            got, _ = nearest_best_first(medium_tree, q, k=k)
            expected = linear_scan(medium_tree, q, k=k)
            assert_same_distances(got, expected)

    def test_never_reads_more_pages_than_dfs(self, medium_tree):
        # Best-first is page-optimal: it can't lose to DFS on any query.
        for q in [(10.0, 10.0), (400.0, 800.0), (999.0, 999.0)]:
            for k in (1, 5):
                _, bf = nearest_best_first(medium_tree, q, k=k)
                _, dfs = nearest_dfs(medium_tree, q, k=k)
                assert bf.nodes_accessed <= dfs.nodes_accessed

    def test_tracker_counts(self, medium_tree):
        tracker = CountingTracker()
        _, stats = nearest_best_first(
            medium_tree, (500.0, 500.0), k=3, tracker=tracker
        )
        assert tracker.stats.total == stats.nodes_accessed


class TestIncremental:
    def test_empty_tree_yields_nothing(self):
        assert list(nearest_incremental(RTree(), (0.0, 0.0))) == []

    def test_dimension_mismatch(self, small_tree):
        with pytest.raises(DimensionMismatchError):
            list(nearest_incremental(small_tree, (1.0, 2.0, 3.0)))

    def test_yields_all_items_in_distance_order(self, small_tree):
        result = list(nearest_incremental(small_tree, (500.0, 500.0)))
        assert len(result) == len(small_tree)
        distances = [n.distance for n in result]
        assert distances == sorted(distances)

    def test_prefix_matches_knn(self, medium_tree):
        q = (250.0, 250.0)
        stream = nearest_incremental(medium_tree, q)
        first_five = [next(stream) for _ in range(5)]
        expected = linear_scan(medium_tree, q, k=5)
        assert_same_distances(first_five, expected)

    def test_lazy_consumption_reads_fewer_pages(self, medium_tree):
        q = (500.0, 500.0)
        partial_stats = SearchStats()
        stream = nearest_incremental(medium_tree, q, stats=partial_stats)
        next(stream)
        pages_for_one = partial_stats.nodes_accessed

        full_stats = SearchStats()
        list(nearest_incremental(medium_tree, q, stats=full_stats))
        assert pages_for_one < full_stats.nodes_accessed
        assert full_stats.nodes_accessed == medium_tree.node_count

    def test_agrees_with_best_first_for_each_k(self, small_tree):
        q = (100.0, 900.0)
        stream = list(nearest_incremental(small_tree, q))
        for k in (1, 4, 9):
            expected, _ = nearest_best_first(small_tree, q, k=k)
            assert_same_distances(stream[:k], expected)
