"""Unit tests for the paper's branch-and-bound DFS search."""

import pytest

from repro import PruningConfig, RTree, Rect, Segment, linear_scan
from repro.storage import CountingTracker
from repro.core.knn_dfs import nearest_dfs
from repro.errors import DimensionMismatchError, InvalidParameterError
from tests.conftest import assert_same_distances


class TestBasics:
    def test_empty_tree_returns_nothing(self):
        tree = RTree()
        neighbors, stats = nearest_dfs(tree, (0.0, 0.0), k=3)
        assert neighbors == []
        assert stats.nodes_accessed == 0

    def test_single_item(self):
        tree = RTree()
        tree.insert((5.0, 5.0), payload="only")
        neighbors, _ = nearest_dfs(tree, (0.0, 0.0))
        assert len(neighbors) == 1
        assert neighbors[0].payload == "only"
        assert neighbors[0].distance == pytest.approx(50.0 ** 0.5)

    def test_k_larger_than_tree_returns_all_sorted(self, small_tree):
        neighbors, _ = nearest_dfs(small_tree, (500.0, 500.0), k=1000)
        assert len(neighbors) == len(small_tree)
        distances = [n.distance for n in neighbors]
        assert distances == sorted(distances)

    def test_invalid_k(self, small_tree):
        with pytest.raises(InvalidParameterError):
            nearest_dfs(small_tree, (0.0, 0.0), k=0)

    def test_invalid_ordering(self, small_tree):
        with pytest.raises(InvalidParameterError):
            nearest_dfs(small_tree, (0.0, 0.0), ordering="random")

    def test_dimension_mismatch(self, small_tree):
        with pytest.raises(DimensionMismatchError):
            nearest_dfs(small_tree, (0.0, 0.0, 0.0))

    def test_query_from_data_point_finds_it(self, small_points, small_tree):
        target = small_points[17]
        neighbors, _ = nearest_dfs(small_tree, target, k=1)
        assert neighbors[0].distance == 0.0
        assert neighbors[0].payload == 17


class TestCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    @pytest.mark.parametrize("ordering", ["mindist", "minmaxdist"])
    def test_matches_oracle(self, medium_tree, k, ordering):
        for q in [(0.0, 0.0), (500.0, 500.0), (999.0, 1.0), (250.0, 750.0)]:
            got, _ = nearest_dfs(medium_tree, q, k=k, ordering=ordering)
            expected = linear_scan(medium_tree, q, k=k)
            assert_same_distances(got, expected)

    @pytest.mark.parametrize(
        "config",
        [
            PruningConfig.all(),
            PruningConfig.none(),
            PruningConfig.only_p3(),
            PruningConfig(True, False, True),
            PruningConfig(False, True, True),
            PruningConfig(True, True, False),
        ],
    )
    def test_every_pruning_config_is_exact(self, medium_tree, config):
        for k in (1, 4):
            for q in [(10.0, 10.0), (640.0, 320.0)]:
                got, _ = nearest_dfs(medium_tree, q, k=k, pruning=config)
                expected = linear_scan(medium_tree, q, k=k)
                assert_same_distances(got, expected)

    def test_query_outside_data_bounds(self, medium_tree):
        got, _ = nearest_dfs(medium_tree, (-5000.0, -5000.0), k=3)
        expected = linear_scan(medium_tree, (-5000.0, -5000.0), k=3)
        assert_same_distances(got, expected)

    def test_duplicate_points(self):
        tree = RTree(max_entries=4)
        for i in range(20):
            tree.insert((1.0, 1.0), payload=i)
        tree.insert((5.0, 5.0), payload="outlier")
        neighbors, _ = nearest_dfs(tree, (1.0, 1.0), k=5)
        assert all(n.distance == 0.0 for n in neighbors)
        assert len(neighbors) == 5

    def test_rect_objects_not_just_points(self):
        tree = RTree(max_entries=4)
        rects = [
            Rect((0, 0), (2, 2)),
            Rect((10, 10), (11, 15)),
            Rect((4, 4), (5, 5)),
        ]
        for i, r in enumerate(rects):
            tree.insert(r, payload=i)
        neighbors, _ = nearest_dfs(tree, (3.0, 3.0), k=3)
        # Distances are to the rect MBRs themselves.
        assert neighbors[0].payload == 0  # touches at (2, 2): dist sqrt(2)
        assert neighbors[1].payload == 2  # (4, 4): dist sqrt(2)... tie
        assert neighbors[2].payload == 1


class TestObjectDistanceHook:
    def test_segments_use_exact_distance(self):
        segments = [
            Segment((0.0, 0.0), (10.0, 0.0)),
            Segment((0.0, 5.0), (10.0, 5.0)),
        ]
        tree = RTree(max_entries=4)
        for s in segments:
            tree.insert(s.mbr(), payload=s)

        def hook(query, payload, rect):
            return payload.distance_squared_to(query)

        # Query closer to the second segment's line but inside the first's
        # MBR: MBR distance would mislead; exact distance must win.
        neighbors, _ = nearest_dfs(
            tree, (5.0, 4.0), k=1, object_distance_sq=hook
        )
        assert neighbors[0].payload is segments[1]
        assert neighbors[0].distance == pytest.approx(1.0)


class TestStats:
    def test_stats_count_nodes(self, medium_tree):
        _, stats = nearest_dfs(medium_tree, (500.0, 500.0), k=1)
        assert stats.nodes_accessed >= medium_tree.height
        assert stats.nodes_accessed == stats.leaf_accesses + stats.internal_accesses
        assert stats.objects_examined >= 1

    def test_tracker_agrees_with_stats(self, medium_tree):
        tracker = CountingTracker()
        _, stats = nearest_dfs(medium_tree, (500.0, 500.0), k=2, tracker=tracker)
        assert tracker.stats.total == stats.nodes_accessed
        assert tracker.stats.leaf == stats.leaf_accesses

    def test_pruning_disabled_visits_every_node(self, medium_tree):
        _, stats = nearest_dfs(
            medium_tree, (500.0, 500.0), k=1, pruning=PruningConfig.none()
        )
        assert stats.nodes_accessed == medium_tree.node_count
        assert stats.objects_examined == len(medium_tree)

    def test_pruning_enabled_visits_far_fewer(self, medium_tree):
        _, pruned = nearest_dfs(medium_tree, (500.0, 500.0), k=1)
        assert pruned.nodes_accessed < medium_tree.node_count / 4

    def test_p1_counts_only_for_k1(self, medium_tree):
        _, stats_k1 = nearest_dfs(medium_tree, (500.0, 500.0), k=1)
        _, stats_k5 = nearest_dfs(medium_tree, (500.0, 500.0), k=5)
        assert stats_k1.pruning.p1_pruned > 0
        assert stats_k5.pruning.p1_pruned == 0
