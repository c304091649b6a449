"""Golden-number regression guard.

Page counts and distances are pure functions of the seeded workloads, so
they are pinned exactly.  If a refactor changes any number here, it
changed the *algorithm* (traversal order, pruning, tree construction) —
which must be a deliberate decision, not an accident.  Update the
constants only alongside an explanation in the commit.
"""

import pytest

from repro import CountingTracker, QueryConfig, bulk_load, nearest
from repro.bench.experiments import segment_distance_sq
from repro.datasets import road_segments, uniform_points


@pytest.fixture(scope="module")
def uniform_tree():
    points = uniform_points(4096, seed=1995)
    return bulk_load(
        [(p, i) for i, p in enumerate(points)], max_entries=28, min_entries=11
    )


@pytest.fixture(scope="module")
def road_tree():
    segments = road_segments(4096, seed=1995)
    return bulk_load(
        [(s.mbr(), s) for s in segments], max_entries=28, min_entries=11
    )


class TestGoldenStructure:
    def test_packed_tree_shape(self, uniform_tree):
        assert uniform_tree.node_count == 154
        assert uniform_tree.height == 3

    def test_road_tree_shape(self, road_tree):
        assert road_tree.node_count == 154


GOLDEN_QUERIES = [
    # (query, k, algorithm, ordering, pages, first_dist, last_dist)
    ((500.0, 500.0), 1, "dfs", "mindist", 6, 9.599166, 9.599166),
    ((500.0, 500.0), 1, "dfs", "minmaxdist", 4, 9.599166, 9.599166),
    ((500.0, 500.0), 8, "dfs", "mindist", 7, 9.599166, 35.073575),
    ((500.0, 500.0), 1, "best-first", "mindist", 4, 9.599166, 9.599166),
    ((0.0, 0.0), 4, "dfs", "mindist", 3, 10.780562, 39.918159),
]


class TestGoldenQueries:
    @pytest.mark.parametrize(
        "query,k,algorithm,ordering,pages,first,last", GOLDEN_QUERIES
    )
    def test_uniform_query_counts_and_distances(
        self, uniform_tree, query, k, algorithm, ordering, pages, first, last
    ):
        tracker = CountingTracker()
        result = nearest(
            uniform_tree,
            query,
            k=k,
            config=QueryConfig(algorithm=algorithm, ordering=ordering),
            tracker=tracker,
        )
        assert tracker.stats.total == pages
        assert result.distances()[0] == pytest.approx(first, abs=1e-6)
        assert result.distances()[-1] == pytest.approx(last, abs=1e-6)

    def test_road_query_with_exact_segment_distances(self, road_tree):
        tracker = CountingTracker()
        result = nearest(
            road_tree,
            (500.0, 500.0),
            k=4,
            config=QueryConfig(object_distance_sq=segment_distance_sq),
            tracker=tracker,
        )
        assert tracker.stats.total == 5
        assert result.distances() == pytest.approx(
            [14.829188, 51.991488, 63.520325, 64.243999], abs=1e-6
        )
