"""Integration tests: whole-library flows a downstream user would run."""

import pytest

from repro import (
    CountingTracker,
    LruBufferPool,
    PageModel,
    QueryConfig,
    RTree,
    bulk_load,
    linear_scan,
    nearest,
    nearest_incremental,
    validate_tree,
)
from repro.bench.experiments import segment_distance_sq
from repro.datasets import (
    gaussian_clusters,
    query_points_near_data,
    road_segments,
    uniform_points,
)
from tests.conftest import assert_same_distances


class TestPoiScenario:
    """Build a POI index, query it, update it — the quickstart flow."""

    def test_full_lifecycle(self):
        pois = gaussian_clusters(600, seed=31)
        tree = RTree(max_entries=8)
        for i, p in enumerate(pois):
            tree.insert(p, payload={"id": i, "kind": "cafe"})
        validate_tree(tree)

        user = (500.0, 500.0)
        result = nearest(tree, user, k=5)
        assert len(result) == 5
        assert all(n.payload["kind"] == "cafe" for n in result)

        # The closest POI closes down; the next query must not return it.
        gone = result[0]
        assert tree.delete(gone.rect, payload=gone.payload)
        after = nearest(tree, user, k=5)
        assert gone.payload not in after.payloads()
        assert after.distances()[0] >= result.distances()[0]


class TestRoadScenario:
    """Index street segments with exact object distances (paper's TIGER)."""

    def test_segment_index_matches_brute_force(self):
        segments = road_segments(1500, seed=32)
        tree = bulk_load(
            [(s.mbr(), s) for s in segments],
            max_entries=PageModel().max_entries(),
        )
        queries = query_points_near_data(
            20, [s.midpoint() for s in segments], seed=33
        )
        for q in queries:
            got = nearest(
                tree,
                q,
                k=3,
                config=QueryConfig(object_distance_sq=segment_distance_sq),
            )
            expected = linear_scan(
                tree, q, k=3, object_distance_sq=segment_distance_sq
            )
            assert_same_distances(got.neighbors, expected)

    def test_exact_distance_differs_from_mbr_distance(self):
        # A long diagonal segment's MBR can be much closer than the segment.
        segments = road_segments(800, seed=34)
        tree = bulk_load([(s.mbr(), s) for s in segments], max_entries=16)
        q = (500.0, 500.0)
        exact = nearest(
            tree,
            q,
            k=1,
            config=QueryConfig(object_distance_sq=segment_distance_sq),
        )
        approx = nearest(tree, q, k=1)
        assert exact.distances()[0] >= approx.distances()[0] - 1e-9


class TestBufferedWorkload:
    """A query stream against a page-accurate buffered index."""

    def test_correlated_stream_hits_buffer(self):
        points = uniform_points(4000, seed=35)
        tree = bulk_load(
            [(p, i) for i, p in enumerate(points)],
            max_entries=PageModel(page_size=1024).max_entries(),
        )
        pool = LruBufferPool(32)
        # Queries near each other reuse the same subtree pages.
        stream = query_points_near_data(
            60, [points[0]], seed=36, noise=10.0
        )
        for q in stream:
            nearest(tree, q, k=2, tracker=pool)
        assert pool.stats.hit_ratio > 0.5

    def test_logical_counts_are_buffer_independent(self):
        points = uniform_points(1000, seed=37)
        tree = bulk_load([(p, i) for i, p in enumerate(points)])
        q = (500.0, 500.0)
        plain = CountingTracker()
        nearest(tree, q, k=3, tracker=plain)
        pool = LruBufferPool(128)
        nearest(tree, q, k=3, tracker=pool)
        assert plain.stats.total == pool.stats.accesses


class TestIncrementalScenario:
    def test_distance_browsing_consumes_lazily(self):
        points = uniform_points(2000, seed=38)
        tree = bulk_load([(p, i) for i, p in enumerate(points)])
        stream = nearest_incremental(tree, (321.0, 123.0))
        # "Find the first neighbor more than 30 units away" — unknown k.
        found = None
        for rank, neighbor in enumerate(stream):
            if neighbor.distance > 30.0:
                found = (rank, neighbor)
                break
        assert found is not None
        rank, neighbor = found
        oracle = linear_scan(tree, (321.0, 123.0), k=rank + 1)
        assert neighbor.distance == pytest.approx(oracle[-1].distance)


class TestConcurrentReaders:
    """Reads are pure: interleaved consumers must not interfere."""

    def test_interleaved_incremental_generators(self):
        points = uniform_points(800, seed=39)
        tree = bulk_load([(p, i) for i, p in enumerate(points)])
        stream_a = nearest_incremental(tree, (100.0, 100.0))
        stream_b = nearest_incremental(tree, (900.0, 900.0))
        got_a, got_b = [], []
        for _ in range(50):  # strict interleaving
            got_a.append(next(stream_a))
            got_b.append(next(stream_b))
        expected_a = linear_scan(tree, (100.0, 100.0), k=50)
        expected_b = linear_scan(tree, (900.0, 900.0), k=50)
        assert_same_distances(got_a, expected_a)
        assert_same_distances(got_b, expected_b)

    def test_query_during_iteration_is_safe(self):
        points = uniform_points(500, seed=40)
        tree = bulk_load([(p, i) for i, p in enumerate(points)])
        stream = nearest_incremental(tree, (500.0, 500.0))
        first = next(stream)
        # A full query between generator steps must not disturb it.
        nearest(tree, (0.0, 0.0), k=10)
        second = next(stream)
        assert first.distance <= second.distance
