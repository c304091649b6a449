"""Unit tests for the batched query API."""

from dataclasses import replace

import pytest

from repro import (
    EngineOptions,
    QueryConfig,
    bulk_load,
    linear_scan,
    nearest_batch,
)
from repro.datasets import uniform_points
from repro.datasets.queries import query_points_near_data
from repro.errors import InvalidParameterError
from tests.conftest import assert_same_distances

BATCH = EngineOptions.batch_defaults()


@pytest.fixture(scope="module")
def tree():
    points = uniform_points(2000, seed=151)
    return bulk_load([(p, i) for i, p in enumerate(points)])


class TestNearestBatch:
    def test_empty_batch_rejected(self, tree):
        with pytest.raises(InvalidParameterError):
            nearest_batch(tree, [])

    def test_negative_buffer_rejected(self, tree):
        with pytest.raises(InvalidParameterError):
            nearest_batch(
                tree, [(0.0, 0.0)], options=replace(BATCH, buffer_pages=-1)
            )

    def test_one_result_per_point_all_exact(self, tree):
        queries = uniform_points(20, seed=152)
        results, combined, _ = nearest_batch(tree, queries, k=3)
        assert len(results) == 20
        total_pages = 0
        for q, result in zip(queries, results):
            assert_same_distances(result.neighbors, linear_scan(tree, q, k=3))
            total_pages += result.stats.nodes_accessed
        assert combined.nodes_accessed == total_pages

    def test_buffering_cuts_disk_reads(self, tree):
        anchor = uniform_points(1, seed=153)[0]
        queries = query_points_near_data(40, [anchor], seed=154, noise=15.0)
        _, combined, buffered_reads = nearest_batch(
            tree, queries, k=2, options=replace(BATCH, buffer_pages=64)
        )
        _, _, unbuffered_reads = nearest_batch(
            tree, queries, k=2, options=replace(BATCH, buffer_pages=0)
        )
        logical_per_query = combined.nodes_accessed / len(queries)
        assert unbuffered_reads == pytest.approx(logical_per_query)
        assert buffered_reads < unbuffered_reads / 2

    def test_algorithm_and_epsilon_flow_through(self, tree):
        queries = uniform_points(5, seed=155)
        best_first = QueryConfig(k=4, algorithm="best-first")
        exact, _, _ = nearest_batch(tree, queries, config=best_first)
        approx, _, _ = nearest_batch(
            tree, queries, config=best_first.replace(epsilon=1.0)
        )
        for e, a in zip(exact, approx):
            for want, got in zip(e.neighbors, a.neighbors):
                assert got.distance <= want.distance * 2.0 + 1e-9

