"""Unit tests for the query-batch harness."""

import pytest

from repro.storage import CountingTracker, LruBufferPool
from repro.bench.harness import (
    build_tree,
    default_page_model,
    points_as_items,
    run_query_batch,
)
from repro.datasets import uniform_points
from repro.errors import InvalidParameterError


@pytest.fixture(scope="module")
def tree():
    items = points_as_items(uniform_points(1000, seed=21))
    return build_tree(items, method="bulk")


class TestBuildTree:
    def test_bulk_and_insert_agree_on_contents(self):
        items = points_as_items(uniform_points(200, seed=22))
        bulk = build_tree(items, method="bulk")
        dynamic = build_tree(items, method="insert")
        assert len(bulk) == len(dynamic) == 200
        assert bulk.max_entries == dynamic.max_entries

    def test_page_model_determines_fanout(self):
        items = points_as_items(uniform_points(100, seed=23))
        tree = build_tree(items, page_model=default_page_model(4096))
        assert tree.max_entries == default_page_model(4096).max_entries()

    def test_unknown_method(self):
        with pytest.raises(InvalidParameterError):
            build_tree([], method="magic")


class TestRunQueryBatch:
    def test_empty_batch_rejected(self, tree):
        with pytest.raises(InvalidParameterError):
            run_query_batch(tree, [])

    def test_averages_are_consistent(self, tree):
        queries = uniform_points(25, seed=24)
        batch = run_query_batch(tree, queries, k=2)
        assert batch.queries == 25
        assert batch.avg_pages == pytest.approx(
            batch.avg_leaf_pages + batch.avg_internal_pages
        )
        assert batch.avg_pages > 0
        assert batch.avg_time_ms >= 0
        # Without a buffer, disk reads == logical pages.
        assert batch.avg_disk_reads == pytest.approx(batch.avg_pages)

    def test_shared_buffer_reduces_disk_reads(self, tree):
        queries = uniform_points(50, seed=25)
        unbuffered = run_query_batch(tree, queries, k=2)
        pool = LruBufferPool(64)
        buffered = run_query_batch(tree, queries, k=2, shared_tracker=pool)
        assert buffered.avg_pages == pytest.approx(unbuffered.avg_pages)
        assert buffered.avg_disk_reads < unbuffered.avg_disk_reads
        assert 0.0 < buffered.buffer_hit_ratio < 1.0

    def test_shared_plain_tracker_counts_all_accesses(self, tree):
        # A shared CountingTracker (no buffer) exercises the fallback
        # disk-read accounting path: every logical access is a read.
        queries = uniform_points(10, seed=28)
        tracker = CountingTracker()
        batch = run_query_batch(tree, queries, k=2, shared_tracker=tracker)
        assert batch.avg_disk_reads == pytest.approx(batch.avg_pages)
        assert batch.buffer_hit_ratio == 0.0

    def test_tracker_factory_mode(self, tree):
        queries = uniform_points(10, seed=26)
        batch = run_query_batch(
            tree, queries, k=1, tracker_factory=CountingTracker
        )
        assert batch.avg_pages > 0

    def test_best_first_supported(self, tree):
        queries = uniform_points(10, seed=27)
        bf = run_query_batch(tree, queries, k=3, algorithm="best-first")
        dfs = run_query_batch(tree, queries, k=3, algorithm="dfs")
        assert bf.avg_pages <= dfs.avg_pages
