"""Page accounting end-to-end: the paper's metric must be exact.

These tests pin down the accounting chain tracker -> buffer -> stats that
every experiment number rests on.
"""

import pytest

from repro import (
    CountingTracker,
    LruBufferPool,
    PageModel,
    QueryConfig,
    bulk_load,
    nearest,
)
from repro.datasets import uniform_points


@pytest.fixture(scope="module")
def tree():
    points = uniform_points(3000, seed=51)
    model = PageModel(page_size=1024, dimension=2)
    return bulk_load(
        [(p, i) for i, p in enumerate(points)],
        max_entries=model.max_entries(),
        min_entries=model.min_entries(),
    )


class TestDeterminism:
    def test_same_query_same_pages(self, tree):
        counts = set()
        for _ in range(3):
            tracker = CountingTracker()
            nearest(tree, (400.0, 600.0), k=4, tracker=tracker)
            counts.add(tracker.stats.total)
        assert len(counts) == 1

    def test_stats_equal_tracker_for_all_algorithms(self, tree):
        for algorithm in ("dfs", "best-first"):
            tracker = CountingTracker()
            result = nearest(
                tree,
                (123.0, 456.0),
                k=3,
                config=QueryConfig(algorithm=algorithm),
                tracker=tracker,
            )
            assert tracker.stats.total == result.stats.nodes_accessed


class TestPageIdentity:
    def test_each_page_visited_once_per_query(self, tree):
        # A single NN query never revisits a node (tree traversal).
        tracker = CountingTracker()
        nearest(tree, (777.0, 111.0), k=2, tracker=tracker)
        assert all(c == 1 for c in tracker.stats.per_page.values())

    def test_root_page_always_accessed(self, tree):
        tracker = CountingTracker()
        nearest(tree, (0.0, 0.0), k=1, tracker=tracker)
        assert tree.root.node_id in tracker.stats.per_page

    def test_node_ids_are_unique_pages(self, tree):
        ids = [node.node_id for node in tree.nodes()]
        assert len(ids) == len(set(ids)) == tree.node_count


class TestBufferComposition:
    def test_pool_inner_counts_misses_only(self, tree):
        pool = LruBufferPool(16, inner=CountingTracker())
        for x in (100.0, 110.0, 120.0):
            nearest(tree, (x, 500.0), k=2, tracker=pool)
        assert pool.inner.stats.total == pool.stats.misses
        assert pool.stats.hits + pool.stats.misses == pool.stats.accesses

    def test_infinite_buffer_reads_each_page_once(self, tree):
        pool = LruBufferPool(10_000, inner=CountingTracker())
        for x in range(0, 1000, 50):
            nearest(tree, (float(x), float(x)), k=3, tracker=pool)
        # With capacity above the page count, every page is read at most once.
        assert pool.inner.stats.total == pool.inner.stats.unique_pages
        assert pool.inner.stats.total <= tree.node_count

    def test_bigger_buffer_never_more_misses(self, tree):
        queries = [(float(x), 500.0) for x in range(0, 1000, 20)]
        misses = []
        for capacity in (0, 8, 64, 512):
            pool = LruBufferPool(capacity)
            for q in queries:
                nearest(tree, q, k=2, tracker=pool)
            misses.append(pool.stats.misses)
        assert misses == sorted(misses, reverse=True)
