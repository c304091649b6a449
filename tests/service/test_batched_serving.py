"""The engine's batched serving path: same answers, same accounting.

``QueryEngine.query_batch`` routes single-worker best-first windows over
a packed tree through the multi-query batch kernel — one slab traversal
for the whole window.  These tests pin the contract that makes the
routing invisible: results bit-identical to the sequential per-point
loop, and every counter (queries, cache hits, executed searches,
latency samples) exactly what the sequential path would have recorded.
"""

import pytest

from repro import EngineOptions, QueryConfig, QueryEngine, nearest
from repro.core.budget import Budget
from repro.datasets.queries import query_points_uniform

pytestmark = pytest.mark.service


def _served_pair(tree, queries, config, options):
    """(batched engine results+stats, sequential engine results+stats)."""
    with QueryEngine(tree, config=config, options=options) as eng:
        batched = eng.query_batch(queries)
        batched_stats = eng.stats()
    with QueryEngine(tree, config=config, options=options) as eng:
        sequential = [eng.query(q) for q in queries]
        sequential_stats = eng.stats()
    return batched, batched_stats, sequential, sequential_stats


class TestBatchedPath:
    def test_matches_sequential_serving_exactly(self, medium_tree):
        queries = query_points_uniform(48, seed=31)
        config = QueryConfig(k=4, algorithm="best-first")
        batched, b_stats, sequential, s_stats = _served_pair(
            medium_tree, queries, config,
            EngineOptions(packed=True, workers=1),
        )
        for got, want in zip(batched, sequential):
            assert got.payloads() == want.payloads()
            assert got.distances() == want.distances()
            assert got.stats == want.stats
        assert b_stats.queries == s_stats.queries
        assert b_stats.cache_hits == s_stats.cache_hits
        assert b_stats.executed == s_stats.executed

    def test_matches_plain_nearest(self, medium_tree):
        queries = query_points_uniform(16, seed=7)
        config = QueryConfig(k=3, algorithm="best-first")
        expected = [nearest(medium_tree, q, config=config) for q in queries]
        with QueryEngine(
            medium_tree,
            config=config,
            options=EngineOptions(packed=True, workers=1),
        ) as eng:
            served = eng.query_batch(queries)
        for got, want in zip(served, expected):
            assert got.payloads() == want.payloads()
            assert got.distances() == want.distances()

    def test_duplicates_count_as_cache_hits(self, small_tree):
        queries = [(500.0, 500.0)] * 10 + [(100.0, 100.0)] * 5
        config = QueryConfig(k=2, algorithm="best-first")
        with QueryEngine(
            small_tree,
            config=config,
            options=EngineOptions(packed=True, workers=1),
        ) as eng:
            results = eng.query_batch(queries)
            stats = eng.stats()
        assert len(results) == 15
        assert stats.executed == 2  # one search per distinct point
        assert stats.cache_hits == 13
        # Duplicate answers are the very same NNResult object.
        assert results[0] is results[1]

    def test_warm_cache_short_circuits_the_window(self, small_tree):
        config = QueryConfig(k=2, algorithm="best-first")
        with QueryEngine(
            small_tree,
            config=config,
            options=EngineOptions(packed=True, workers=1),
        ) as eng:
            eng.query((500.0, 500.0))
            eng.query_batch([(500.0, 500.0), (500.0, 500.0)])
            stats = eng.stats()
        assert stats.executed == 1
        assert stats.cache_hits == 2

    def test_cache_disabled_executes_every_member(self, small_tree):
        config = QueryConfig(k=2, algorithm="best-first")
        with QueryEngine(
            small_tree,
            config=config,
            options=EngineOptions(packed=True, workers=1, cache_size=0),
        ) as eng:
            eng.query_batch([(500.0, 500.0)] * 6)
            assert eng.stats().executed == 6

    def test_latency_records_one_sample_per_query(self, small_tree):
        config = QueryConfig(k=2, algorithm="best-first")
        queries = query_points_uniform(8, seed=3)
        with QueryEngine(
            small_tree,
            config=config,
            options=EngineOptions(packed=True, workers=1, cache_size=0),
        ) as eng:
            eng.query_batch(queries)
            assert eng.stats().queries == len(queries)
            assert eng._latency.count == len(queries)


class TestRoutingGate:
    """Configs the batch kernel cannot take must fall back, not break."""

    @pytest.mark.parametrize(
        "config",
        [
            QueryConfig(k=3),  # dfs
            QueryConfig(
                k=3, algorithm="best-first", budget=Budget(max_pages=4)
            ),
        ],
        ids=["dfs", "budgeted"],
    )
    def test_fallback_configs_still_serve(self, medium_tree, config):
        queries = query_points_uniform(12, seed=11)
        with QueryEngine(
            medium_tree,
            config=config,
            options=EngineOptions(packed=True, workers=1, cache_size=0),
        ) as eng:
            served = eng.query_batch(queries)
            assert eng.stats().executed == len(queries)
        with QueryEngine(
            medium_tree, config=config, options=EngineOptions(workers=1)
        ) as eng:
            expected = [eng.query(q) for q in queries]
        for got, want in zip(served, expected):
            assert got.payloads() == want.payloads()
            assert got.distances() == want.distances()

    def test_multi_worker_batches_still_serve(self, medium_tree):
        config = QueryConfig(k=3, algorithm="best-first")
        queries = query_points_uniform(12, seed=13)
        with QueryEngine(
            medium_tree,
            config=config,
            options=EngineOptions(packed=True, workers=4, cache_size=0),
        ) as eng:
            served = eng.query_batch(queries)
        expected = [nearest(medium_tree, q, config=config) for q in queries]
        for got, want in zip(served, expected):
            assert got.distances() == want.distances()
