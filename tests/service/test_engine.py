"""QueryEngine behavior: caching, invalidation, concurrency, accounting.

The acceptance properties pinned here:

- a repeated query is served from the result cache;
- any insert/delete bumps the tree epoch and invalidates the cache;
- a cache hit performs **zero** tracker (page) accesses;
- engine results are identical to a sequential ``nearest`` loop;
- 8 threads querying while another thread inserts through the engine
  never deadlock, crash, or return answers that disagree with the
  ``linear_scan`` oracle.
"""

import threading

import pytest

from repro import EngineOptions, QueryConfig, QueryEngine, linear_scan, nearest
from repro.datasets import uniform_points
from repro.datasets.queries import (
    query_points_clustered_sessions,
    query_points_uniform,
)
from repro.errors import InvalidParameterError
from repro.rtree.disk import build_disk_index, DiskRTree
from repro.service.engine import DEFAULT_CACHE_SIZE

from tests.conftest import build_point_tree

pytestmark = pytest.mark.service


@pytest.fixture
def engine(small_tree):
    with QueryEngine(
        small_tree, config=QueryConfig(k=3), options=EngineOptions(workers=1)
    ) as eng:
        yield eng


class TestQueryCaching:
    def test_repeat_query_hits_cache(self, engine):
        first = engine.query((500.0, 500.0))
        second = engine.query((500.0, 500.0))
        assert second is first  # the very same cached NNResult
        stats = engine.stats()
        assert stats.queries == 2
        assert stats.cache_hits == 1
        assert stats.executed == 1
        assert stats.hit_ratio == 0.5

    def test_cache_hit_touches_zero_pages(self, engine):
        engine.query((500.0, 500.0))
        pages_after_miss = engine.tracker.aggregate().total
        assert pages_after_miss > 0
        engine.query((500.0, 500.0))
        assert engine.tracker.aggregate().total == pages_after_miss

    def test_different_k_is_a_different_entry(self, engine):
        a = engine.query((500.0, 500.0), k=2)
        b = engine.query((500.0, 500.0), k=5)
        assert len(a) == 2 and len(b) == 5
        assert engine.stats().cache_hits == 0

    def test_different_config_is_a_different_entry(self, engine):
        engine.query((500.0, 500.0))
        engine.query((500.0, 500.0), config=QueryConfig(k=3, algorithm="best-first"))
        assert engine.stats().cache_hits == 0

    def test_cache_disabled_always_executes(self, small_tree):
        with QueryEngine(
            small_tree, options=EngineOptions(workers=1, cache_size=0)
        ) as eng:
            eng.query((500.0, 500.0))
            eng.query((500.0, 500.0))
            stats = eng.stats()
            assert stats.cache_hits == 0
            assert stats.executed == 2


class TestEpochInvalidation:
    def test_insert_invalidates(self, small_tree):
        with QueryEngine(
            small_tree,
            config=QueryConfig(k=1),
            options=EngineOptions(workers=1),
        ) as eng:
            before = eng.query((500.0, 500.0))
            eng.insert((500.0, 500.0), payload="new-closest")
            after = eng.query((500.0, 500.0))
            assert after is not before
            assert after.payloads() == ["new-closest"]
            assert after.distances()[0] == 0.0
            stats = eng.stats()
            assert stats.cache_hits == 0
            assert stats.executed == 2
            assert stats.cache_invalidated >= 1

    def test_delete_invalidates(self, small_tree):
        with QueryEngine(
            small_tree,
            config=QueryConfig(k=1),
            options=EngineOptions(workers=1),
        ) as eng:
            victim = eng.query((500.0, 500.0))
            rect = victim[0].rect
            payload = victim[0].payload
            epoch_before = eng.stats().epoch
            assert eng.delete(rect, payload)
            replacement = eng.query((500.0, 500.0))
            assert eng.stats().epoch > epoch_before
            assert replacement.payloads() != victim.payloads()

    def test_epoch_survives_unrelated_queries(self, engine):
        engine.query((100.0, 100.0))
        epoch = engine.stats().epoch
        engine.query((900.0, 900.0))
        assert engine.stats().epoch == epoch


class TestBatchSemantics:
    def test_batch_matches_sequential_nearest(self, medium_tree):
        queries = query_points_uniform(64, seed=31)
        config = QueryConfig(k=4)
        expected = [nearest(medium_tree, q, config=config) for q in queries]
        with QueryEngine(
            medium_tree, config=config, options=EngineOptions(workers=4)
        ) as eng:
            served = eng.query_batch(queries)
        assert len(served) == len(expected)
        for got, want in zip(served, expected):
            assert got.distances() == want.distances()
            assert got.payloads() == want.payloads()

    def test_batch_coalesces_duplicates(self, small_tree):
        queries = [(500.0, 500.0)] * 10 + [(100.0, 100.0)] * 5
        with QueryEngine(small_tree, options=EngineOptions(workers=4)) as eng:
            results = eng.query_batch(queries)
            stats = eng.stats()
        assert len(results) == 15
        assert stats.executed == 2  # one search per distinct point
        assert stats.cache_hits == 13

    def test_batch_without_cache_runs_everything(self, small_tree):
        queries = [(500.0, 500.0)] * 6
        with QueryEngine(
            small_tree, options=EngineOptions(workers=4, cache_size=0)
        ) as eng:
            eng.query_batch(queries)
            assert eng.stats().executed == 6

    def test_clustered_sessions_hit_rate(self, medium_points, medium_tree):
        queries = query_points_clustered_sessions(
            200, medium_points, distinct=20, seed=32
        )
        with QueryEngine(medium_tree, config=QueryConfig(k=4)) as eng:
            eng.query_batch(queries)
            stats = eng.stats()
        assert stats.cache_hits >= 180  # <= 20 distinct points executed
        assert stats.pages_per_query > 0

    def test_empty_batch_rejected(self, engine):
        with pytest.raises(InvalidParameterError):
            engine.query_batch([])

    def test_closed_engine_rejects_queries(self, small_tree):
        eng = QueryEngine(small_tree, options=EngineOptions(workers=2))
        eng.close()
        with pytest.raises(InvalidParameterError):
            eng.query_batch([(0.0, 0.0)])
        eng.close()  # idempotent


class TestConcurrencyWithMutations:
    def test_eight_threads_query_while_inserting(self):
        """8 query threads race an inserter; answers must match the oracle.

        The inserter adds points far outside the data extent, so the true
        k-NN answer for every in-extent query is unchanged — any deviation
        means a reader observed a torn tree state.
        """
        points = uniform_points(400, seed=41)
        tree = build_point_tree(points, max_entries=8)
        queries = query_points_uniform(40, seed=42)
        oracle = {
            q: [n.distance for n in linear_scan(tree, q, k=3)] for q in queries
        }
        failures = []
        stop = threading.Event()

        with QueryEngine(
            tree, config=QueryConfig(k=3), options=EngineOptions(workers=4)
        ) as eng:

            def querier():
                try:
                    for _ in range(5):
                        for q in queries:
                            got = eng.query(q).distances()
                            if got != pytest.approx(oracle[q]):
                                failures.append((q, got, oracle[q]))
                except Exception as exc:
                    failures.append(exc)

            def mutator():
                offset = 0
                while not stop.is_set():
                    eng.insert(
                        (50000.0 + offset, 50000.0 + offset),
                        payload=f"far-{offset}",
                    )
                    offset += 1

            threads = [threading.Thread(target=querier) for _ in range(8)]
            writer = threading.Thread(target=mutator)
            for t in threads:
                t.start()
            writer.start()
            for t in threads:
                t.join(timeout=60.0)
            stop.set()
            writer.join(timeout=60.0)

            assert not failures
            stats = eng.stats()
            assert stats.queries == 8 * 5 * len(queries)
            assert stats.epoch > 0  # the mutator really ran

    def test_insert_bumps_visible_epoch_under_load(self, small_tree):
        with QueryEngine(small_tree, options=EngineOptions(workers=2)) as eng:
            eng.query((500.0, 500.0))
            epoch = eng.stats().epoch
            eng.insert((1.0, 1.0), payload="x")
            eng.query((500.0, 500.0))
            assert eng.stats().epoch == epoch + 1


class TestDiskTreeServing:
    def test_serves_disk_tree_and_rejects_mutation(self, tmp_path, small_points):
        path = tmp_path / "tree.rnn"
        items = [(p, i) for i, p in enumerate(small_points)]
        with build_disk_index(items, path):
            pass
        with DiskRTree(path) as disk:
            with QueryEngine(
                disk, config=QueryConfig(k=3), options=EngineOptions(workers=4)
            ) as eng:
                queries = query_points_uniform(16, seed=43)
                served = eng.query_batch(queries)
                expected = [nearest(disk, q, k=3) for q in queries]
                for got, want in zip(served, expected):
                    assert got.distances() == want.distances()
                with pytest.raises(InvalidParameterError):
                    eng.insert((0.0, 0.0), payload="nope")
                with pytest.raises(InvalidParameterError):
                    eng.delete((0.0, 0.0), payload="nope")

    def test_disk_tree_with_buffer_pool_shards(self, tmp_path, small_points):
        path = tmp_path / "tree.rnn"
        with build_disk_index([(p, i) for i, p in enumerate(small_points)], path):
            pass
        with DiskRTree(path) as disk:
            with QueryEngine(
                disk, options=EngineOptions(workers=4, buffer_pages=32)
            ) as eng:
                eng.query_batch(query_points_uniform(32, seed=44))
                stats = eng.stats()
                logical = eng.tracker.aggregate().total
                assert 0 < stats.physical_reads <= logical


class TestEngineConstruction:
    def test_invalid_workers(self, small_tree):
        with pytest.raises(InvalidParameterError):
            QueryEngine(small_tree, options=EngineOptions(workers=0))

    def test_invalid_buffer_pages(self, small_tree):
        with pytest.raises(InvalidParameterError):
            QueryEngine(small_tree, options=EngineOptions(buffer_pages=-1))

    def test_defaults(self, small_tree):
        with QueryEngine(small_tree) as eng:
            assert eng.workers == 4
            assert eng.cache.capacity == DEFAULT_CACHE_SIZE
            assert "QueryEngine" in repr(eng)

    def test_stats_render_mentions_key_counters(self, engine):
        engine.query((500.0, 500.0))
        report = engine.stats().render()
        for needle in ("queries", "cache hits", "latency p95", "epoch"):
            assert needle in report
