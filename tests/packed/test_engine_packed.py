"""The packed path through the serving layer and batch API."""

from dataclasses import replace

import pytest

from repro import (
    EngineOptions,
    QueryConfig,
    QueryEngine,
    RTree,
    nearest_batch,
)
from repro.baselines.kdtree import KdTree
from repro.baselines.linear_scan import linear_scan
from repro.geometry.rect import Rect
from repro.errors import InvalidParameterError

pytestmark = [pytest.mark.packed, pytest.mark.service]

ONE_WORKER = EngineOptions(workers=1)
PACKED_ONE = EngineOptions(workers=1, packed=True)
PACKED_BATCH = replace(EngineOptions.batch_defaults(), packed=True)


def _tree(n=600):
    tree = RTree(max_entries=8)
    for i in range(n):
        tree.insert(
            (float((i * 7) % 101), float((i * 13) % 97)), payload=i
        )
    return tree


def _queries(n=40):
    return [
        (float((i * 3) % 100) + 0.5, float((i * 11) % 90) + 0.25)
        for i in range(n)
    ]


class TestEnginePacked:
    def test_results_identical_to_object_path(self):
        tree = _tree()
        queries = _queries()
        config = QueryConfig(k=5)
        with QueryEngine(tree, config=config, options=PACKED_ONE) as pk, \
                QueryEngine(tree, config=config, options=ONE_WORKER) as obj:
            for a, b in zip(pk.query_batch(queries), obj.query_batch(queries)):
                assert a.payloads() == b.payloads()
                assert a.distances() == b.distances()
                assert a.stats == b.stats

    def test_rebuild_on_epoch_bump(self):
        tree = _tree()
        with QueryEngine(tree, options=PACKED_ONE) as engine:
            engine.query((50.0, 50.0), k=1)
            before = tree.packed()
            assert before.epoch == tree.epoch
            # A mediated mutation bumps the epoch; the next query must
            # recompile and see the new point.
            engine.insert((50.25, 50.25), payload=777_777)
            result = engine.query((50.25, 50.25), k=1)
            assert result.payloads() == [777_777]
            after = tree.packed()
            assert after is not before
            assert after.epoch == tree.epoch
            assert len(after) == len(tree)

    def test_best_first_config_routes_packed(self):
        tree = _tree()
        config = QueryConfig(k=3, algorithm="best-first")
        with QueryEngine(tree, config=config, options=PACKED_ONE) as pk, \
                QueryEngine(tree, config=config, options=ONE_WORKER) as obj:
            for q in _queries(10):
                a, b = pk.query(q), obj.query(q)
                assert a.payloads() == b.payloads()
                assert a.stats == b.stats

    def test_object_distance_hook_falls_back(self):
        tree = _tree()

        def hook(query, payload, rect):
            dx = query[0] - rect.lo[0]
            dy = query[1] - rect.lo[1]
            return dx * dx + dy * dy

        config = QueryConfig(k=3, object_distance_sq=hook)
        with QueryEngine(tree, config=config, options=PACKED_ONE) as pk, \
                QueryEngine(tree, config=config, options=ONE_WORKER) as obj:
            for q in _queries(10):
                a, b = pk.query(q), obj.query(q)
                assert a.payloads() == b.payloads()
                assert a.stats == b.stats

    def test_cache_serves_packed_results(self):
        tree = _tree()
        with QueryEngine(tree, options=PACKED_ONE) as engine:
            first = engine.query((10.0, 10.0), k=2)
            second = engine.query((10.0, 10.0), k=2)
            assert second is first  # served from the result cache
            assert engine.stats().cache_hits == 1

    def test_multiworker_packed_batch(self):
        tree = _tree()
        queries = _queries(60)
        config = QueryConfig(k=4)
        with QueryEngine(
            tree,
            config=config,
            options=EngineOptions(workers=4, packed=True),
        ) as pk, QueryEngine(tree, config=config, options=ONE_WORKER) as obj:
            for a, b in zip(pk.query_batch(queries), obj.query_batch(queries)):
                assert a.payloads() == b.payloads()
                assert a.stats == b.stats

    def test_multiworker_churn_matches_linear_scan(self):
        """Writes interleaved with four-worker read windows: every window
        after a write is answered from an incrementally recompiled slab
        set and must still be the exact answer."""
        tree = _tree(300)
        queries = _queries(24)
        live = list(tree.items())
        with QueryEngine(
            tree,
            config=QueryConfig(k=5),
            options=EngineOptions(workers=4, packed=True, cache_size=0),
        ) as engine:
            for step in range(60):
                if step % 3 == 2:
                    rect, payload = live.pop((step * 7) % len(live))
                    assert engine.delete(rect, payload)
                else:
                    x, y = float((step * 29) % 101), float((step * 31) % 97)
                    rect = (
                        Rect((x, y), (x + 1.5, y + 0.5))
                        if step % 4 == 0
                        else Rect.from_point((x + 0.5, y))
                    )
                    engine.insert(rect, payload=10_000 + step)
                    live.append((rect, 10_000 + step))
                for query, result in zip(queries, engine.query_batch(queries)):
                    expected = linear_scan(tree, query, k=5)
                    assert result.distances() == [n.distance for n in expected]
            assert len(tree) == len(live)

    def test_packed_requires_compilable_tree(self):
        points = [(float(i), float(i)) for i in range(10)]
        kdtree = KdTree([(p, i) for i, p in enumerate(points)])
        with pytest.raises(InvalidParameterError):
            QueryEngine(kdtree, options=EngineOptions(packed=True))


class TestBatchPacked:
    def test_nearest_batch_parity(self):
        tree = _tree()
        queries = _queries()
        pk_results, pk_stats, pk_reads = nearest_batch(
            tree, queries, k=3, options=PACKED_BATCH
        )
        obj_results, obj_stats, obj_reads = nearest_batch(tree, queries, k=3)
        assert [r.payloads() for r in pk_results] == [
            r.payloads() for r in obj_results
        ]
        assert pk_stats == obj_stats
        assert pk_reads == obj_reads

    def test_nearest_batch_packed_with_hook_falls_back(self):
        tree = _tree()

        def hook(query, payload, rect):
            dx = query[0] - rect.lo[0]
            dy = query[1] - rect.lo[1]
            return dx * dx + dy * dy

        config = QueryConfig(k=2, object_distance_sq=hook)
        pk_results, _, _ = nearest_batch(
            tree, _queries(10), config=config, options=PACKED_BATCH
        )
        obj_results, _, _ = nearest_batch(tree, _queries(10), config=config)
        assert [r.payloads() for r in pk_results] == [
            r.payloads() for r in obj_results
        ]
