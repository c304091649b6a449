"""QueryEngine forensics: request ids, tail sampling, the slow-query log."""

import io

import pytest

from repro import EngineOptions, bulk_load
from repro.core.config import QueryConfig
from repro.datasets.synthetic import uniform_points
from repro.errors import InvalidParameterError
from repro.obs import Trace, load_jsonl
from repro.service.engine import QueryEngine

pytestmark = [pytest.mark.obs, pytest.mark.service]


@pytest.fixture(scope="module")
def tree():
    points = uniform_points(400, seed=93)
    return bulk_load([(p, i) for i, p in enumerate(points)], max_entries=8)


QUERIES = [(100.0, 100.0), (500.0, 500.0), (900.0, 100.0)]


class TestRequestIds:
    def test_user_trace_gets_monotonic_request_id(self, tree):
        with QueryEngine(
            tree, config=QueryConfig(k=2), options=EngineOptions(workers=1)
        ) as eng:
            seen = []
            for query in QUERIES:
                trace = Trace()
                eng.query(query, trace=trace)
                seen.append(trace.request_id)
            assert seen == sorted(seen)
            assert len(set(seen)) == len(seen)
            assert all(rid >= 1 for rid in seen)

    def test_cache_verdict_recorded_in_trace(self, tree):
        with QueryEngine(
            tree, config=QueryConfig(k=2), options=EngineOptions(workers=1)
        ) as eng:
            miss = Trace()
            eng.query(QUERIES[0], trace=miss)
            hit = Trace()
            eng.query(QUERIES[0], trace=hit)
            assert ("cache", "miss") in miss.events
            assert ("cache", "hit") in hit.events
            # A hit runs no search: the trace holds only the verdict.
            assert hit.pages_entered() == 0
            assert miss.pages_entered() >= 1


class TestSlowQueryLog:
    def test_threshold_zero_logs_every_executed_query(self, tree):
        with QueryEngine(
            tree,
            config=QueryConfig(k=3),
            options=EngineOptions(workers=1, slow_query_ms=0.0),
        ) as eng:
            for query in QUERIES:
                eng.query(query)
            records = eng.slow_queries.records()
            assert len(records) == 3
            assert [r.request_id for r in records] == sorted(
                r.request_id for r in records
            )
            for record in records:
                # Tail sampling attaches a full trace to every offender.
                assert record.trace is not None
                assert record.trace.pages_entered() == record.stats[
                    "nodes_accessed"
                ]
                assert record.config == QueryConfig(k=3).describe()
                assert record.latency_ms >= 0.0

    def test_cache_hits_never_logged(self, tree):
        with QueryEngine(
            tree,
            config=QueryConfig(k=3),
            options=EngineOptions(workers=1, slow_query_ms=0.0),
        ) as eng:
            eng.query(QUERIES[0])
            eng.query(QUERIES[0])  # hit — executes nothing
            assert eng.slow_queries.observed == 1
            assert eng.stats().cache_hits == 1

    def test_unreachable_threshold_logs_nothing(self, tree):
        with QueryEngine(
            tree,
            config=QueryConfig(k=3),
            options=EngineOptions(workers=1, slow_query_ms=1e9),
        ) as eng:
            for query in QUERIES:
                eng.query(query)
            assert len(eng.slow_queries) == 0

    def test_forensics_disabled_by_default(self, tree):
        with QueryEngine(tree, options=EngineOptions(workers=1)) as eng:
            eng.query(QUERIES[0])
            assert eng.slow_queries is None

    def test_negative_threshold_rejected(self, tree):
        with pytest.raises(InvalidParameterError):
            QueryEngine(tree, options=EngineOptions(slow_query_ms=-1.0))

    def test_user_trace_is_preserved_in_record(self, tree):
        with QueryEngine(
            tree,
            config=QueryConfig(k=2),
            options=EngineOptions(workers=1, slow_query_ms=0.0),
        ) as eng:
            trace = Trace(label="mine")
            eng.query(QUERIES[0], trace=trace)
            record = eng.slow_queries.records()[0]
            assert record.trace is trace
            assert record.request_id == trace.request_id

    def test_dump_then_cli_load_roundtrip(self, tree):
        with QueryEngine(
            tree,
            config=QueryConfig(k=3),
            options=EngineOptions(workers=1, slow_query_ms=0.0),
        ) as eng:
            for query in QUERIES:
                eng.query(query)
            buf = io.StringIO()
            eng.slow_queries.dump_jsonl(buf)
        buf.seek(0)
        loaded = load_jsonl(buf)
        assert len(loaded) == 3
        assert all(r.trace is not None for r in loaded)


class TestEngineStatsExport:
    def test_export_flattens_for_registry(self, tree):
        from repro.obs import MetricsRegistry

        with QueryEngine(
            tree, config=QueryConfig(k=2), options=EngineOptions(workers=1)
        ) as eng:
            eng.query(QUERIES[0])
            eng.query(QUERIES[0])
            registry = MetricsRegistry()
            registry.register("engine", lambda: eng.stats())
            flat = registry.collect()
            assert flat["engine.queries"] == 2
            assert flat["engine.cache_hits"] == 1
            assert flat["engine.hit_ratio"] == pytest.approx(0.5)
            assert flat["engine.latency_max_ms"] >= flat[
                "engine.latency_p50_ms"
            ] * 0  # both present and numeric
            snap = eng.stats()
            assert snap.export() == snap.as_dict()
