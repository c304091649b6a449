"""The advisor: windowed registry deltas → structured recommendations."""

import pytest

from repro.datasets import uniform_points
from repro.datasets.queries import (
    query_points_clustered_sessions,
    query_points_uniform,
)
from repro.errors import InvalidParameterError
from repro.geometry.rect import Rect
from repro.obs import Advisor, MetricsRegistry, Recommendation
from repro.service.options import EngineOptions
from repro.shard import ShardedQueryEngine

pytestmark = pytest.mark.obs


class _FakeSource:
    """A mutable dict registered as a live metrics source."""

    def __init__(self, **values):
        self.values = dict(values)

    def __call__(self):
        return dict(self.values)

    def update(self, **values):
        self.values.update(values)


def _advisor(source_name, source, **kwargs):
    registry = MetricsRegistry()
    registry.register(source_name, source)
    kwargs.setdefault("min_queries", 10)
    return Advisor(registry, **kwargs)


class TestValidation:
    def test_window_too_small(self):
        with pytest.raises(InvalidParameterError):
            Advisor(MetricsRegistry(), window=1)

    @pytest.mark.parametrize("kwargs", [
        {"drift_ratio": 1.0}, {"drift_ratio": 0.5},
        {"skew_ratio": 1.0}, {"skew_ratio": 0.9},
    ])
    def test_ratios_must_exceed_one(self, kwargs):
        with pytest.raises(InvalidParameterError):
            Advisor(MetricsRegistry(), **kwargs)


class TestObservation:
    def test_needs_two_snapshots(self):
        advisor = _advisor("engine", _FakeSource(queries=0))
        assert advisor.recommendations() == []
        advisor.observe()
        assert advisor.recommendations() == []
        advisor.observe()
        assert advisor.snapshots == 2

    def test_window_is_bounded(self):
        advisor = _advisor("engine", _FakeSource(queries=0), window=3)
        for _ in range(10):
            advisor.observe()
        assert advisor.snapshots == 3

    def test_non_numeric_and_bool_values_skipped(self):
        source = _FakeSource(queries=1, ready=True, label="x")
        advisor = _advisor("engine", source)
        advisor.observe()
        snap = advisor._snapshots[0]
        assert "engine.queries" in snap
        assert "engine.ready" not in snap
        assert "engine.label" not in snap


class TestPagesDriftRule:
    def _drift(self, early_ppq, recent_ppq, queries_per_phase=100):
        source = _FakeSource(pages_per_query=0.0, executed=0)
        advisor = _advisor("engine", source, window=3)
        advisor.observe()
        # Phase 1: queries at early_ppq pages each.
        executed = queries_per_phase
        pages = early_ppq * queries_per_phase
        source.update(
            pages_per_query=pages / executed, executed=executed
        )
        advisor.observe()
        # Phase 2: same volume at recent_ppq pages each.
        executed += queries_per_phase
        pages += recent_ppq * queries_per_phase
        source.update(
            pages_per_query=pages / executed, executed=executed
        )
        advisor.observe()
        return advisor.recommendations()

    def test_fires_on_drift(self):
        recs = self._drift(early_ppq=10.0, recent_ppq=30.0)
        kinds = [r.kind for r in recs]
        assert "re-pack" in kinds
        (rec,) = [r for r in recs if r.kind == "re-pack"]
        assert rec.severity == "warn"
        assert rec.evidence["ratio"] == pytest.approx(3.0)
        assert rec.evidence["early_pages_per_query"] == pytest.approx(10.0)
        assert rec.evidence["recent_pages_per_query"] == pytest.approx(30.0)

    def test_quiet_on_steady_cost(self):
        assert self._drift(early_ppq=10.0, recent_ppq=11.0) == []

    def test_quiet_below_min_queries(self):
        assert self._drift(
            early_ppq=10.0, recent_ppq=30.0, queries_per_phase=4
        ) == []

    def test_quiet_when_idle(self):
        source = _FakeSource(pages_per_query=12.0, executed=500)
        advisor = _advisor("engine", source, window=3)
        for _ in range(3):  # no new work between snapshots
            advisor.observe()
        assert advisor.recommendations() == []


class TestShardSkewRule:
    def _skew(self, page_deltas, requests=200):
        values = {}
        for i in range(len(page_deltas)):
            values[f"shard{i}.pages"] = 0
            values[f"shard{i}.requests"] = 0
        source = _FakeSource(**values)
        advisor = _advisor("shards", source, window=2)
        advisor.observe()
        per_shard = requests // len(page_deltas)
        source.update(**{
            key: value
            for i, delta in enumerate(page_deltas)
            for key, value in {
                f"shard{i}.pages": delta,
                f"shard{i}.requests": per_shard,
            }.items()
        })
        advisor.observe()
        return advisor.recommendations()

    def test_fires_on_hot_shard(self):
        recs = self._skew([1000, 50, 50, 50])
        (rec,) = [r for r in recs if r.kind == "shard-rebalance"]
        assert rec.evidence["hot_shard"] == 0.0
        assert rec.evidence["ratio"] > 2.0
        assert "shard 0" in rec.message

    def test_quiet_on_balanced_shards(self):
        assert self._skew([100, 110, 95, 105]) == []

    def test_quiet_below_min_queries(self):
        assert self._skew([1000, 50, 50, 50], requests=8) == []


class TestCoalescerAndCacheRules:
    def test_cache_tune_fires_on_cold_cache(self):
        source = _FakeSource(queries=0, cache_hits=0)
        advisor = _advisor("engine", source, window=2)
        advisor.observe()
        source.update(queries=400, cache_hits=3)
        advisor.observe()
        (rec,) = advisor.recommendations()
        assert rec.kind == "cache-tune"
        assert rec.evidence["hit_rate"] == pytest.approx(3 / 400)

    def test_cache_quiet_on_warm_cache(self):
        source = _FakeSource(queries=0, cache_hits=0)
        advisor = _advisor("engine", source, window=2)
        advisor.observe()
        source.update(queries=400, cache_hits=200)
        advisor.observe()
        assert advisor.recommendations() == []


class TestRendering:
    def test_render_no_advice(self):
        advisor = Advisor(MetricsRegistry())
        assert advisor.render() == "advisor: no recommendations"

    def test_render_includes_evidence(self):
        source = _FakeSource(queries=0, cache_hits=0)
        advisor = _advisor("engine", source, window=2)
        advisor.observe()
        source.update(queries=400, cache_hits=0)
        advisor.observe()
        text = advisor.render()
        assert "[info] cache-tune:" in text
        assert "hit_rate=0" in text

    def test_recommendation_as_dict(self):
        rec = Recommendation(
            kind="re-pack", severity="warn", message="m", evidence={"r": 2.0}
        )
        assert rec.as_dict() == {
            "kind": "re-pack",
            "severity": "warn",
            "message": "m",
            "evidence": {"r": 2.0},
        }


@pytest.mark.shard
class TestSeededWorkloadDrift:
    """The ISSUE's acceptance scenario: a workload that drifts from
    uniform queries to clustered sessions hammering one spatial region
    must trip the shard-rebalance advice on a real sharded engine."""

    def test_clustered_sessions_trip_shard_rebalance(self):
        points = uniform_points(1200, seed=31)
        items = [(Rect.from_point(p), i) for i, p in enumerate(points)]
        # Cache off: clustered sessions re-ask identical points, and a
        # result-cache hit does no page work — the drift must reach the
        # shards to be measurable there.
        engine = ShardedQueryEngine(
            items=items,
            shards=4,
            processes=False,
            options=EngineOptions(cache_size=0),
        )
        registry = MetricsRegistry()
        engine.register_metrics(registry)
        advisor = Advisor(registry, window=4, min_queries=50)
        try:
            # Phase 1 — the workload the partition was planned for:
            # uniform queries spread page work across all shards.
            advisor.observe()
            for q in query_points_uniform(120, seed=32):
                engine.query(q, k=5)
            advisor.observe()
            assert not any(
                r.kind == "shard-rebalance"
                for r in advisor.recommendations()
            )

            # Phase 2 — drift: clustered sessions re-ask from hot spots
            # around one corner of the space, so one spatial shard
            # absorbs nearly all the traversal work.
            corner = [p for p in points if p[0] < 150 and p[1] < 150]
            assert len(corner) >= 5
            sessions = query_points_clustered_sessions(
                240, corner, distinct=6, seed=33, noise=5.0
            )
            for q in sessions:
                engine.query(q, k=5)
            advisor.observe()
        finally:
            engine.close()

        recs = advisor.recommendations()
        rebalance = [r for r in recs if r.kind == "shard-rebalance"]
        assert rebalance, advisor.render()
        assert rebalance[0].evidence["ratio"] >= advisor.skew_ratio
