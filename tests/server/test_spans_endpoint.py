"""Request spans at the front door: sampling, /spans, the spans=False floor."""

import io
import json

import pytest

from repro.errors import InvalidParameterError
from repro.obs.registry import MetricsRegistry, lint_prometheus
from repro.obs.spans import load_spans_jsonl
from repro.server import ServerConfig
from repro.service.options import EngineOptions
from repro.shard import ShardedQueryEngine

from tests.server.conftest import ITEMS, certify

pytestmark = [pytest.mark.server, pytest.mark.obs]


class TestSampledTraces:
    def test_trace_flag_forces_sampling(self, serve):
        harness = serve(config=ServerConfig(span_sample=0.0))
        status, _, body = harness.request_json(
            "POST", "/query",
            {"point": [0.5, 0.5], "k": 3, "trace": True},
        )
        assert status == 200
        assert "trace" in body
        certify(body, (0.5, 0.5), 3, combo="span-forced")

        status, headers, raw = harness.request("GET", "/spans")
        assert status == 200
        assert headers.get("X-Content-Format") == "jsonl"
        spans = load_spans_jsonl(io.StringIO(raw.decode("utf-8")))
        trace = [s for s in spans if s.trace_id == body["trace"]]
        names = {s.name for s in trace}
        assert "http.request" in names
        assert "engine.query" in names
        assert "kernel" in names

    def test_span_tree_carries_kernel_page_accounting(self, serve):
        harness = serve(config=ServerConfig(span_sample=1.0))
        _, _, body = harness.request_json(
            "POST", "/query", {"point": [0.2, 0.8], "k": 5}
        )
        _, _, raw = harness.request("GET", "/spans")
        spans = load_spans_jsonl(io.StringIO(raw.decode("utf-8")))
        trace = [s for s in spans if s.trace_id == body["trace"]]
        (kernel,) = [s for s in trace if s.name == "kernel"]
        assert kernel.attrs["pages"] >= 1
        assert kernel.attrs["objects"] >= 5
        (http,) = [s for s in trace if s.name == "http.request"]
        assert http.attrs["status"] == 200
        assert http.parent_id is None

    def test_unsampled_request_emits_no_trace(self, serve):
        harness = serve(config=ServerConfig(span_sample=0.0))
        status, _, body = harness.request_json(
            "POST", "/query", {"point": [0.5, 0.5], "k": 2}
        )
        assert status == 200
        assert "trace" not in body
        status, _, raw = harness.request("GET", "/spans")
        assert status == 200
        assert raw == b""

    def test_batch_shares_one_trace(self, serve):
        harness = serve(config=ServerConfig(span_sample=1.0))
        points = [[0.1, 0.1], [0.9, 0.9]]
        status, _, body = harness.request_json(
            "POST", "/batch", {"points": points, "k": 3}
        )
        assert status == 200
        assert "trace" in body
        _, _, raw = harness.request("GET", "/spans")
        spans = load_spans_jsonl(io.StringIO(raw.decode("utf-8")))
        trace = [s for s in spans if s.trace_id == body["trace"]]
        (root,) = [s for s in trace if s.name == "http.request"]
        assert root.attrs["points"] == len(points)

    def test_seeded_sampler_is_deterministic(self, serve):
        decisions = []
        for _ in range(2):
            harness = serve(
                config=ServerConfig(span_sample=0.5, span_seed=7)
            )
            run = []
            for i in range(8):
                _, _, body = harness.request_json(
                    "POST", "/query", {"point": [0.5, 0.5], "k": 1}
                )
                run.append("trace" in body)
            decisions.append(run)
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) and not all(decisions[0])

    def test_span_log_stats_exported(self, serve):
        registry = MetricsRegistry()
        harness = serve(
            config=ServerConfig(span_sample=1.0), registry=registry
        )
        harness.request_json("POST", "/query", {"point": [0.5, 0.5], "k": 1})
        flat = registry.collect()
        assert flat["server.spans.observed"] == 1
        assert flat["server.spans.kept"] == 1


class TestSpansDisabledFloor:
    """ServerConfig(spans=False) is the pre-span serving path."""

    def test_no_trace_machinery_when_disabled(self, serve):
        harness = serve(config=ServerConfig(spans=False))
        status, _, body = harness.request_json(
            "POST", "/query",
            {"point": [0.5, 0.5], "k": 3, "trace": True},  # ignored
        )
        assert status == 200
        assert "trace" not in body
        certify(body, (0.5, 0.5), 3, combo="spans-off")

    def test_spans_endpoint_404_when_disabled(self, serve):
        harness = serve(config=ServerConfig(spans=False))
        status, _, raw = harness.request("GET", "/spans")
        assert status == 404
        assert b"tracing is disabled" in raw

    def test_no_span_metrics_when_disabled(self, serve):
        registry = MetricsRegistry()
        harness = serve(config=ServerConfig(spans=False), registry=registry)
        harness.request_json("POST", "/query", {"point": [0.5, 0.5], "k": 1})
        assert not any(
            name.startswith("server.spans") for name in registry.collect()
        )


class TestSpansEndpoint:
    def test_get_only(self, serve):
        harness = serve()
        status, _, _ = harness.request("POST", "/spans")
        assert status == 405

    def test_jsonl_lines_are_sorted_compact_json(self, serve):
        harness = serve(config=ServerConfig(span_sample=1.0))
        harness.request_json("POST", "/query", {"point": [0.5, 0.5], "k": 2})
        _, _, raw = harness.request("GET", "/spans")
        for line in raw.decode("utf-8").splitlines():
            record = json.loads(line)
            assert list(record) == sorted(record)
            assert ": " not in line and ", " not in line

    def test_ring_bounded_by_span_log_config(self, serve):
        harness = serve(config=ServerConfig(span_sample=1.0, span_log=2))
        for _ in range(5):
            harness.request_json(
                "POST", "/query", {"point": [0.5, 0.5], "k": 1}
            )
        _, _, raw = harness.request("GET", "/spans")
        spans = load_spans_jsonl(io.StringIO(raw.decode("utf-8")))
        assert len({s.trace_id for s in spans}) == 2


class TestConfigValidation:
    def test_span_sample_range(self):
        with pytest.raises(InvalidParameterError):
            ServerConfig(span_sample=1.5)
        with pytest.raises(InvalidParameterError):
            ServerConfig(span_sample=-0.1)

    def test_span_log_floor(self):
        with pytest.raises(InvalidParameterError):
            ServerConfig(span_log=0)


class TestStatsGauges:
    """Satellite: coalescer fill/bypass and per-shard gauges on /stats."""

    def test_coalescer_gauges_exported_and_lint_clean(self, serve):
        registry = MetricsRegistry()
        harness = serve(
            config=ServerConfig(coalesce=True, max_wait_ms=1.0),
            registry=registry,
        )
        for _ in range(3):
            harness.request_json(
                "POST", "/query", {"point": [0.5, 0.5], "k": 3}
            )
        status, headers, raw = harness.request("GET", "/stats")
        assert status == 200
        assert headers.get("X-Content-Format") == "prometheus"
        text = raw.decode("utf-8")
        assert lint_prometheus(text) == []
        assert "repro_server_coalescer_window_fill_rate" in text
        assert "repro_server_coalescer_bypassed" in text
        assert "repro_server_coalescer_mean_batch" in text
        flat = registry.collect()
        assert 0.0 <= flat["server.coalescer.window_fill_rate"] <= 1.0

    def test_per_shard_gauges_exported(self, serve):
        engine = ShardedQueryEngine(
            items=ITEMS,
            shards=2,
            processes=False,
            options=EngineOptions(cache_size=0),
        )
        registry = MetricsRegistry()
        harness = serve(engine=engine, registry=registry)
        harness.request_json("POST", "/query", {"point": [0.5, 0.5], "k": 3})
        _, _, raw = harness.request("GET", "/stats")
        text = raw.decode("utf-8")
        assert lint_prometheus(text) == []
        for shard in (0, 1):
            assert f"repro_shards_shard{shard}_pages" in text
            assert f"repro_shards_shard{shard}_depth" in text
            assert f"repro_shards_shard{shard}_requests" in text
        flat = registry.collect()
        assert (
            flat["shards.shard0.pages"] + flat["shards.shard1.pages"] > 0
        )

    def test_deadline_bypass_counts_on_coalescer(self, serve):
        registry = MetricsRegistry()
        harness = serve(
            config=ServerConfig(coalesce=True, max_wait_ms=50.0),
            registry=registry,
        )
        # A deadline tighter than the window must bypass the coalescer
        # and be counted as such.
        status, _, body = harness.request_json(
            "POST", "/query",
            {"point": [0.5, 0.5], "k": 2, "deadline_ms": 5.0},
        )
        assert status == 200
        assert registry.collect()["server.coalescer.bypassed"] >= 1
