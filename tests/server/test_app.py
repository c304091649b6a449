"""End-to-end front-door behavior over real sockets.

Every ``/query`` answer asserted here is also *certified* against a
linear-scan oracle — the server must never emit an answer the audit
machinery cannot vouch for.
"""

import threading
import time

import pytest

from repro.core.query import nearest
from repro.obs.registry import MetricsRegistry
from repro.server import ServerConfig
from repro.service.resilience import ResilientEngine

from tests.server.conftest import ITEMS, build_engine, build_tree, certify

pytestmark = pytest.mark.server

WEDGE = (9.0, 9.0)


class TestQueryEndpoint:
    def test_answers_match_the_oracle(self, serve):
        harness = serve()
        for point in [(0.5, 0.5), (0.05, 0.9), (0.99, 0.01)]:
            for k in (1, 3, 10):
                status, _, body = harness.request_json(
                    "POST", "/query", {"point": list(point), "k": k}
                )
                assert status == 200
                assert len(body["neighbors"]) == k
                assert body["truncated"] is False
                certify(body, point, k, combo=f"query-k{k}")

    def test_neighbors_are_rank_ordered(self, serve):
        harness = serve()
        _, _, body = harness.request_json(
            "POST", "/query", {"point": [0.3, 0.7], "k": 5}
        )
        distances = [n["distance"] for n in body["neighbors"]]
        assert distances == sorted(distances)
        assert [n["rank"] for n in body["neighbors"]] == [1, 2, 3, 4, 5]

    def test_epsilon_is_honored_and_certified(self, serve):
        harness = serve()
        point, k, epsilon = (0.42, 0.17), 5, 0.25
        status, _, body = harness.request_json(
            "POST", "/query",
            {"point": list(point), "k": k, "epsilon": epsilon},
        )
        assert status == 200
        certify(body, point, k, combo="query-eps", epsilon=epsilon)

    def test_page_budget_truncation_is_reported_and_sound(self, serve):
        harness = serve()
        point, k = (0.5, 0.5), 20
        status, _, body = harness.request_json(
            "POST", "/query",
            {"point": list(point), "k": k, "max_pages": 2},
        )
        assert status == 200
        if body["truncated"]:
            assert body["truncation_reason"] is not None
            assert body["frontier_distance"] is not None
        certify(body, point, k, combo="query-budget")

    def test_k_far_beyond_n_returns_everything(self, serve):
        """``k`` is only type-checked at the door, so ``10**9`` reaches
        the packed kernels; they must size their heap by the tree, not
        by ``k``, and answer like the object kernel."""
        harness = serve()
        point = (0.25, 0.75)
        status, _, body = harness.request_json(
            "POST", "/query", {"point": list(point), "k": 10 ** 9}
        )
        assert status == 200
        assert body["truncated"] is False
        expected = nearest(build_tree(), point, k=10 ** 9)
        assert [n["payload"] for n in body["neighbors"]] == [
            n.payload for n in expected
        ]
        assert [n["distance"] for n in body["neighbors"]] == [
            n.distance for n in expected
        ]
        assert len(body["neighbors"]) == len(ITEMS)

    def test_batch_endpoint(self, serve):
        harness = serve()
        points = [[0.1, 0.1], [0.9, 0.9], [0.5, 0.25]]
        status, _, body = harness.request_json(
            "POST", "/batch", {"points": points, "k": 4}
        )
        assert status == 200
        assert len(body["results"]) == len(points)
        for point, result in zip(points, body["results"]):
            certify(result, tuple(point), 4, combo="batch")

    def test_keep_alive_serves_many_requests_per_connection(self, serve):
        harness = serve()
        conn = harness.connection()
        try:
            for _ in range(3):
                conn.request(
                    "POST", "/query", body='{"point": [0.5, 0.5], "k": 1}'
                )
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()


class TestValidation:
    @pytest.mark.parametrize(
        "payload,fragment",
        [
            ({}, "point"),
            ({"point": []}, "point"),
            ({"point": "oops"}, "point"),
            ({"point": [1, "x"]}, "point"),
            ({"point": [0.5, 0.5], "k": "three"}, "k"),
            # json.loads accepts NaN/Infinity; these used to be a 200
            # with an empty answer.
            ({"point": [0.5, 0.5], "epsilon": float("nan")}, "epsilon"),
            ({"point": [0.5, 0.5], "epsilon": float("inf")}, "epsilon"),
            ({"point": [0.5, 0.5], "epsilon": float("-inf")}, "epsilon"),
            # bool is an int to isinstance; these used to be a 200.
            ({"point": [0.5, 0.5], "k": True}, "k"),
            ({"point": [True, False]}, "point"),
            # These used to be a 500 — and, coalesced, a 500 for every
            # other request sharing the window.
            ({"point": [1e999, 0.5]}, "point"),
            ({"point": [float("nan"), 0.5]}, "point"),
            ({"point": [0.5]}, "dimension"),
            ({"point": [0.5, 0.5], "deadline_ms": "x"}, "deadline_ms"),
            ({"point": [0.5, 0.5], "epsilon": "a"}, "epsilon"),
        ],
    )
    def test_bad_query_payloads_are_400(self, serve, payload, fragment):
        harness = serve()
        status, _, body = harness.request_json("POST", "/query", payload)
        assert status == 400
        assert fragment in body["error"]

    def test_invalid_k_value_is_400(self, serve):
        harness = serve()
        status, _, body = harness.request_json(
            "POST", "/query", {"point": [0.5, 0.5], "k": 0}
        )
        assert status == 400

    def test_overflowing_epsilon_literal_is_400(self, serve):
        # ``1e999`` parses to inf without any NaN/Infinity token.
        harness = serve()
        conn = harness.connection()
        try:
            conn.request(
                "POST", "/query",
                body='{"point": [0.5, 0.5], "k": 3, "epsilon": 1e999}',
            )
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_non_json_body_is_400(self, serve):
        harness = serve()
        status, _, raw = harness.request("POST", "/query", headers={})
        assert status == 400  # empty body
        conn = harness.connection()
        try:
            conn.request("POST", "/query", body="this is not json")
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_unknown_route_is_404(self, serve):
        harness = serve()
        status, _, body = harness.request_json("GET", "/nope")
        assert status == 404

    def test_wrong_method_is_405(self, serve):
        harness = serve()
        assert harness.request("GET", "/query")[0] == 405
        assert harness.request("POST", "/healthz")[0] == 405
        assert harness.request("POST", "/stats")[0] == 405

    def test_oversize_body_is_413_via_config(self, serve):
        harness = serve(config=ServerConfig(max_body_bytes=64))
        big = {"point": [0.5] * 200, "k": 1}
        status, _, _ = harness.request_json("POST", "/query", big)
        assert status == 413

    def test_batch_requires_points_array(self, serve):
        harness = serve()
        assert harness.request_json("POST", "/batch", {})[0] == 400
        assert (
            harness.request_json("POST", "/batch", {"points": []})[0] == 400
        )


class _StubEngine:
    """Minimal engine with a controllable ``liveness()`` hook."""

    config = None

    def __init__(self, ready=True):
        self.ready = ready
        self.closed = False

    def liveness(self):
        return {"ready": self.ready, "backend": "stub", "epoch": 7}

    def submit(self, point, config=None):  # pragma: no cover - unused
        raise NotImplementedError

    def close(self, timeout=None):
        self.closed = True


class TestHealthAndReadiness:
    def test_healthz(self, serve):
        harness = serve()
        status, _, body = harness.request_json("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_readyz_reports_engine_liveness(self, serve):
        harness = serve()
        status, _, body = harness.request_json("GET", "/readyz")
        assert status == 200
        assert body["ready"] is True
        assert body["backend"] == "thread"
        assert body["draining"] is False

    def test_readyz_is_503_when_the_engine_is_not_ready(self, serve):
        harness = serve(engine=_StubEngine(ready=False))
        status, _, body = harness.request_json("GET", "/readyz")
        assert status == 503
        assert body["ready"] is False
        assert body["backend"] == "stub"
        assert body["epoch"] == 7

    def test_shutdown_closes_the_engine(self, serve):
        engine = _StubEngine()
        harness = serve(engine=engine)
        harness.stop()
        assert engine.closed


class TestStats:
    def test_prometheus_export_includes_server_metrics(self, serve):
        registry = MetricsRegistry()
        harness = serve(registry=registry)
        harness.request_json("POST", "/query", {"point": [0.5, 0.5], "k": 1})
        status, headers, raw = harness.request("GET", "/stats")
        assert status == 200
        text = raw.decode("utf-8")
        assert "repro_server_requests" in text
        assert "repro_server_connections" in text
        assert "repro_server_coalescer_requests" in text
        assert "repro_server_responses_200" in text
        # The engine's own stats ride along in the same registry.
        assert "repro_engine_" in text


class _GateBackend:
    """Delegating backend whose ``query`` blocks on a gate for WEDGE."""

    def __init__(self, inner):
        self.inner = inner
        self.gate = threading.Event()
        self.entered = threading.Event()

    def query(self, point, config=None):
        if tuple(point) == WEDGE:
            self.entered.set()
            self.gate.wait(30)
        return self.inner.query(point, config=config)

    def close(self, timeout=None):
        return self.inner.close()


class TestAdmissionMapping:
    def test_quota_breach_is_429_with_retry_after(self, serve):
        engine = ResilientEngine(
            engine=build_engine(workers=1),
            workers=1,
            queue_capacity=16,
            quota_rate=0.001,
            quota_burst=1,
        )
        harness = serve(engine=engine)
        payload = {"point": [0.5, 0.5], "k": 1, "client": "alice"}
        first = harness.request_json("POST", "/query", payload)
        assert first[0] == 200
        status, headers, body = harness.request_json(
            "POST", "/query", payload
        )
        assert status == 429
        assert "Retry-After" in headers
        assert float(headers["Retry-After"]) > 0
        assert "quota" in body["error"]
        assert body["retry_after"] > 0

    def test_queue_full_shedding_is_503_with_retry_after(self, serve):
        backend = _GateBackend(build_engine(workers=1))
        engine = ResilientEngine(
            engine=backend,
            workers=1,
            queue_capacity=1,
            shed_policy="reject-newest",
        )
        harness = serve(
            engine=engine,
            config=ServerConfig(coalesce=False, drain_timeout=5.0),
        )
        responses = {}

        def fire(name, point):
            responses[name] = harness.request_json(
                "POST", "/query", {"point": list(point), "k": 1}
            )

        wedged = threading.Thread(target=fire, args=("wedged", WEDGE))
        wedged.start()
        assert backend.entered.wait(10)
        queued = threading.Thread(target=fire, args=("queued", (0.5, 0.5)))
        queued.start()
        # Give the queued request time to occupy the single slot.
        deadline = time.monotonic() + 5.0
        while engine.stats().pending < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        status, headers, body = harness.request_json(
            "POST", "/query", {"point": [0.25, 0.25], "k": 1}
        )
        assert status == 503
        assert "Retry-After" in headers
        backend.gate.set()
        wedged.join(20)
        queued.join(20)
        assert responses["wedged"][0] == 200
        assert responses["queued"][0] == 200

    def test_resilient_responses_carry_serving_telemetry(self, serve):
        engine = ResilientEngine(engine=build_engine(workers=1), workers=1)
        harness = serve(engine=engine)
        point, k = (0.6, 0.4), 3
        status, _, body = harness.request_json(
            "POST", "/query", {"point": list(point), "k": k}
        )
        assert status == 200
        assert body["wait_ms"] >= 0.0
        assert body["service_ms"] >= 0.0
        assert body["brownout_level"] == 0
        certify(body, point, k, combo="resilient")
