"""Micro-batch coalescing: windows, the window clock, deadline bypass.

The deadline-vs-coalescing interaction is the satellite this file pins:
a request whose ``Budget.deadline_ms`` cannot survive the coalescing
window must bypass it (never queued behind the window timer), and every
answer — coalesced, bypassed, or truncated by its deadline — must stay
certifiable by the truncated-result oracle.
"""

import asyncio
import json
import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from repro.core.budget import Budget
from repro.core.config import QueryConfig
from repro.server import Coalescer, ServerConfig

from tests.server.conftest import certify

pytestmark = pytest.mark.server


class _BatchEngine:
    """Fake engine recording every ``query_batch`` call."""

    def __init__(self):
        self.calls = []
        self.lock = threading.Lock()

    def query_batch(self, points, config=None):
        with self.lock:
            self.calls.append(list(points))
        return [("R", tuple(p)) for p in points]


class _SubmitEngine:
    """Fake engine with only per-request ``submit`` (resilient shape)."""

    def __init__(self, fail_for=()):
        self.fail_for = set(fail_for)
        self.submitted = []

    def submit(self, point, config=None):
        self.submitted.append(tuple(point))
        future = Future()
        if tuple(point) in self.fail_for:
            future.set_exception(RuntimeError(f"boom at {point}"))
        else:
            future.set_result(("R", tuple(point)))
        return future


class _GatedEngine(_BatchEngine):
    """Every ``query_batch`` call blocks until the test opens the gate."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Semaphore(0)  # one permit per call begun

    def query_batch(self, points, config=None):
        with self.lock:
            self.calls.append(list(points))
        self.entered.release()
        assert self.gate.wait(30), "test never opened the gate"
        return [("R", tuple(p)) for p in points]

    async def wait_entered(self):
        """Await (off the loop thread) one more call reaching the engine."""
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, self.entered.acquire, True, 10)


class _PoisonEngine(_BatchEngine):
    """``query_batch`` fails as a whole iff a marked point is in it."""

    POISON = (-1.0, -1.0)

    def query_batch(self, points, config=None):
        with self.lock:
            self.calls.append(list(points))
        if self.POISON in points:
            raise ValueError("poisoned batch")
        return [("R", tuple(p)) for p in points]


class _StallingEngine(_BatchEngine):
    """Seeded random stalls; answers name their point and their k."""

    def __init__(self, seed):
        super().__init__()
        self.rng = random.Random(seed)

    def query_batch(self, points, config=None):
        with self.lock:
            self.calls.append(list(points))
            stall = self.rng.choice([0.0, 0.0, 0.0005, 0.002, 0.004])
        time.sleep(stall)
        return [("R", tuple(p), config.k) for p in points]


def run_coalesced(engine, coro_fn, **kwargs):
    """Run *coro_fn(coalescer)* under a fresh loop + executor."""

    async def go():
        with ThreadPoolExecutor(max_workers=2) as executor:
            coalescer = Coalescer(engine, executor, **kwargs)
            result = await coro_fn(coalescer)
            await coalescer.drain()
            return coalescer, result

    return asyncio.run(go())


class TestWindows:
    def test_concurrent_arrivals_share_one_batch(self):
        engine = _BatchEngine()
        cfg = QueryConfig(k=2)
        points = [(float(i), 0.0) for i in range(8)]

        async def go(coalescer):
            return await asyncio.gather(
                *(coalescer.submit(p, cfg) for p in points)
            )

        coalescer, results = run_coalesced(
            engine, go, max_wait_ms=50.0, max_batch=64
        )
        assert len(engine.calls) == 1
        assert engine.calls[0] == [tuple(p) for p in points]
        # Answers land with their own waiters, in order.
        assert results == [("R", tuple(p)) for p in points]
        assert coalescer.flush_timer == 1
        assert coalescer.coalesced_requests == 8
        assert coalescer.largest_batch == 8

    def test_full_window_flushes_without_waiting_for_the_timer(self):
        engine = _BatchEngine()
        cfg = QueryConfig(k=1)

        async def go(coalescer):
            # A timer this long would hang the test; completing at all
            # proves the max_batch flush fired.
            return await asyncio.wait_for(
                asyncio.gather(
                    *(
                        coalescer.submit((float(i), 1.0), cfg)
                        for i in range(4)
                    )
                ),
                timeout=10.0,
            )

        coalescer, results = run_coalesced(
            engine, go, max_wait_ms=60_000.0, max_batch=4
        )
        assert coalescer.flush_full == 1
        assert len(results) == 4

    def test_distinct_configs_get_distinct_windows(self):
        engine = _BatchEngine()

        async def go(coalescer):
            return await asyncio.gather(
                coalescer.submit((0.0, 0.0), QueryConfig(k=1)),
                coalescer.submit((1.0, 1.0), QueryConfig(k=2)),
                coalescer.submit((2.0, 2.0), QueryConfig(k=1)),
            )

        coalescer, _ = run_coalesced(engine, go, max_wait_ms=50.0)
        assert coalescer.windows == 2
        batches = sorted(engine.calls, key=len)
        assert [len(b) for b in batches] == [1, 2]

    def test_submit_only_engine_pipelines_with_per_entry_verdicts(self):
        engine = _SubmitEngine(fail_for={(1.0, 0.0)})
        cfg = QueryConfig(k=1)
        points = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]

        async def go(coalescer):
            return await asyncio.gather(
                *(coalescer.submit(p, cfg) for p in points),
                return_exceptions=True,
            )

        _, results = run_coalesced(engine, go, max_wait_ms=50.0)
        assert results[0] == ("R", (0.0, 0.0))
        assert isinstance(results[1], RuntimeError)
        assert results[2] == ("R", (2.0, 0.0))
        assert engine.submitted == points

    def test_drain_flushes_open_windows(self):
        engine = _BatchEngine()
        cfg = QueryConfig(k=1)

        async def go(coalescer):
            # Huge window: only drain() can flush it.
            tasks = [
                asyncio.ensure_future(coalescer.submit((float(i), 2.0), cfg))
                for i in range(3)
            ]
            await asyncio.sleep(0)  # let the window collect
            await coalescer.drain()
            return await asyncio.gather(*tasks)

        coalescer, results = run_coalesced(
            engine, go, max_wait_ms=60_000.0, max_batch=64
        )
        assert coalescer.flush_drain == 1
        assert len(results) == 3

    def test_parameter_validation(self):
        engine = _BatchEngine()
        with pytest.raises(ValueError):
            Coalescer(engine, None, max_wait_ms=0.0)
        with pytest.raises(ValueError):
            Coalescer(engine, None, max_batch=1)

    def test_window_key_built_once_per_request(self, monkeypatch):
        # The window key is the hot-path cost of submit(): hashing the
        # full frozen QueryConfig on every dict operation walks every
        # field, so the coalescer computes cache_key() exactly once per
        # arriving request and reuses it through lookup, insert and the
        # flush-time pop.
        calls = {"n": 0}
        real_cache_key = QueryConfig.cache_key

        def counting_cache_key(self):
            calls["n"] += 1
            return real_cache_key(self)

        monkeypatch.setattr(QueryConfig, "cache_key", counting_cache_key)
        engine = _BatchEngine()
        cfg = QueryConfig(k=2)
        points = [(float(i), 3.0) for i in range(6)]

        async def go(coalescer):
            return await asyncio.gather(
                *(coalescer.submit(p, cfg) for p in points)
            )

        coalescer, results = run_coalesced(
            engine, go, max_wait_ms=50.0, max_batch=64
        )
        assert len(results) == len(points)
        assert coalescer.requests == len(points)
        assert calls["n"] == len(points)


class TestWindowClock:
    """The window is clocked by the engine: idle / busy / ceiling."""

    def test_lone_request_on_an_idle_engine_does_not_wait(self):
        engine = _BatchEngine()

        async def go(coalescer):
            # A timer this long would hang the test: max_wait_ms is a
            # ceiling for a busy engine, not a sentence for a lone request.
            return await asyncio.wait_for(
                coalescer.submit((0.5, 0.5), QueryConfig(k=1)), timeout=5.0
            )

        coalescer, result = run_coalesced(
            engine, go, max_wait_ms=60_000.0, max_batch=64
        )
        assert result == ("R", (0.5, 0.5))
        assert coalescer.flush_timer == 1

    def test_arrivals_behind_a_busy_engine_form_one_following_batch(self):
        engine = _GatedEngine()
        cfg = QueryConfig(k=1)
        points = [(float(i), 0.0) for i in range(4)]

        async def go(coalescer):
            tasks = [asyncio.ensure_future(coalescer.submit(points[0], cfg))]
            await engine.wait_entered()
            for point in points[1:]:  # one loop pass (and more) apart
                tasks.append(
                    asyncio.ensure_future(coalescer.submit(point, cfg))
                )
                await asyncio.sleep(0.01)
            # Not dispatched before the first batch completes ...
            assert len(engine.calls) == 1
            assert coalescer.pending == 3
            engine.gate.set()
            # ... and released by its completion, not by the ceiling.
            return await asyncio.wait_for(asyncio.gather(*tasks), timeout=5.0)

        coalescer, results = run_coalesced(
            engine, go, max_wait_ms=60_000.0, max_batch=64
        )
        assert results == [("R", p) for p in points]
        assert engine.calls == [points[:1], points[1:]]
        assert coalescer.flush_timer == 2
        assert coalescer.largest_batch == 3

    def test_ceiling_releases_a_window_the_engine_outlasts(self):
        engine = _GatedEngine()
        cfg = QueryConfig(k=1)

        async def go(coalescer):
            first = asyncio.ensure_future(coalescer.submit((0.0, 0.0), cfg))
            await engine.wait_entered()
            second = asyncio.ensure_future(coalescer.submit((1.0, 0.0), cfg))
            # The first batch is still blocked: only the max_wait_ms
            # ceiling can dispatch the second, on a second thread.
            await engine.wait_entered()
            assert len(engine.calls) == 2
            assert not first.done() and not second.done()
            engine.gate.set()
            return await asyncio.wait_for(
                asyncio.gather(first, second), timeout=5.0
            )

        coalescer, results = run_coalesced(
            engine, go, max_wait_ms=20.0, max_batch=64
        )
        assert results == [("R", (0.0, 0.0)), ("R", (1.0, 0.0))]
        assert coalescer.flush_timer == 2

    def test_distinct_configs_behind_a_busy_engine_stay_distinct(self):
        engine = _GatedEngine()

        async def go(coalescer):
            first = asyncio.ensure_future(
                coalescer.submit((0.0, 0.0), QueryConfig(k=1))
            )
            await engine.wait_entered()
            later = [
                asyncio.ensure_future(coalescer.submit(point, cfg))
                for point, cfg in [
                    ((1.0, 1.0), QueryConfig(k=1)),
                    ((2.0, 2.0), QueryConfig(k=2)),
                    ((3.0, 3.0), QueryConfig(k=1)),
                ]
            ]
            await asyncio.sleep(0.01)
            assert len(engine.calls) == 1
            engine.gate.set()
            return await asyncio.wait_for(
                asyncio.gather(first, *later), timeout=5.0
            )

        coalescer, _ = run_coalesced(
            engine, go, max_wait_ms=60_000.0, max_batch=64
        )
        assert coalescer.windows == 3
        assert sorted(engine.calls[1:], key=len) == [
            [(2.0, 2.0)],
            [(1.0, 1.0), (3.0, 3.0)],
        ]

    def test_one_bad_entry_does_not_poison_its_window(self):
        engine = _PoisonEngine()
        cfg = QueryConfig(k=1)
        points = [(0.0, 0.0), _PoisonEngine.POISON, (2.0, 0.0)]

        async def go(coalescer):
            return await asyncio.gather(
                *(coalescer.submit(p, cfg) for p in points),
                return_exceptions=True,
            )

        coalescer, results = run_coalesced(engine, go, max_wait_ms=50.0)
        assert coalescer.largest_batch == 3  # they did share a window
        assert results[0] == ("R", (0.0, 0.0))
        assert isinstance(results[1], ValueError)
        assert results[2] == ("R", (2.0, 0.0))

    @pytest.mark.parametrize("seed", [3, 1995])
    def test_random_schedule_ledgers_reconcile(self, seed):
        """Random gaps x two configs x random engine stalls: every waiter
        gets its own answer and every counter reconciles with the engine."""
        rng = random.Random(seed)
        engine = _StallingEngine(seed)
        configs = [QueryConfig(k=1), QueryConfig(k=2)]
        plan = [
            (
                (float(i), float(seed)),
                rng.choice(configs),
                rng.choice([0.0, 0.0, 0.0, 0.0, 0.0002, 0.001, 0.003]),
            )
            for i in range(240)
        ]

        async def go(coalescer):
            tasks = []
            for point, cfg, gap in plan:
                tasks.append(
                    asyncio.ensure_future(coalescer.submit(point, cfg))
                )
                if gap:
                    await asyncio.sleep(gap)
            # Drain with the tail of the schedule still in its windows.
            await asyncio.wait_for(coalescer.drain(), timeout=10.0)
            return await asyncio.wait_for(
                asyncio.gather(*tasks), timeout=30.0
            )

        coalescer, results = run_coalesced(
            engine, go, max_wait_ms=1.0, max_batch=4
        )
        assert results == [("R", point, cfg.k) for point, cfg, _ in plan]
        flushes = (
            coalescer.flush_full
            + coalescer.flush_timer
            + coalescer.flush_drain
        )
        assert flushes == len(engine.calls)
        assert coalescer.requests == len(plan)
        assert coalescer.requests == sum(len(c) for c in engine.calls)
        assert coalescer.pending == 0


class TestDeadlineBypassRule:
    @pytest.mark.parametrize(
        "budget,expected",
        [
            (None, False),
            (Budget(max_pages=4), False),
            (Budget(deadline_ms=0.5), True),
            (Budget(deadline_ms=1.0), True),  # boundary: cannot survive
            (Budget(deadline_ms=5.0), False),
            (Budget(deadline_ms=0.5, max_pages=4), True),
        ],
    )
    def test_bypasses(self, budget, expected):
        coalescer = Coalescer(
            _BatchEngine(), None, max_wait_ms=1.0, max_batch=4
        )
        cfg = (
            QueryConfig(k=1)
            if budget is None
            else QueryConfig(k=1, budget=budget)
        )
        assert coalescer.bypasses(cfg) is expected


class TestEndToEndCoalescing:
    def test_concurrent_http_queries_share_engine_batches(self, serve):
        harness = serve(
            config=ServerConfig(max_wait_ms=40.0, max_batch=64)
        )
        point, k, fan = (0.5, 0.5), 3, 12
        bodies = [None] * fan
        barrier = threading.Barrier(fan)

        def fire(i):
            barrier.wait()
            status, _, body = harness.request_json(
                "POST", "/query", {"point": list(point), "k": k}
            )
            assert status == 200
            bodies[i] = body

        threads = [
            threading.Thread(target=fire, args=(i,)) for i in range(fan)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        coalescer = harness.server.coalescer
        assert coalescer.requests == fan
        assert coalescer.largest_batch >= 2
        assert coalescer.coalesced_requests >= 2
        for body in bodies:
            assert body["coalesced"] is True
            certify(body, point, k, combo="coalesced")

    def test_lone_http_query_does_not_wait_out_the_window(self, serve):
        harness = serve(config=ServerConfig(max_wait_ms=500.0))
        point, k = (0.4, 0.6), 3
        started = time.monotonic()
        status, _, body = harness.request_json(
            "POST", "/query", {"point": list(point), "k": k}
        )
        elapsed = time.monotonic() - started
        assert status == 200
        assert body["coalesced"] is True
        assert elapsed < 0.25, f"lone request took {elapsed * 1000:.0f} ms"
        certify(body, point, k, combo="lone")

    def test_malformed_http_query_fails_alone_in_a_shared_window(self, serve):
        harness = serve(config=ServerConfig(max_wait_ms=50.0))
        k = 3
        points = [[0.2, 0.2], [0.5], [0.8, 0.8]]  # the middle one: 1-D
        answers = [None] * len(points)
        barrier = threading.Barrier(len(points))

        def fire(i):
            barrier.wait()
            status, _, body = harness.request_json(
                "POST", "/query", {"point": points[i], "k": k}
            )
            answers[i] = (status, body)

        threads = [
            threading.Thread(target=fire, args=(i,))
            for i in range(len(points))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert [status for status, _ in answers] == [200, 400, 200]
        for i in (0, 2):
            certify(answers[i][1], tuple(points[i]), k, combo="isolated")

    def test_keepalive_fleet_ledgers_reconcile(self, serve):
        """A concurrent keep-alive fleet: every 200 certified, and the
        client's ledger equals the server's and the coalescer's."""
        harness = serve(config=ServerConfig(max_wait_ms=2.0, max_batch=64))
        fleet, per_connection, k = 32, 4, 3
        barrier = threading.Barrier(fleet)
        answers = []

        def client(i):
            conn = harness.connection()
            try:
                conn.connect()
                barrier.wait(30)
                for j in range(per_connection):
                    n = i * per_connection + j
                    point = [(n * 37 % 128) / 128.0, (n * 53 % 128) / 128.0]
                    conn.request(
                        "POST",
                        "/query",
                        body=json.dumps({"point": point, "k": k}),
                    )
                    response = conn.getresponse()
                    answers.append(
                        (response.status, point, json.loads(response.read()))
                    )
            finally:
                conn.close()

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(fleet)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        sent = fleet * per_connection
        assert len(answers) == sent
        assert len({tuple(point) for _, point, _ in answers}) == sent
        for status, point, body in answers:
            assert status == 200
            certify(body, tuple(point), k, combo="fleet")

        # The server notices the client hangups asynchronously.
        registry = harness.server.registry
        deadline = time.monotonic() + 10.0
        while (
            registry.collect()["server.connections_open"] != 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        metrics = registry.collect()
        assert metrics["server.requests"] == sent
        assert metrics["server.responses_200"] == sent
        assert metrics["server.connections_open"] == 0
        coalescer = harness.server.coalescer.stats()
        assert coalescer["requests"] == sent
        assert coalescer["pending"] == 0

    # -- the satellite: deadlines vs the coalescing window -------------
    @pytest.mark.parametrize("max_wait_ms", [0.5, 2.0, 25.0])
    def test_deadline_vs_window_property(self, serve, max_wait_ms):
        """Sweep window x deadline: a budget that cannot survive the
        window must bypass coalescing, and *every* served answer —
        coalesced, bypassed, or deadline-truncated — must be certified
        sound by the truncated-result oracle."""
        harness = serve(
            config=ServerConfig(max_wait_ms=max_wait_ms, max_batch=8)
        )
        deadlines = [0.05, 0.5, 2.0, 25.0, 500.0]
        probes = [(0.2, 0.8), (0.77, 0.33)]
        k = 5
        for deadline_ms in deadlines:
            for point in probes:
                status, _, body = harness.request_json(
                    "POST",
                    "/query",
                    {
                        "point": list(point),
                        "k": k,
                        "deadline_ms": deadline_ms,
                    },
                )
                assert status == 200
                if deadline_ms <= max_wait_ms:
                    # The budget cannot survive the window: the request
                    # must not have sat in it.
                    assert body["coalesced"] is False, (
                        f"deadline {deadline_ms}ms was coalesced into a "
                        f"{max_wait_ms}ms window"
                    )
                if body["truncated"]:
                    assert body["truncation_reason"] is not None
                certify(
                    body,
                    point,
                    k,
                    combo=f"w{max_wait_ms}-d{deadline_ms}",
                )

    def test_bypass_counter_increments(self, serve):
        harness = serve(config=ServerConfig(max_wait_ms=5.0))
        harness.request_json(
            "POST",
            "/query",
            {"point": [0.5, 0.5], "k": 1, "deadline_ms": 1.0},
        )
        collected = harness.server.registry.collect()
        assert collected["server.deadline_bypass"] >= 1
