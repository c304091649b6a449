"""Admission control, brownout, engine lifecycle, and chaos smoke.

The acceptance properties pinned here:

- request accounting is conserved through every policy and lifecycle
  path (overload, quota, eviction, expiry, shutdown);
- each shed policy does what it says: reject-newest refuses newcomers,
  adaptive-LIFO evicts the oldest waiter, expired-drop frees lapsed
  waiters first;
- per-client token buckets isolate noisy neighbors;
- the brownout controller widens epsilon / tightens budgets under load
  and steps back down on recovery, and browned-out answers occupy their
  own cache tier (a truncated result is never cached at all);
- ``QueryEngine.shutdown(timeout)`` drains concurrently with in-flight
  queries and fault injection — no deadlock, every future resolves,
  worker exceptions surface in ``EngineStats.failures``;
- ``register_metrics`` exposes every resilience signal numerically;
- a small seeded chaos soak passes end to end.
"""

import threading
import time
from concurrent.futures import wait

import pytest

from repro import EngineOptions, QueryConfig, QueryEngine, nearest
from repro.core.budget import Budget
from repro.datasets import uniform_points
from repro.errors import (
    AdmissionRejected,
    InvalidParameterError,
    QuotaExceeded,
)
from repro.geometry.rect import Rect
from repro.obs.registry import MetricsRegistry, export_prometheus
from repro.rtree.disk import DiskRTree, build_disk_index
from repro.service.resilience import (
    DEFAULT_LADDER,
    BrownoutController,
    BrownoutLevel,
    ResilientEngine,
    Served,
    TokenBucket,
)
from repro.storage.faults import FaultInjectingPageFile, FaultPlan
from repro.storage.pagefile import RetryPolicy

from tests.conftest import build_point_tree

pytestmark = pytest.mark.resilience


@pytest.fixture(scope="module")
def tree():
    return build_point_tree(uniform_points(800, seed=21), max_entries=8)


class TestTokenBucket:
    def test_burst_then_refill(self):
        t = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2, clock=lambda: t[0])
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        t[0] = 1.5
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(InvalidParameterError):
            TokenBucket(rate=1, burst=0)


class TestBrownoutController:
    def test_ladder_must_start_at_identity(self):
        with pytest.raises(InvalidParameterError):
            BrownoutController(ladder=(BrownoutLevel(0.5, None),))

    def test_steps_up_under_load_down_on_recovery(self):
        t = [0.0]
        bc = BrownoutController(
            min_dwell=0.0, step_down_after=2, clock=lambda: t[0]
        )
        for _ in range(len(DEFAULT_LADDER) + 3):
            t[0] += 1.0
            bc.observe(1.0, 0.0)
        assert bc.level == len(DEFAULT_LADDER) - 1  # saturates, no overflow
        for _ in range(2 * len(DEFAULT_LADDER) + 2):
            t[0] += 1.0
            bc.observe(0.0, 0.0)
        assert bc.level == 0
        assert bc.step_ups == bc.step_downs == len(DEFAULT_LADDER) - 1

    def test_min_dwell_rate_limits_step_ups(self):
        t = [0.0]
        bc = BrownoutController(min_dwell=10.0, clock=lambda: t[0])
        for _ in range(5):
            t[0] += 1.0  # 5s elapsed total: under the dwell
            bc.observe(1.0, 0.0)
        assert bc.level <= 1

    def test_hysteresis_band_holds_level(self):
        t = [0.0]
        bc = BrownoutController(
            min_dwell=0.0, step_down_after=1, clock=lambda: t[0]
        )
        t[0] = 1.0
        bc.observe(1.0, 0.0)
        assert bc.level == 1
        for _ in range(5):
            t[0] += 1.0
            bc.observe(0.5, 0.0)  # between exit (0.25) and enter (0.75)
        assert bc.level == 1

    def test_p99_target_also_triggers(self):
        t = [0.0]
        bc = BrownoutController(
            p99_target_ms=10.0, min_dwell=0.0, clock=lambda: t[0]
        )
        t[0] = 1.0
        bc.observe(0.0, 50.0)
        assert bc.level == 1

    def test_apply_widens_epsilon_never_narrows(self):
        bc = BrownoutController(min_dwell=0.0, clock=lambda: 0.0)
        bc._level = 1  # epsilon 0.1, no page cap
        assert bc.apply(QueryConfig(k=3)).epsilon == 0.1
        assert bc.apply(QueryConfig(k=3, epsilon=0.4)).epsilon == 0.4

    def test_apply_tightens_budget_preserving_deadline(self):
        bc = BrownoutController(min_dwell=0.0, clock=lambda: 0.0)
        bc._level = 4  # epsilon 1.0, max_pages 256
        cfg = bc.apply(QueryConfig(k=3, budget=Budget(deadline_ms=7.0)))
        assert cfg.budget.deadline_ms == 7.0
        assert cfg.budget.max_pages == 256
        loose = bc.apply(QueryConfig(k=3, budget=Budget(max_pages=8)))
        assert loose.budget.max_pages == 8  # never loosened

    def test_levels_occupy_distinct_cache_tiers(self):
        bc = BrownoutController(min_dwell=0.0, clock=lambda: 0.0)
        base = QueryConfig(k=3)
        bc._level = 2
        assert bc.apply(base).cache_key() != base.cache_key()


class TestAdmissionControl:
    def test_serves_and_conserves_under_overload(self, tree):
        with ResilientEngine(
            tree,
            workers=2,
            queue_capacity=4,
            options=EngineOptions(cache_size=0),
        ) as eng:
            futs = [eng.submit((0.5, 0.5), k=3) for _ in range(40)]
            outcomes = {"served": 0, "shed": 0}
            for f in futs:
                try:
                    served = f.result(10)
                    assert isinstance(served, Served)
                    outcomes["served"] += 1
                except AdmissionRejected:
                    outcomes["shed"] += 1
            stats = eng.stats()
            assert stats.conserved, stats.as_dict()
            assert outcomes["served"] == stats.served
            assert outcomes["served"] + outcomes["shed"] == 40
        assert eng.stats().conserved

    def test_reject_newest_keeps_waiters(self, tree):
        eng = ResilientEngine(
            tree, workers=1, queue_capacity=2,
            shed_policy="reject-newest", options=EngineOptions(cache_size=0),
        )
        try:
            futs = [eng.submit((0.1, 0.9), k=2) for _ in range(20)]
            wait(futs, timeout=10)
            stats = eng.stats()
            assert stats.rejected_queue_full > 0
            assert stats.shed_evicted == 0  # policy never evicts admitted
            assert stats.conserved
        finally:
            assert eng.close(5)

    def test_adaptive_lifo_evicts_oldest(self, tree):
        eng = ResilientEngine(
            tree, workers=1, queue_capacity=2,
            shed_policy="adaptive-lifo", options=EngineOptions(cache_size=0),
        )
        try:
            futs = [eng.submit((0.1, 0.9), k=2) for _ in range(20)]
            wait(futs, timeout=10)
            stats = eng.stats()
            assert stats.shed_evicted > 0
            assert stats.rejected_queue_full == 0  # newcomers always admitted
            assert stats.conserved
        finally:
            assert eng.close(5)

    def test_expired_drop_frees_lapsed_waiters(self, tree):
        clk = [0.0]
        eng = ResilientEngine(
            tree, workers=1, queue_capacity=8,
            shed_policy="expired-drop", queue_timeout_ms=1.0,
            options=EngineOptions(cache_size=0), clock=lambda: clk[0],
        )
        try:
            # Stuff the queue, then advance the injected clock past the
            # queue deadline: the overflow path must shed the lapsed
            # waiters rather than the newcomers.
            futs = [eng.submit((0.2, 0.2), k=2) for _ in range(8)]
            clk[0] = 1.0
            futs += [eng.submit((0.2, 0.2), k=2) for _ in range(4)]
            wait(futs, timeout=10)
            stats = eng.stats()
            assert stats.shed_expired > 0
            assert stats.conserved
        finally:
            assert eng.close(5)

    def test_quota_isolates_clients(self, tree):
        eng = ResilientEngine(
            tree, workers=1, queue_capacity=32,
            quota_rate=0.001,
            quota_burst=2,
            options=EngineOptions(cache_size=0),
        )
        try:
            noisy = [eng.submit((0.3, 0.3), k=1, client="noisy")
                     for _ in range(6)]
            quiet = eng.submit((0.3, 0.3), k=1, client="quiet")
            assert isinstance(quiet.result(10), Served)
            quota_hits = 0
            for f in noisy:
                try:
                    f.result(10)
                except QuotaExceeded:
                    quota_hits += 1
            assert quota_hits == 4  # burst of 2, negligible refill
            assert eng.stats().rejected_quota == 4
            assert eng.stats().conserved
        finally:
            assert eng.close(5)

    def test_default_budget_applies_when_caller_has_none(self, tree):
        eng = ResilientEngine(
            tree, workers=1, queue_capacity=4,
            default_budget=Budget(max_pages=2),
            options=EngineOptions(cache_size=0),
        )
        try:
            served = eng.query((0.7, 0.7), k=10)
            assert served.config.budget.max_pages == 2
            assert served.result.truncated
            explicit = eng.query(
                (0.7, 0.7), k=10, budget=Budget(max_pages=5000)
            )
            assert explicit.config.budget.max_pages == 5000
            assert not explicit.result.truncated
        finally:
            assert eng.close(5)

    def test_submit_after_close_rejects_cleanly(self, tree):
        eng = ResilientEngine(tree, workers=1, queue_capacity=4,
                              options=EngineOptions(cache_size=0))
        assert eng.close(5)
        fut = eng.submit((0.5, 0.5), k=1)
        with pytest.raises(AdmissionRejected) as err:
            fut.result(1)
        assert err.value.reason == "shutdown"
        assert eng.stats().conserved

    def test_brownout_engages_under_sustained_overload(self, tree):
        bc = BrownoutController(min_dwell=0.0, step_down_after=1000)
        with ResilientEngine(
            tree, workers=1, queue_capacity=4, brownout=bc,
            shed_policy="adaptive-lifo", options=EngineOptions(cache_size=0),
        ) as eng:
            futs = [eng.submit((0.4, 0.4), k=3) for _ in range(120)]
            wait(futs, timeout=30)
            levels = set()
            for f in futs:
                if not f.exception():
                    levels.add(f.result().brownout_level)
            assert max(levels) > 0  # degradation actually engaged
            assert eng.stats().conserved


class TestMetricsIntegration:
    def test_register_metrics_exports_numeric_signals(self, tree):
        registry = MetricsRegistry()
        with ResilientEngine(
            tree,
            workers=1,
            queue_capacity=4,
            options=EngineOptions(cache_size=0),
            default_budget=Budget(deadline_ms=1e-6),
        ) as eng:
            eng.register_metrics(registry)
            for _ in range(5):
                eng.query((0.6, 0.6), k=3)
            snap = registry.collect()
            assert snap["resilience.served"] == 5
            assert snap["resilience.conserved"] == 1
            assert "resilience.brownout_level" in snap
            assert "resilience.breaker_state" in snap
            assert snap["resilience.wait.count"] == 5
            # Deadline misses flow into their own histogram.
            assert snap["resilience.deadline_miss.count"] == 5
            text = export_prometheus(registry)
            assert "resilience_served" in text
            assert "resilience_deadline_miss" in text


class TestEngineLifecycleSatellites:
    """QueryEngine satellite: draining shutdown, failure accounting."""

    def test_shutdown_timeout_drains_and_reports(self, tree):
        eng = QueryEngine(
            tree, config=QueryConfig(k=3), options=EngineOptions(workers=2)
        )
        results = []
        # Shut down only once the whole batch is in the pool: a fixed
        # sleep raced the submitting thread (a collector pause or a GIL
        # hand-off can outlast it, and a submit after shutdown raises).
        entered = threading.Semaphore(0)
        pool_submit = eng._executor.submit

        def counting_submit(*args, **kwargs):
            future = pool_submit(*args, **kwargs)
            entered.release()
            return future

        eng._executor.submit = counting_submit
        batcher = threading.Thread(
            target=lambda: results.extend(
                eng.query_batch(uniform_points(50, seed=1))
            )
        )
        batcher.start()
        for _ in range(50):
            assert entered.acquire(timeout=10.0)
        assert eng.shutdown(timeout=10.0)  # drains queued work
        batcher.join(10)
        assert not batcher.is_alive()
        assert len(results) == 50  # every queued query completed
        assert eng.shutdown(timeout=1.0)  # idempotent

    def test_worker_exception_resolves_future_and_counts(self, tree):
        eng = QueryEngine(
            tree, config=QueryConfig(k=3), options=EngineOptions(workers=1)
        )
        try:
            with pytest.raises(Exception):
                # Wrong dimensionality raises inside the serving path.
                eng.query((0.5, 0.5, 0.5))
            assert eng.stats().failures == 1
        finally:
            eng.close()

    def test_truncated_results_never_cached(self, tree):
        eng = QueryEngine(
            tree,
            config=QueryConfig(k=5),
            options=EngineOptions(workers=1, cache_size=64),
        )
        try:
            cfg = QueryConfig(k=5, budget=Budget(max_pages=1))
            r1 = eng.query((0.5, 0.5), config=cfg)
            assert r1.truncated
            eng.query((0.5, 0.5), config=cfg)
            assert eng.stats().cache_hits == 0  # partial answers don't stick
            # Budgetless config is a different tier even for the same point.
            full = eng.query((0.5, 0.5))
            assert not full.truncated
            eng.query((0.5, 0.5))
            assert eng.stats().cache_hits == 1
        finally:
            eng.close()

    @pytest.mark.filterwarnings("ignore::repro.errors.CorruptionWarning")
    def test_concurrent_shutdown_inflight_and_faults(self, tmp_path):
        """Satellite requirement: concurrent shutdown() + in-flight
        queries + fault injection — no deadlock, every future resolves."""
        points = uniform_points(600, seed=9)
        items = [(Rect(p, p), i) for i, p in enumerate(points)]
        path = tmp_path / "soak.rtree"
        build_disk_index(items, path, page_size=1024).close()
        plan = FaultPlan(bit_flip_prob=0.05, transient_error_prob=0.05,
                         seed=2)
        pages = FaultInjectingPageFile(path, page_size=1024, plan=plan)
        disk = DiskRTree(
            page_file=pages, cache_nodes=4, on_corrupt="skip",
            retry=RetryPolicy(attempts=2, base_delay=0.0001),
        )
        eng = QueryEngine(
            disk,
            config=QueryConfig(k=3),
            options=EngineOptions(workers=4, cache_size=0),
        )
        outcomes = []
        stop = threading.Event()

        def submitter():
            while not stop.is_set():
                try:
                    outcomes.append(eng.query_batch([(0.5, 0.5)] * 4))
                except InvalidParameterError:
                    return  # engine closed mid-loop: expected

        threads = [threading.Thread(target=submitter) for _ in range(3)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        drained = eng.shutdown(timeout=15.0)
        stop.set()
        for t in threads:
            t.join(10)
            assert not t.is_alive()  # no deadlock, every call returned
        assert drained
        assert outcomes  # the race was real: some batches completed
        disk.close()


class TestChaosSmoke:
    def test_small_seeded_soak_passes(self):
        from repro.chaos import ChaosConfig, run_soak

        report = run_soak(ChaosConfig(
            seed=3, queries=300, n_points=800, query_pool=40,
            workers=2, queue_capacity=8,
        ))
        assert report.passed, report.render()
        assert report.served > 0
        assert report.shed > 0  # the overload is real
        assert report.oracle_checked == report.served
        assert ("closed", "open") in report.breaker_transitions

    def test_report_round_trips_to_json(self):
        import json

        from repro.chaos import ChaosConfig, run_soak

        report = run_soak(ChaosConfig(
            seed=4, queries=60, n_points=300, query_pool=10,
            workers=1, queue_capacity=4,
        ))
        blob = json.dumps(report.to_dict())
        assert json.loads(blob)["passed"] == report.passed
