"""Lifecycle edge cases: close-deadline math and the cancel-vs-dispatch race.

Two serving-layer bugs are pinned here as regressions:

- ``close(timeout)`` used one shared join deadline, so a single wedged
  worker burned the whole budget and the joins behind it got nothing —
  the fixed version clamps each join to an equal per-thread slice and
  still reports ``False`` honestly when a thread survives;
- a client cancelling its future between enqueue and dispatch left the
  future CANCELLED, and every shedding path that then called
  ``set_exception`` on it raised ``InvalidStateError`` — crashing
  ``submit`` (adaptive-lifo eviction), killing a worker thread for good
  (dequeue expiry), or aborting the ``close`` flush — and dropped the
  request from the ``ResilienceStats`` conservation law.
"""

import threading
import time
from concurrent.futures import CancelledError, TimeoutError as FutureTimeout
from concurrent.futures import wait

import pytest

from repro.datasets import uniform_points
from repro.errors import AdmissionRejected
from repro.service.resilience import ResilientEngine

from tests.conftest import build_point_tree

pytestmark = pytest.mark.resilience

WEDGE = (9.0, 9.0)


@pytest.fixture(scope="module")
def tree():
    return build_point_tree(uniform_points(400, seed=5), max_entries=8)


class _FakeStats:
    truncated = False
    truncation_reason = None


class _FakeResult:
    stats = _FakeStats()


class _GateBackend:
    """Engine stub whose ``query`` blocks on a gate for the wedge point."""

    def __init__(self):
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.closed = False

    def query(self, point, k=None, config=None, budget=None):
        if tuple(point) == WEDGE:
            self.entered.set()
            self.gate.wait(30)
        return _FakeResult()

    def close(self, timeout=None):
        self.closed = True
        return True


class TestCloseJoinSlices:
    def test_wedged_worker_cannot_eat_later_join_budgets(self):
        """A stuck worker burns only its own slice of the close budget.

        Pre-fix, the joins shared one deadline: the wedged thread's join
        consumed the entire 0.8 s regardless of its position, so close
        always took ~timeout.  Post-fix each of the 4 threads gets a
        0.2 s slice, the three healthy ones join instantly, and close
        returns (honestly ``False``) in roughly one slice.
        """
        backend = _GateBackend()
        eng = ResilientEngine(engine=backend, workers=4, queue_capacity=8)
        wedged = eng.submit(WEDGE, k=1)
        try:
            assert backend.entered.wait(5)
            t0 = time.monotonic()
            drained = eng.close(timeout=0.8)
            elapsed = time.monotonic() - t0
            assert drained is False  # honest: one thread survived
            assert elapsed < 0.55, (
                f"close took {elapsed:.3f}s: the wedged worker ate the "
                f"budget of the healthy joins"
            )
        finally:
            backend.gate.set()
        wedged.result(5)
        assert eng.close(timeout=5) is True  # idempotent, now drains
        assert backend.closed
        stats = eng.stats()
        assert stats.conserved, stats.as_dict()

    def test_close_without_timeout_still_joins_everything(self):
        backend = _GateBackend()
        eng = ResilientEngine(engine=backend, workers=2, queue_capacity=4)
        fut = eng.submit((0.1, 0.2), k=1)
        fut.result(5)
        assert eng.close() is True
        assert eng.stats().conserved


class TestCancelledFutureRace:
    def test_close_flush_tolerates_cancelled_futures(self):
        """A queued future the client cancelled must not abort the flush.

        Pre-fix the flush loop called ``set_exception`` on the cancelled
        future and ``close`` itself raised ``InvalidStateError``, leaving
        the requests behind it unresolved.
        """
        backend = _GateBackend()
        eng = ResilientEngine(engine=backend, workers=1, queue_capacity=8)
        blocker = eng.submit(WEDGE, k=1)
        assert backend.entered.wait(5)
        abandoned = eng.submit((0.1, 0.1), k=1)
        queued = eng.submit((0.2, 0.2), k=1)
        assert abandoned.cancel()
        assert eng.close(timeout=0.4) is False  # pre-fix: InvalidStateError
        backend.gate.set()
        blocker.result(5)
        assert eng.close(timeout=5) is True
        with pytest.raises(AdmissionRejected):
            queued.result(1)
        stats = eng.stats()
        assert stats.conserved, stats.as_dict()
        assert stats.cancelled == 1
        assert stats.shed_shutdown == 1
        assert stats.served == 1

    def test_expired_cancelled_future_does_not_kill_the_worker(self):
        """Dequeue-time expiry of a cancelled future must not raise.

        Pre-fix the worker thread died with ``InvalidStateError`` inside
        ``_dequeue`` and every later submission waited forever.
        """
        clock = [0.0]
        backend = _GateBackend()
        eng = ResilientEngine(
            engine=backend,
            workers=1,
            queue_capacity=8,
            queue_timeout_ms=50.0,
            clock=lambda: clock[0],
        )
        blocker = eng.submit(WEDGE, k=1)
        assert backend.entered.wait(5)
        abandoned = eng.submit((0.1, 0.1), k=1)
        assert abandoned.cancel()
        clock[0] = 1.0  # the cancelled waiter is now also expired
        backend.gate.set()
        blocker.result(5)
        follow_up = eng.submit((0.2, 0.2), k=1)
        try:
            follow_up.result(5)  # pre-fix: dead worker, TimeoutError
        except FutureTimeout:
            pytest.fail("worker thread died on a cancelled expired future")
        assert eng.close(timeout=5) is True
        stats = eng.stats()
        assert stats.conserved, stats.as_dict()
        assert stats.cancelled == 1
        assert stats.shed_expired == 0

    def test_evicting_a_cancelled_victim_does_not_break_submit(self):
        """adaptive-lifo eviction of a cancelled waiter must stay internal.

        Pre-fix ``submit`` itself raised ``InvalidStateError`` while
        evicting the cancelled victim — violating the documented
        "shedding never raises out of submit" contract.
        """
        backend = _GateBackend()
        eng = ResilientEngine(
            engine=backend,
            workers=1,
            queue_capacity=1,
            shed_policy="adaptive-lifo",
        )
        blocker = eng.submit(WEDGE, k=1)
        assert backend.entered.wait(5)
        victim = eng.submit((0.1, 0.1), k=1)
        assert victim.cancel()
        newcomer = eng.submit((0.2, 0.2), k=1)  # pre-fix: raises here
        backend.gate.set()
        blocker.result(5)
        newcomer.result(5)
        assert eng.close(timeout=5) is True
        stats = eng.stats()
        assert stats.conserved, stats.as_dict()
        assert stats.cancelled == 1
        assert stats.shed_evicted == 0

    @pytest.mark.parametrize("path", ["shutdown", "expiry", "eviction"])
    def test_cancelled_future_shed_by_the_engine_is_reported_done(self, path):
        """``concurrent.futures.wait`` must see a cancelled waiter finish.

        ``cancel()`` leaves a future CANCELLED; only
        ``set_running_or_notify_cancel`` moves it to the
        CANCELLED_AND_NOTIFIED state that ``wait`` / ``as_completed``
        count as done.  Dispatch made that call; pre-fix the three
        shedding paths (close flush, expiry, eviction) counted the cancel
        and skipped it, so a client waiting on a batch of futures hung on
        the one it had cancelled itself.
        """
        clock = [0.0]
        backend = _GateBackend()
        eng = ResilientEngine(
            engine=backend,
            workers=1,
            queue_capacity=1,
            shed_policy="adaptive-lifo" if path == "eviction" else "reject-newest",
            queue_timeout_ms=50.0 if path == "expiry" else None,
            clock=lambda: clock[0],
        )
        blocker = eng.submit(WEDGE, k=1)
        assert backend.entered.wait(5)
        abandoned = eng.submit((0.1, 0.1), k=1)
        assert abandoned.cancel()
        if path == "shutdown":
            assert eng.close(timeout=0.2) is False  # flushes the queue
        elif path == "eviction":
            eng.submit((0.2, 0.2), k=1)  # evicts the cancelled waiter
        else:
            clock[0] = 1.0  # expired: dropped at the next dequeue
            backend.gate.set()
            blocker.result(5)
        done, not_done = wait([abandoned], timeout=1)
        assert done == {abandoned} and not not_done  # pre-fix: not_done
        with pytest.raises(CancelledError):
            abandoned.result(0)
        backend.gate.set()
        blocker.result(5)
        assert eng.close(timeout=5) is True
        stats = eng.stats()
        assert stats.conserved, stats.as_dict()
        assert stats.cancelled == 1

    def test_cancel_vs_dispatch_hammer_conserves(self, tree):
        """Racing cancels against dispatch/expiry/eviction/close.

        Every future must resolve, the engine-side ``cancelled`` counter
        must equal the client-side successful cancels, and the
        conservation law must hold through the mayhem.
        """
        eng = ResilientEngine(
            tree,
            workers=2,
            queue_capacity=8,
            shed_policy="expired-drop",
            queue_timeout_ms=2.0,
            cache_size=0,
        )
        futs = []
        lock = threading.Lock()
        stop = threading.Event()
        client_cancels = [0, 0]

        def producer():
            for _ in range(200):
                f = eng.submit((0.5, 0.5), k=2)
                with lock:
                    futs.append(f)

        def canceller(slot):
            offset = slot
            while not stop.is_set():
                with lock:
                    snapshot = list(futs)
                for f in snapshot[offset::2]:
                    if f.cancel():
                        client_cancels[slot] += 1
                offset ^= 1
                time.sleep(0.001)

        producers = [threading.Thread(target=producer) for _ in range(2)]
        cancellers = [
            threading.Thread(target=canceller, args=(i,)) for i in range(2)
        ]
        for t in producers + cancellers:
            t.start()
        for t in producers:
            t.join(30)
        stop.set()
        for t in cancellers:
            t.join(30)
        done, not_done = wait(futs, timeout=30)
        assert not not_done
        assert eng.close(timeout=10) is True
        outcomes = {"served": 0, "shed": 0, "cancelled": 0}
        for f in futs:
            try:
                f.result(0)
                outcomes["served"] += 1
            except CancelledError:
                outcomes["cancelled"] += 1
            except AdmissionRejected:
                outcomes["shed"] += 1
        stats = eng.stats()
        assert stats.conserved, stats.as_dict()
        assert stats.pending == 0 and stats.inflight == 0
        assert outcomes["cancelled"] == sum(client_cancels)
        assert stats.cancelled == outcomes["cancelled"]
        assert stats.submitted == len(futs) == 400
