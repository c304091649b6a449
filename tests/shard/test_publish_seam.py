"""The publish seam: build outside the readers' lock, collector paused
over the build and never over a fork.

A publish has two halves.  ``_build_shards`` (materialise the source,
plan, bulk-load, pack, export) allocates ~10^6 cycle-free objects and
reads nothing a query writes: it runs with the cyclic collector paused
and — on ``republish`` — under ``_swap_lock`` only, readers still served
from the current epoch.  The handle swap (publish / fork, acks, commit,
unlink, cache purge) is the only part that takes the write lock, and it
starts with the collector back in the state the caller had: a worker
forked inside the pause would inherit a disabled collector for life.
"""

import gc
import glob
import os
import threading

import pytest

import repro.shard.engine as shard_engine
from repro.audit.oracle import check_result
from repro.baselines.linear_scan import linear_scan_items
from repro.service.options import EngineOptions
from repro.shard import ShardedQueryEngine

from tests.shard.test_failure import _kill_worker

pytestmark = pytest.mark.shard

WAIT = 20.0
POINT = (500.0, 500.0)
MODES = pytest.mark.parametrize(
    "processes", [True, False], ids=["process", "inline"]
)
START = pytest.mark.parametrize(
    "start", [True, False], ids=["enabled", "disabled"]
)


def _segments(prefix):
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        pytest.skip("no /dev/shm to observe segment names")
    return sorted(glob.glob(f"/dev/shm/{prefix}*"))


def _certified(result, items, point=POINT, k=3):
    exact = linear_scan_items(items, point, k=k)
    return check_result(result.neighbors, point, k, exact, combo="seam") == []


@pytest.fixture
def halves(uniform_items):
    """Two disjoint item sets: an answer from the wrong epoch is wrong."""
    return uniform_items[:300], uniform_items[300:]


@pytest.fixture
def collector():
    """Set the collector state for a test; put back what pytest had."""
    was_enabled = gc.isenabled()
    yield lambda on: (gc.enable if on else gc.disable)()
    (gc.enable if was_enabled else gc.disable)()


@pytest.fixture
def watch(monkeypatch):
    """``gc.isenabled()`` as seen inside the build and at each fork site."""
    seen = {"build": [], "fork": []}

    def spy(owner, name, key):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            seen[key].append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    spy(shard_engine, "plan_shards", "build")
    spy(shard_engine, "export_slab", "build")
    spy(shard_engine._ProcessShard, "start", "fork")
    spy(shard_engine._ProcessShard, "publish", "fork")
    return seen


class TestCollectorNeverPausedAcrossAFork:
    @START
    def test_boot_republish_and_respawn(
        self, uniform_items, collector, watch, start
    ):
        collector(start)
        with ShardedQueryEngine(items=uniform_items, shards=2) as engine:
            assert watch == {"build": [False] * 3, "fork": [start] * 2}
            assert gc.isenabled() is start
            engine.republish(items=uniform_items)
            assert watch["fork"] == [start] * 4
            assert gc.isenabled() is start
            _kill_worker(engine, 0)
            engine.republish(items=uniform_items)  # one start, one publish
            assert watch["fork"] == [start] * 6
            assert watch["build"] == [False] * 9
            assert gc.isenabled() is start
            assert engine.liveness()["alive"] == [True, True]
            assert _certified(engine.query(POINT, k=3), uniform_items)

    @START
    def test_state_is_restored_on_every_failed_build(
        self, uniform_items, collector, monkeypatch, start
    ):
        collector(start)

        def fail(*args, **kwargs):
            assert not gc.isenabled()
            raise OSError("injected")

        real_plan, real_export = shard_engine.plan_shards, shard_engine.export_slab
        monkeypatch.setattr(shard_engine, "plan_shards", fail)
        with pytest.raises(OSError, match="injected"):
            ShardedQueryEngine(items=uniform_items, shards=2)
        assert gc.isenabled() is start
        monkeypatch.setattr(shard_engine, "plan_shards", real_plan)

        with ShardedQueryEngine(items=uniform_items, shards=2) as engine:
            before = _segments(engine.name_prefix)
            monkeypatch.setattr(shard_engine, "plan_shards", fail)
            with pytest.raises(OSError, match="injected"):
                engine.republish(items=uniform_items)
            assert gc.isenabled() is start
            monkeypatch.setattr(shard_engine, "plan_shards", real_plan)

            def second_export_fails(ptree, index, mbr, name):
                if index == 1:
                    fail()
                return real_export(ptree, index, mbr, name)

            monkeypatch.setattr(shard_engine, "export_slab", second_export_fails)
            with pytest.raises(OSError, match="injected"):
                engine.republish(items=uniform_items)
            assert gc.isenabled() is start

            def vanishing_export(ptree, index, mbr, name):
                slab = real_export(ptree, index, mbr, name)
                if index == 1:  # the worker's attach finds nothing: a nack
                    os.unlink(f"/dev/shm/{slab.name.lstrip('/')}")
                return slab

            monkeypatch.setattr(shard_engine, "export_slab", vanishing_export)
            with pytest.raises(shard_engine.ShardLostError, match="could not attach"):
                engine.republish(items=uniform_items)
            assert gc.isenabled() is start
            monkeypatch.setattr(shard_engine, "export_slab", real_export)

            assert _segments(engine.name_prefix) == before
            assert engine.liveness()["alive"] == [True, True]
            assert engine.republish(items=uniform_items) == 2
            assert gc.isenabled() is start


class _Gate:
    """Hold ``plan_shards`` — the first step of a build — on an event."""

    def __init__(self, monkeypatch):
        self.entered = threading.Event()
        self.release = threading.Event()
        real = shard_engine.plan_shards

        def gated(*args, **kwargs):
            self.entered.set()
            assert self.release.wait(WAIT), "gate never released"
            return real(*args, **kwargs)

        monkeypatch.setattr(shard_engine, "plan_shards", gated)


def _in_thread(call):
    outcome = {}

    def run():
        try:
            outcome["value"] = call()
        except BaseException as exc:  # noqa: BLE001 - reported by the test
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


class TestRepublishBuildsOutsideTheReadersLock:
    @MODES
    def test_readers_see_the_old_epoch_until_the_swap(
        self, halves, monkeypatch, processes
    ):
        old, new = halves
        engine = ShardedQueryEngine(
            items=old, shards=2, processes=processes,
            options=EngineOptions(workers=2, cache_size=64),
        )
        prefix = engine.name_prefix
        try:
            before = _segments(prefix) if processes else []
            gate = _Gate(monkeypatch)
            writer, published = _in_thread(lambda: engine.republish(items=new))
            assert gate.entered.wait(WAIT)

            def read():
                return (
                    engine.query(POINT, k=3),
                    engine.query_batch([POINT, (1.0, 2.0)], k=3),
                    engine.submit(POINT, k=3).result(timeout=WAIT),
                    engine.liveness(),
                )

            reader, answers = _in_thread(read)
            reader.join(WAIT / 2)
            try:
                # At the parent the build ran inside the write lock and
                # this reader is still parked on it.
                assert not reader.is_alive(), "a reader waited for the build"
            finally:
                gate.release.set()
            solo, window, submitted, live = answers["value"]
            assert _certified(solo, old) and _certified(submitted, old)
            assert _certified(window[0], old)
            assert _certified(window[1], old, point=(1.0, 2.0))
            assert live["ready"] and live["epoch"] == 1
            assert len(engine.cache) > 0  # the old epoch's answers

            writer.join(WAIT)
            assert not writer.is_alive() and published == {"value": 2}
            assert engine.liveness()["epoch"] == 2
            assert len(engine.cache) == 0
            assert _certified(engine.query(POINT, k=3), new)
            if processes:
                after = _segments(prefix)
                assert len(after) == 2 and not set(after) & set(before)
        finally:
            engine.close()
        assert _segments(prefix) == []

    def test_close_waits_for_a_build_in_flight(self, halves, monkeypatch):
        old, new = halves
        engine = ShardedQueryEngine(items=old, shards=2)
        prefix = engine.name_prefix
        gate = _Gate(monkeypatch)
        writer, published = _in_thread(lambda: engine.republish(items=new))
        try:
            assert gate.entered.wait(WAIT)
            closer, closed = _in_thread(engine.close)
            closer.join(0.3)
            assert closer.is_alive(), "close() did not wait for the build"
        finally:
            gate.release.set()
        writer.join(WAIT)
        closer.join(WAIT)
        assert not writer.is_alive() and not closer.is_alive()
        assert published == {"value": 2} and closed == {"value": None}
        assert _segments(prefix) == []

    @MODES
    def test_a_failed_build_leaves_the_served_epoch_untouched(
        self, halves, monkeypatch, processes
    ):
        old, new = halves
        real_load = shard_engine.bulk_load
        calls = []

        def second_load_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise MemoryError("injected: shard 1 of 2")
            return real_load(*args, **kwargs)

        with ShardedQueryEngine(
            items=old, shards=2, processes=processes,
            options=EngineOptions(cache_size=0),
        ) as engine:
            prefix = engine.name_prefix
            segments = _segments(prefix)
            served = (
                engine.liveness(), engine._plan, list(engine._handles),
                [(h.mbr, h.size) for h in engine._handles],
            )
            monkeypatch.setattr(shard_engine, "bulk_load", second_load_fails)
            with pytest.raises(MemoryError, match="injected"):
                engine.republish(items=new)
            monkeypatch.setattr(shard_engine, "bulk_load", real_load)
            assert served == (
                engine.liveness(), engine._plan, list(engine._handles),
                [(h.mbr, h.size) for h in engine._handles],
            )
            assert _segments(prefix) == segments
            assert _certified(engine.query(POINT, k=3), old)
            assert _certified(engine.query_batch([POINT], k=3)[0], old)
        assert _segments(prefix) == []
