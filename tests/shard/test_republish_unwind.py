"""Republish failure must not orphan the new epoch in ``/dev/shm``.

``republish`` exports the next epoch's segments *before* the
ack-before-unlink swap.  A fault between those two steps (an export
failing halfway through the shard loop, a worker never acking) used to
leak every already-exported new-epoch segment: the engine kept serving
the old epoch, nothing ever unlinked ``-e<new>-`` names, and the leak
survived ``close()`` — breaking the ``name_prefix`` contract the CI
shard job checks system-wide.  The fixed unwind unlinks exactly the
unpublished epoch's segments and re-raises; the old epoch keeps serving
untouched.

"Keeps serving" includes the workers: one that reaches ``attach_slab``
only after the unwind finds the segment gone, and must answer with a
nack and keep its current slab — not die on ``FileNotFoundError`` and
turn an aborted republish into a lost shard.
"""

import glob
import os

import pytest

import repro.shard.engine as shard_engine
from repro.service.options import EngineOptions
from repro.shard import ShardedQueryEngine

pytestmark = pytest.mark.shard


def _segments(prefix):
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        pytest.skip("no /dev/shm to observe segment names")
    return sorted(glob.glob(f"/dev/shm/{prefix}*"))


class TestRepublishUnwind:
    def test_export_failure_midway_unlinks_only_the_new_epoch(
        self, uniform_items, monkeypatch
    ):
        eng = ShardedQueryEngine(
            items=uniform_items, shards=2, processes=True
        )
        try:
            prefix = eng.name_prefix
            before = _segments(prefix)
            assert len(before) == 2  # the published epoch's two shards
            baseline = eng.query((0.5, 0.5), k=3)

            real_export = shard_engine.export_slab
            calls = {"n": 0}

            def flaky_export(ptree, index, mbr, name):
                calls["n"] += 1
                if calls["n"] == 2:
                    raise OSError("injected export failure on shard 1")
                return real_export(ptree, index, mbr, name)

            monkeypatch.setattr(shard_engine, "export_slab", flaky_export)
            with pytest.raises(OSError, match="injected export failure"):
                eng.republish(items=uniform_items)
            monkeypatch.setattr(shard_engine, "export_slab", real_export)

            # Exactly the old epoch's segments remain: the half-exported
            # new epoch was unwound, not orphaned.
            assert _segments(prefix) == before

            # The old epoch still serves, bit-identical to before.
            again = eng.query((0.5, 0.5), k=3)
            assert again.distances() == baseline.distances()

            # A clean republish afterwards works and swaps epochs.
            new_epoch = eng.republish(items=uniform_items)
            assert new_epoch == 2
            after = _segments(prefix)
            assert len(after) == 2
            assert after != before
        finally:
            eng.close()
        assert _segments(prefix) == []

    def test_ack_failure_after_full_export_unlinks_the_new_epoch(
        self, uniform_items, monkeypatch
    ):
        eng = ShardedQueryEngine(
            items=uniform_items, shards=2, processes=True
        )
        try:
            prefix = eng.name_prefix
            before = _segments(prefix)

            def no_ack(self, epoch):
                raise shard_engine.ShardLostError(
                    "injected: worker never acked the new epoch"
                )

            monkeypatch.setattr(
                shard_engine._ProcessShard, "wait_ready", no_ack
            )
            with pytest.raises(shard_engine.ShardLostError):
                eng.republish(items=uniform_items)
            monkeypatch.undo()

            # Both fully-exported new-epoch segments were unwound.
            assert _segments(prefix) == before
            assert len(eng.query((0.5, 0.5), k=3).neighbors) == 3
        finally:
            eng.close()
        assert _segments(prefix) == []

    def test_worker_that_attaches_after_the_unwind_keeps_serving(
        self, uniform_items, monkeypatch
    ):
        eng = ShardedQueryEngine(
            items=uniform_items,
            shards=2,
            processes=True,
            options=EngineOptions(cache_size=0),
        )
        try:
            prefix = eng.name_prefix
            before = _segments(prefix)
            point = (500.0, 500.0)
            # No result cache, and query_batch skips the shard-level
            # prune: every worker must answer every time, so a dead one
            # shows as a truncated result.
            baseline = eng.query_batch([point], k=3)[0]
            assert not baseline.truncated

            # Force the losing order: both workers sleep through the
            # publish and the unwind, and wake to an unlinked segment.
            for handle in eng._handles:
                handle.conn.send(("sleep", 1.0))

            def no_ack(self, epoch):
                raise shard_engine.ShardLostError(
                    "injected: parent gave up before the workers woke"
                )

            monkeypatch.setattr(
                shard_engine._ProcessShard, "wait_ready", no_ack
            )
            with pytest.raises(shard_engine.ShardLostError):
                eng.republish(items=uniform_items)
            monkeypatch.undo()
            assert _segments(prefix) == before

            # Queues behind the sleep and the failed attach on each pipe.
            again = eng.query_batch([point], k=3)[0]
            assert not again.truncated
            assert again.distances() == baseline.distances()
            assert eng.liveness()["alive"] == [True, True]
            assert _segments(prefix) == before

            # The late nacks do not poison the retry of the same epoch.
            assert eng.republish(items=uniform_items) == 2
            after = _segments(prefix)
            assert len(after) == 2 and after != before
            assert not eng.query_batch([point], k=3)[0].truncated
        finally:
            eng.close()
        assert _segments(prefix) == []
