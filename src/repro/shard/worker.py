"""The shard worker: one process, one attached slab, one command loop.

Workers are deliberately dumb.  The parent engine owns partitioning,
pruning, merging, caching and statistics; a worker only attaches the
published segment and answers ``query`` commands by running the packed
kernels (:func:`repro.packed.kernels.run_packed_query`) on its
zero-copy :class:`~repro.packed.PackedTree` view.  Keeping workers
stateless-but-for-the-slab is what makes failure handling simple: a
dead worker loses in-flight *requests*, never data, and the parent can
certify the degraded answer with the shard's MBR as the frontier bound
(see :mod:`repro.shard.engine`).

Wire protocol (one pickled tuple per message, over a ``Pipe``):

=============================  ============================================
parent → worker                 worker → parent
=============================  ============================================
``("query", rid, p, cfg)``      ``("ok", rid, NNResult)`` / ``("err", rid, e)``
``("query", rid, p, cfg,        ``("oks", rid, NNResult, spans)`` — sampled
sent_at)``                      request; *spans* are compact wire records
``("query_batch", rid, ps,      ``("ok", rid, [FlatResult, ...])`` (in order)
cfg)``                          / ``("err", rid, e)``
``("query_batch", rid, ps,      ``("oks", rid, [FlatResult, ...], spans)``
cfg, sent_at)``
``("publish", manifest)``       ``("ready", epoch)`` after the re-attach, or
                                ``("nack", epoch, why)`` — attach failed, the
                                worker keeps serving its current slab
``("ping",)``                   ``("pong",)``
``("sleep", seconds)``          *nothing* — test hook to simulate a stall
``("close",)``                  ``("closed",)``, then the worker exits
=============================  ============================================

The 5-element query variants are the span-sampled path: ``sent_at`` is
the parent's ``time.time()`` at send, so the worker can report the true
pipe/queue wait, and the reply carries the worker's compact span
records — queue wait, and a kernel span whose attributes summarize the
traversal (pages and P1/P3 prunes from
:class:`~repro.core.stats.SearchStats`) plus the shm attach epoch the
answer was computed against.  Error replies are unchanged: a failed
sampled query ships the same ``("err", rid, e)`` as an unsampled one.

``query_batch`` is the round-trip amortization the serving front door's
micro-batch coalescer leans on: one pickled message per shard carries a
whole window of points, instead of one IPC round trip per query per
shard, and replies ship in the columnar :mod:`repro.shard.wire` format
(~25x cheaper for the parent to unpickle than ``NNResult`` graphs).
Since the batched kernel landed, the window also shares one slab
traversal inside the worker (:func:`repro.packed.batch.run_packed_batch`)
instead of running one best-first search per point.  A
batch is all-or-nothing on the wire — any per-point failure ships one
``err`` and the parent degrades that batch as if the shard were
unreachable (sound: the shard's MBR MINDIST becomes the frontier).

Requests carry monotonically increasing ids so the parent can pipeline:
many queries may be in flight on one pipe, and the reader thread on the
parent side resolves each response to its future by ``rid``.
"""

from __future__ import annotations

import time
from typing import Any, Optional

from repro.core.stats import SearchStats
from repro.obs.spans import WIRE_PARENT
from repro.packed.batch import run_packed_batch
from repro.packed.kernels import run_packed_query
from repro.shard.slab import AttachedSlab, SlabManifest, attach_slab
from repro.shard.wire import flatten_result, flatten_spans

__all__ = ["shard_worker_main"]


def _kernel_attrs(stats: SearchStats, epoch: int, points: int = 1) -> tuple:
    """The kernel span's attribute items: traversal summary + epoch."""
    pruning = stats.pruning
    return (
        ("pages", stats.nodes_accessed),
        ("leaves", stats.leaf_accesses),
        ("objects", stats.objects_examined),
        ("p1", pruning.p1_pruned),
        ("p3", pruning.p3_pruned),
        ("truncated", int(stats.truncated)),
        ("epoch", epoch),
        ("points", points),
    )


def shard_worker_main(conn: Any, manifest: SlabManifest) -> None:
    """Entry point of a shard worker process.

    Attaches *manifest*'s segment (untracked — the parent owns cleanup),
    reports readiness, then serves commands until ``close`` or EOF.  Any
    per-query exception is shipped back tagged with the request id; only
    a broken pipe (parent died) or ``close`` ends the loop.
    """
    slab: Optional[AttachedSlab] = None
    epoch = manifest.epoch
    try:
        slab = attach_slab(manifest, untrack=True)
        conn.send(("ready", manifest.epoch))
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            op = msg[0]
            if op == "query":
                # 4-tuple: plain; 5-tuple: span-sampled (parent send time).
                rid, point, cfg = msg[1], msg[2], msg[3]
                sent_at = msg[4] if len(msg) > 4 else None
                try:
                    if sent_at is None:
                        result = run_packed_query(slab.ptree, point, cfg)
                        conn.send(("ok", rid, result))
                    else:
                        recv_s = time.time()
                        t0 = time.perf_counter()
                        result = run_packed_query(slab.ptree, point, cfg)
                        kernel_ms = (time.perf_counter() - t0) * 1000.0
                        spans = flatten_spans([
                            ("shard.queue", WIRE_PARENT, sent_at,
                             max(0.0, (recv_s - sent_at) * 1000.0), ()),
                            ("shard.kernel", WIRE_PARENT, recv_s, kernel_ms,
                             _kernel_attrs(result.stats, epoch)),
                        ])
                        conn.send(("oks", rid, result, spans))
                except BaseException as exc:  # noqa: BLE001 - shipped to parent
                    try:
                        conn.send(("err", rid, exc))
                    except Exception:
                        # Unpicklable exception: degrade to its repr.
                        conn.send(("err", rid, RuntimeError(repr(exc))))
            elif op == "query_batch":
                rid, points, cfg = msg[1], msg[2], msg[3]
                sent_at = msg[4] if len(msg) > 4 else None
                try:
                    # One shared slab traversal for the whole window
                    # (best-first configs; others fall back per-query
                    # inside run_packed_batch) — the coalescer's window
                    # costs one traversal per shard, not one per request.
                    if sent_at is None:
                        results = [
                            flatten_result(r)
                            for r in run_packed_batch(slab.ptree, points, cfg)
                        ]
                        conn.send(("ok", rid, results))
                    else:
                        recv_s = time.time()
                        t0 = time.perf_counter()
                        raw = run_packed_batch(slab.ptree, points, cfg)
                        kernel_ms = (time.perf_counter() - t0) * 1000.0
                        results = [flatten_result(r) for r in raw]
                        window = SearchStats()
                        for r in raw:
                            window.merge(r.stats)
                        spans = flatten_spans([
                            ("shard.queue", WIRE_PARENT, sent_at,
                             max(0.0, (recv_s - sent_at) * 1000.0), ()),
                            ("shard.kernel", WIRE_PARENT, recv_s, kernel_ms,
                             _kernel_attrs(window, epoch, len(points))),
                        ])
                        conn.send(("oks", rid, results, spans))
                except BaseException as exc:  # noqa: BLE001 - shipped to parent
                    try:
                        conn.send(("err", rid, exc))
                    except Exception:
                        conn.send(("err", rid, RuntimeError(repr(exc))))
            elif op == "publish":
                _, new_manifest = msg
                try:
                    fresh = attach_slab(new_manifest, untrack=True)
                except Exception as exc:  # noqa: BLE001 - shipped to parent
                    # Typically FileNotFoundError: the parent gave up on
                    # this republish and unlinked the segment before we
                    # got here.  Dying would turn an aborted republish
                    # into a lost shard; keep serving the current slab.
                    conn.send(("nack", new_manifest.epoch, repr(exc)))
                    continue
                old, slab = slab, fresh
                if old is not None:
                    old.close()
                epoch = new_manifest.epoch
                conn.send(("ready", new_manifest.epoch))
            elif op == "ping":
                conn.send(("pong",))
            elif op == "sleep":
                # Test hook: stall the command loop so harnesses can
                # deterministically kill a worker *mid-request*.
                time.sleep(msg[1])
            elif op == "close":
                break
    finally:
        if slab is not None:
            slab.close()
        try:
            conn.send(("closed",))
        except (OSError, BrokenPipeError):
            pass
        conn.close()
