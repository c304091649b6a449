"""The shard worker: one process, one attached slab, one command loop.

Workers are deliberately dumb.  The parent engine owns partitioning,
pruning, merging, caching and statistics; a worker only attaches the
published segment and answers ``query`` commands by running the packed
kernels (:func:`repro.packed.batch.run_packed_batch`) on its zero-copy
:class:`~repro.packed.PackedTree` view.  Keeping workers
stateless-but-for-the-slab is what makes failure handling simple: a
dead worker loses in-flight *requests*, never data, and the parent can
certify the degraded answer with the shard's MBR as the frontier bound
(see :mod:`repro.shard.engine`).

Wire protocol (one pickled tuple per message, over a ``Pipe``):

=============================  ============================================
parent → worker                 worker → parent
=============================  ============================================
``("query", rid, ps, cfg)``     ``("ok", rid, [FlatResult, ...])`` (in order)
                                / ``("err", rid, e)``
``("query", rid, ps, cfg,       ``("oks", rid, [FlatResult, ...], spans)`` —
sent_at)``                      sampled window; *spans* are compact wire
                                records / ``("err", rid, e)``
``("publish", manifest)``       ``("ready", epoch)`` after the re-attach, or
                                ``("nack", epoch, why)`` — attach failed, the
                                worker keeps serving its current slab
``("ping",)``                   ``("pong",)``
``("sleep", seconds)``          *nothing* — test hook to simulate a stall
``("close",)``                  ``("closed",)``, then the worker exits
=============================  ============================================

There is one query op and one reply shape.  ``ps`` is a *window*: a
list of points that share ``cfg``.  The per-query scatter sends a
window of one, the batch scatter (the front door's micro-batch
coalescer) the whole window in one message — one IPC round trip per
shard either way.  Replies ship in the columnar :mod:`repro.shard.wire`
format, primitives only, one :data:`~repro.shard.wire.FlatResult` per
point.  :func:`serve_window` is the whole op; a window of two or more
shares one slab traversal (the batch kernel), a window of one the solo
kernel or, warm, its numpy block (``run_packed_batch`` decides).  A
window is all-or-nothing on the wire: any per-point failure ships one
``err`` and the parent raises it out of the call that sent the window.

The 5-element query variant is the span-sampled path: ``sent_at`` is
the parent's ``time.time()`` at send, so the worker can report the true
pipe/queue wait, and the reply carries the worker's compact span
records — queue wait, and a kernel span whose attributes summarize the
window's traversal (pages and P1/P3 prunes from
:class:`~repro.core.stats.SearchStats`, ``points`` = window size) plus
the shm attach epoch the answer was computed against.  Error replies
are unchanged: a failed sampled window ships the same ``("err", rid,
e)`` as an unsampled one.

Requests carry monotonically increasing ids so the parent can pipeline:
many queries may be in flight on one pipe, and the reader thread on the
parent side resolves each response to its future by ``rid``.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.core.config import QueryConfig
from repro.core.stats import SearchStats
from repro.obs.spans import WIRE_PARENT
from repro.packed.batch import run_packed_batch
from repro.packed.layout import PackedTree
from repro.shard.slab import AttachedSlab, SlabManifest, attach_slab
from repro.shard.wire import FlatResult, WireSpan, flatten_result, flatten_spans

__all__ = ["serve_window", "shard_worker_main"]


def serve_window(
    ptree: PackedTree,
    points: Sequence[Sequence[float]],
    cfg: QueryConfig,
    sent_at: Optional[float],
) -> Union[List[FlatResult], Tuple[List[FlatResult], Tuple[WireSpan, ...]]]:
    """Answer one window on *ptree*: the whole of the ``query`` op.

    Returns what the parent-side future resolves to: the list of
    :data:`~repro.shard.wire.FlatResult` replies, one per point in
    order, or — for a span-sampled window (*sent_at* set) —
    ``(replies, wire_spans)`` with the ``shard.queue`` and
    ``shard.kernel`` records.  The inline shard handle calls this
    directly, so both modes answer through the same code.
    """
    if sent_at is None:
        return [
            flatten_result(r) for r in run_packed_batch(ptree, points, cfg)
        ]
    recv_s = time.time()
    t0 = time.perf_counter()
    results = run_packed_batch(ptree, points, cfg)
    kernel_ms = (time.perf_counter() - t0) * 1000.0
    window = SearchStats()
    for r in results:
        window.merge(r.stats)
    pruning = window.pruning
    spans = flatten_spans([
        ("shard.queue", WIRE_PARENT, sent_at,
         max(0.0, (recv_s - sent_at) * 1000.0), ()),
        ("shard.kernel", WIRE_PARENT, recv_s, kernel_ms, (
            ("pages", window.nodes_accessed),
            ("leaves", window.leaf_accesses),
            ("objects", window.objects_examined),
            ("p1", pruning.p1_pruned),
            ("p3", pruning.p3_pruned),
            ("truncated", int(window.truncated)),
            ("epoch", ptree.epoch),
            ("points", len(points)),
        )),
    ])
    return [flatten_result(r) for r in results], spans


def shard_worker_main(conn: Any, manifest: SlabManifest) -> None:
    """Entry point of a shard worker process.

    Attaches *manifest*'s segment (untracked — the parent owns cleanup),
    reports readiness, then serves commands until ``close`` or EOF.  Any
    per-query exception is shipped back tagged with the request id; only
    a broken pipe (parent died) or ``close`` ends the loop.
    """
    slab: Optional[AttachedSlab] = None
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
                rid, points, cfg = msg[1], msg[2], msg[3]
                sent_at = msg[4] if len(msg) > 4 else None
                try:
                    reply = serve_window(slab.ptree, points, cfg, sent_at)
                    if sent_at is None:
                        conn.send(("ok", rid, reply))
                    else:
                        conn.send(("oks", rid) + reply)
                except BaseException as exc:  # noqa: BLE001 - shipped to parent
                    try:
                        conn.send(("err", rid, exc))
                    except Exception:
                        # Unpicklable exception: degrade to its repr.
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
