"""`ShardedQueryEngine`: multi-process scatter-gather k-NN serving.

The thread-based :class:`~repro.service.QueryEngine` serializes packed-
kernel CPU work on the GIL; this engine escapes it.  The index is
partitioned into N spatially coherent :class:`~repro.packed.PackedTree`
shards (:mod:`repro.shard.partition`), each shard's slabs live in a
``multiprocessing.shared_memory`` segment (:mod:`repro.shard.slab`),
and each shard is served by its own worker *process*
(:mod:`repro.shard.worker`) that attached the segment zero-copy.

A query is answered by scatter-gather with the paper's P3 bound lifted
from node level to shard level:

1. Compute ``MINDIST(q, shard_MBR)`` for every shard and sort.
2. **Round 1:** query the nearest shard synchronously.  If it returns a
   full k (untruncated), its k-th distance ``d_k`` becomes the pruning
   bound.
3. **Round 2:** every other shard with
   ``MINDIST > d_k / (1 + eps)^2`` is pruned outright — by Theorem 1
   (MINDIST lower-bounds the distance of everything inside an MBR) it
   cannot hold any of the k answers (a shard sitting *exactly* on the
   bound can: an equal-distance object may win the merge's tie-break).
   Survivors are queried *in parallel*, one in-flight request per
   worker pipe.
4. Merge all per-shard results with the same tie discipline the
   kernels use — sort by ``(distance², shard, within-shard rank)`` —
   and keep the first k.

Degradation is first-class: a worker that dies (crash, OOM-kill) fails
only in-flight requests.  The merged answer is then flagged
``truncated=True`` with ``truncation_reason="shard-lost"`` and a
frontier bound of ``min`` over the lost shard MINDISTs (plus any
truncated-shard frontiers and pruned-shard MINDISTs), which is exactly
the contract :func:`repro.audit.check_truncated_result` certifies.

A snapshot swap (:meth:`ShardedQueryEngine.republish`) re-partitions,
exports fresh segments under the next epoch, and publishes each
segment *name* to its worker; workers re-attach and the old epoch's
segments are unlinked once every worker acknowledged — dead workers are
respawned in the same pass.  See docs/SHARDING.md for the lifecycle
state machine and the pruning-bound derivation.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import secrets
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro._gcpause import _gc_paused
from repro.core.config import QueryConfig
from repro.core.metrics import mindist_squared
from repro.core.query import NNResult, resolve_config
from repro.core.stats import SearchStats
from repro.errors import InvalidParameterError, ShardLostError
from repro.geometry.point import as_point
from repro.geometry.rect import Rect
from repro.obs.spans import SpanContext
from repro.packed.layout import PackedTree
from repro.rtree.bulk import bulk_load
from repro.service.cache import ResultCache
from repro.service.locks import ReadWriteLock
from repro.service.options import EngineOptions
from repro.service.protocol import EngineSnapshot
from repro.service.stats import LatencyRecorder
from repro.shard.partition import ShardPlan, plan_shards
from repro.shard.slab import ExportedSlab, export_slab
from repro.shard.wire import FlatResult, inflate_neighbor, inflate_stats
from repro.shard.worker import serve_window, shard_worker_main

__all__ = ["ShardedQueryEngine", "ShardedStats"]

_INF = float("inf")

#: Miss sentinel (an ``NNResult`` is never ``None``, but a falsy cached
#: value must not read as a miss — same convention as the thread engine).
_CACHE_MISS = object()

#: How long boot/publish/close waits on a worker before declaring it
#: lost.  Generous: attach cost is milliseconds even for large slabs.
_WORKER_TIMEOUT = 30.0


def _mp_context():
    """Prefer fork (fast, Linux); fall back to spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


@dataclass(frozen=True)
class ShardedStats:
    """One immutable snapshot of a :class:`ShardedQueryEngine`."""

    #: Queries answered (hits + executed).
    queries: int
    #: Answered straight from the result cache.
    cache_hits: int
    #: Answered by scatter-gather.
    executed: int
    #: Queries that raised out of the serving path.
    failures: int
    #: Shard count (== worker processes in process mode).
    shards: int
    #: Workers currently alive (== ``shards`` unless some died).
    workers_alive: int
    #: Publish epoch being served.
    epoch: int
    #: Per-shard requests actually sent (after pruning).
    shards_queried: int
    #: Shards skipped because their MBR MINDIST beat the k-th distance.
    shards_pruned: int
    #: Merged answers degraded by a lost worker (``shard-lost``).
    degraded: int
    #: Median / tail latencies, milliseconds.
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    latency_max_ms: float
    #: Logical pages per executed query, summed across queried shards.
    pages_per_query: float
    #: Shared-memory bytes currently published across all shards.
    segment_bytes: int
    #: Item count per shard (load-balance visibility).
    shard_sizes: Tuple[int, ...] = field(default_factory=tuple)

    @property
    def hit_ratio(self) -> float:
        if not self.queries:
            return 0.0
        return self.cache_hits / self.queries

    @property
    def prune_ratio(self) -> float:
        """Fraction of shard visits avoided by the shard-level P3 bound."""
        considered = self.shards_queried + self.shards_pruned
        if not considered:
            return 0.0
        return self.shards_pruned / considered

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"sharded engine: {self.shards} shards "
            f"({self.workers_alive} alive), epoch {self.epoch}, "
            f"{self.segment_bytes}B shared",
            f"  queries {self.queries} (hits {self.cache_hits}, "
            f"executed {self.executed}, failures {self.failures}, "
            f"degraded {self.degraded})",
            f"  shard visits {self.shards_queried}, pruned "
            f"{self.shards_pruned} ({self.prune_ratio:.0%})",
            f"  latency ms p50 {self.latency_p50_ms:.3f} "
            f"p95 {self.latency_p95_ms:.3f} p99 {self.latency_p99_ms:.3f} "
            f"max {self.latency_max_ms:.3f}",
            f"  pages/query {self.pages_per_query:.1f}, "
            f"shard sizes {list(self.shard_sizes)}",
        ]
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        """Flat counter dict (metrics-registry export shape)."""
        return {
            "queries": self.queries,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "failures": self.failures,
            "shards": self.shards,
            "workers_alive": self.workers_alive,
            "epoch": self.epoch,
            "shards_queried": self.shards_queried,
            "shards_pruned": self.shards_pruned,
            "prune_ratio": self.prune_ratio,
            "degraded": self.degraded,
            "hit_ratio": self.hit_ratio,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "latency_mean_ms": self.latency_mean_ms,
            "latency_max_ms": self.latency_max_ms,
            "pages_per_query": self.pages_per_query,
            "segment_bytes": self.segment_bytes,
        }

    def export(self) -> Dict[str, Any]:
        return self.as_dict()


class _ProcessShard:
    """Parent-side handle on one shard worker process.

    Owns the pipe, a dedicated reader thread that resolves responses to
    futures by request id (so many queries pipeline over one pipe), and
    the dead/alive state.  All sends go through one lock; the reader
    thread is the only receiver.
    """

    def __init__(self, index: int, ctx: Any) -> None:
        self.index = index
        self.mbr: Optional[Rect] = None
        self.size = 0
        self._ctx = ctx
        self.dead = False
        self.proc: Optional[Any] = None
        self.conn: Optional[Any] = None
        self._reader: Optional[threading.Thread] = None
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: Dict[int, Future] = {}
        self._rids = itertools.count(1)
        self._cond = threading.Condition()
        # The worker's verdict per published epoch: None = attached
        # ("ready"), a string = why the attach failed ("nack").
        self._verdicts: Dict[int, Optional[str]] = {}

    # -- lifecycle -----------------------------------------------------
    def start(self, slab: ExportedSlab, mbr: Optional[Rect], size: int) -> None:
        self.mbr = mbr
        self.size = size
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=shard_worker_main,
            args=(child_conn, slab.manifest),
            name=f"repro-shard-{self.index}",
            daemon=True,
        )
        proc.start()
        # The parent must drop its copy of the child end, or a worker
        # crash would never surface as EOF on the parent's pipe.
        child_conn.close()
        self.proc = proc
        self.conn = parent_conn
        self.dead = False
        self._verdicts.clear()
        reader = threading.Thread(
            target=self._read_loop,
            name=f"repro-shard-reader-{self.index}",
            daemon=True,
        )
        reader.start()
        self._reader = reader

    def wait_ready(self, epoch: int, timeout: float = _WORKER_TIMEOUT) -> None:
        with self._cond:
            ok = self._cond.wait_for(
                lambda: epoch in self._verdicts or self.dead, timeout
            )
            nack = self._verdicts.get(epoch)
        if nack is not None:
            # This epoch failed; the worker is alive on its current slab.
            raise ShardLostError(
                f"shard {self.index} worker could not attach epoch "
                f"{epoch}: {nack}"
            )
        if self.dead or not ok:
            self._mark_dead()
            raise ShardLostError(
                f"shard {self.index} worker failed to attach epoch {epoch}"
            )

    def publish(self, slab: ExportedSlab, mbr: Optional[Rect], size: int) -> None:
        """Send the new segment name; caller waits via :meth:`wait_ready`."""
        self.mbr = mbr
        self.size = size
        with self._cond:
            # An aborted republish reuses its epoch number on the retry:
            # forget that attempt's verdict.
            self._verdicts.pop(slab.manifest.epoch, None)
        with self._send_lock:
            if self.dead:
                raise ShardLostError(f"shard {self.index} worker is dead")
            self.conn.send(("publish", slab.manifest))

    def request_close(self) -> None:
        with self._send_lock:
            if self.dead or self.conn is None:
                return
            try:
                self.conn.send(("close",))
            except (OSError, ValueError, BrokenPipeError):
                pass

    def finalize(self, timeout: float = _WORKER_TIMEOUT) -> None:
        proc = self.proc
        if proc is not None:
            proc.join(timeout)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(1.0)
            if proc.is_alive() and hasattr(proc, "kill"):  # pragma: no cover
                proc.kill()
                proc.join(1.0)
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover
                pass
        reader = self._reader
        if reader is not None and reader is not threading.current_thread():
            reader.join(timeout=5.0)
        self._mark_dead()

    # -- request path --------------------------------------------------
    def submit(
        self,
        points: Sequence[Tuple[float, ...]],
        cfg: QueryConfig,
        sent_at: Optional[float] = None,
    ) -> Future:
        """One wire round trip for a window (a lone query is a window of one).

        Resolves to a list of columnar :data:`~repro.shard.wire
        .FlatResult` replies, one per point in order.  With *sent_at*
        (the parent's wall clock at send: a span-sampled window) it
        resolves to ``(replies, wire_spans)`` instead — one span set for
        the window, because the worker runs one traversal for it.
        """
        fut: Future = Future()
        with self._send_lock:
            if self.dead:
                fut.set_exception(
                    ShardLostError(f"shard {self.index} worker is dead")
                )
                return fut
            rid = next(self._rids)
            with self._pending_lock:
                self._pending[rid] = fut
            try:
                if sent_at is None:
                    self.conn.send(("query", rid, points, cfg))
                else:
                    self.conn.send(("query", rid, points, cfg, sent_at))
            except (OSError, ValueError, BrokenPipeError):
                with self._pending_lock:
                    self._pending.pop(rid, None)
                self._mark_dead()
                fut.set_exception(
                    ShardLostError(f"shard {self.index} pipe broke on send")
                )
        return fut

    # -- internals -----------------------------------------------------
    def _read_loop(self) -> None:
        conn = self.conn
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            except (TypeError, ValueError):
                # finalize() closed our end of the pipe from another
                # thread mid-recv: Connection nulls its handle and the
                # blocked read surfaces this instead of EOFError.
                break
            tag = msg[0]
            if tag == "ok":
                fut = self._pop(msg[1])
                if fut is not None:
                    fut.set_result(msg[2])
            elif tag == "oks":
                # Span-sampled reply: payload plus compact worker spans.
                fut = self._pop(msg[1])
                if fut is not None:
                    fut.set_result((msg[2], msg[3]))
            elif tag == "err":
                fut = self._pop(msg[1])
                if fut is not None:
                    fut.set_exception(msg[2])
            elif tag in ("ready", "nack"):
                with self._cond:
                    self._verdicts[msg[1]] = msg[2] if tag == "nack" else None
                    self._cond.notify_all()
            elif tag == "closed":
                # The worker is about to exit; EOF follows.
                continue
        self._mark_dead()

    def _pop(self, rid: int) -> Optional[Future]:
        with self._pending_lock:
            return self._pending.pop(rid, None)

    def _mark_dead(self) -> None:
        self.dead = True
        with self._pending_lock:
            orphans = list(self._pending.values())
            self._pending.clear()
        for fut in orphans:
            if not fut.done():
                fut.set_exception(
                    ShardLostError(f"shard {self.index} worker died mid-query")
                )
        with self._cond:
            self._cond.notify_all()


class _InlineShard:
    """Same interface as :class:`_ProcessShard`, executed in-process.

    Used by ``processes=False`` — no shared memory, no pipes, the packed
    kernels run in the calling thread.  Differential tests rely on the
    two modes producing bit-identical answers.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.mbr: Optional[Rect] = None
        self.size = 0
        self.dead = False
        self.ptree: Optional[PackedTree] = None

    def start(self, ptree: PackedTree, mbr: Optional[Rect], size: int) -> None:
        self.ptree = ptree
        self.mbr = mbr
        self.size = size

    def wait_ready(self, epoch: int, timeout: float = 0.0) -> None:
        pass

    def publish(self, ptree: PackedTree, mbr: Optional[Rect], size: int) -> None:
        self.start(ptree, mbr, size)

    def request_close(self) -> None:
        pass

    def finalize(self, timeout: float = 0.0) -> None:
        self.ptree = None
        self.dead = True

    def submit(
        self,
        points: Sequence[Tuple[float, ...]],
        cfg: QueryConfig,
        sent_at: Optional[float] = None,
    ) -> Future:
        fut: Future = Future()
        try:
            # The worker's own window function: inline and process mode
            # produce the same reply by construction, and the flatten /
            # inflate round trip is exercised without a process.
            fut.set_result(serve_window(self.ptree, points, cfg, sent_at))
        except BaseException as exc:  # noqa: BLE001 - future carries it
            fut.set_exception(exc)
        return fut


class ShardedQueryEngine:
    """Scatter-gather k-NN over N process-hosted packed shards.

    Args:
        tree: The index to shard — any tree exposing ``items()`` (an
            :class:`~repro.rtree.tree.RTree`, a
            :class:`~repro.rtree.disk.DiskRTree`, …).  Mutually
            exclusive with *items*.
        items: Raw ``(rect_or_point, payload)`` pairs to index, for
            callers that never built a single tree at all.
        shards: Target shard count (effective count is capped at the
            item count; each shard gets its own worker process).
        config: Default :class:`QueryConfig`, per-call overridable —
            same contract as the thread engine.
        options: :class:`~repro.service.options.EngineOptions`;
            ``workers`` sizes the client-side submit pool, ``cache_size``
            the result cache.  ``packed`` is implied (the slabs *are*
            the shards) and ``buffer_pages`` does not apply.
        partitioner: ``"auto"`` | ``"str"`` | ``"hash"`` (see
            :func:`repro.shard.partition.plan_shards`).
        processes: ``False`` runs every shard inline in the calling
            thread — no workers, no shared memory — producing
            bit-identical answers (the differential-testing seam, and a
            useful mode on single-core machines).
        max_entries: Node fanout for the per-shard STR bulk loads
            (default: the source tree's, else 8).

    The engine is read-only: there is no ``insert``/``delete``; call
    :meth:`republish` with fresh items to swap the whole snapshot.
    Thread-safe: any thread may call ``query``/``submit``; ``republish``
    excludes queries with a writer-preferring RW lock for its handle swap
    only, not for the build before it.
    """

    def __init__(
        self,
        tree: Any = None,
        items: Optional[Sequence[Tuple[Any, Any]]] = None,
        shards: int = 4,
        config: Optional[QueryConfig] = None,
        options: Optional[EngineOptions] = None,
        partitioner: str = "auto",
        processes: bool = True,
        max_entries: Optional[int] = None,
    ) -> None:
        if (tree is None) == (items is None):
            raise InvalidParameterError(
                "pass exactly one of tree= or items="
            )
        if shards < 1:
            raise InvalidParameterError(f"shards must be >= 1, got {shards}")
        self.config = config if config is not None else QueryConfig()
        self.options = replace(options or EngineOptions(), packed=True)
        self.partitioner = partitioner
        self.processes = processes
        self._max_entries = max_entries or getattr(tree, "max_entries", None) or 8
        self._ctx = _mp_context() if processes else None
        self._name_prefix = (
            f"repro-shard-{os.getpid():x}-{secrets.token_hex(4)}"
        )
        self._rwlock = ReadWriteLock()
        self._swap_lock = threading.Lock()
        self.cache = ResultCache(self.options.cache_size)
        self._latency = LatencyRecorder()
        self._closed = False
        self._epoch = 0
        self._plan: Optional[ShardPlan] = None
        self._handles: List[Any] = []
        self._slabs: List[ExportedSlab] = []
        self._client_pool: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(
                max_workers=self.options.workers,
                thread_name_prefix="repro-shard-client",
            )
            if self.options.workers > 1
            else None
        )
        self._stats_lock = threading.Lock()
        self._queries = 0
        self._cache_hits = 0
        self._executed = 0
        self._failures = 0
        self._shards_queried = 0
        self._shards_pruned = 0
        self._degraded = 0
        self._pages_total = 0
        # Per-shard cumulative request/page counters (under _stats_lock)
        # — the /stats per-shard gauges and the advisor's balance signal.
        self._shard_requests: List[int] = []
        self._shard_pages: List[int] = []
        source = tree.items() if tree is not None else items
        try:
            self._publish(self._build_shards(source, shards, 1), boot=True)
        except BaseException:
            self._teardown()
            raise

    @property
    def name_prefix(self) -> str:
        """The name prefix of every shared-memory segment this engine owns.

        The leak contract: after :meth:`close` returns, no segment whose
        name starts with this prefix exists system-wide (checked by the
        CI shard job, ``tests/shard/test_engine.py`` and ``perf/``'s
        hygiene phase against ``/dev/shm``).
        """
        return self._name_prefix

    # ------------------------------------------------------------------
    # Publish / swap
    # ------------------------------------------------------------------
    @_gc_paused()
    def _build_shards(
        self, source: Iterable[Tuple[Any, Any]], shards: int, epoch: int
    ) -> Tuple[ShardPlan, List[PackedTree], List[ExportedSlab]]:
        """Partition, bulk-load, pack and (in process mode) export.

        The allocation-heavy half of a publish (*source* arrives lazy).
        It reads nothing a query writes, so ``republish`` runs it with
        readers still served; the collector is paused over it and back
        before anything forks — a child inherits the flag for life.

        A failure halfway through the export loop (shard ``i`` raising
        after shards ``0..i-1`` already hit ``/dev/shm``) unwinds by
        unlinking exactly the segments this never-published epoch
        exported, then re-raises — the old epoch's segments are not
        touched and keep serving.
        """
        plan = plan_shards(source, shards, self.partitioner)
        ptrees: List[PackedTree] = []
        slabs: List[ExportedSlab] = []
        try:
            for index, group in enumerate(plan.groups):
                subtree = bulk_load(group, max_entries=self._max_entries)
                ptree = PackedTree.from_tree(subtree)
                # Stamp the engine's publish epoch: it keys worker ready
                # acks, segment names and the result cache.
                ptree.epoch = epoch
                ptrees.append(ptree)
                if self.processes:
                    name = f"{self._name_prefix}-e{epoch}-s{index}"
                    slabs.append(
                        export_slab(ptree, index, plan.mbrs[index], name)
                    )
        except BaseException:
            for slab in slabs:
                slab.unlink()
            raise
        return plan, ptrees, slabs

    def _publish(
        self,
        built: Tuple[ShardPlan, List[PackedTree], List[ExportedSlab]],
        boot: bool,
    ) -> None:
        """The swap half of a publish; ``republish`` holds the write lock."""
        plan, ptrees, slabs = built
        epoch = self._epoch + 1
        try:
            if not boot and plan.shards != len(self._handles):
                raise InvalidParameterError(
                    f"republish must keep the shard count: engine has "
                    f"{len(self._handles)} shards, new plan has "
                    f"{plan.shards} (need >= one item per shard)"
                )
            if boot:
                if self.processes:
                    self._handles = [
                        _ProcessShard(i, self._ctx)
                        for i in range(plan.shards)
                    ]
                else:
                    self._handles = [
                        _InlineShard(i) for i in range(plan.shards)
                    ]
            old_slabs = self._slabs
            if self.processes:
                pending: List[_ProcessShard] = []
                for handle, slab, mbr, group in zip(
                    self._handles, slabs, plan.mbrs, plan.groups
                ):
                    if boot or handle.dead:
                        # Boot, or self-heal a dead worker on republish.
                        handle.start(slab, mbr, len(group))
                    else:
                        handle.publish(slab, mbr, len(group))
                    pending.append(handle)
                for handle in pending:
                    handle.wait_ready(epoch)
            else:
                for handle, ptree, mbr, group in zip(
                    self._handles, ptrees, plan.mbrs, plan.groups
                ):
                    if boot:
                        handle.start(ptree, mbr, len(group))
                    else:
                        handle.publish(ptree, mbr, len(group))
        except BaseException:
            # The new epoch never completed its ack-before-unlink swap:
            # it was not published, so unwind by unlinking exactly its
            # segments (idempotent with any partial unwind below us).
            # The engine keeps serving the old epoch untouched.
            for slab in slabs:
                slab.unlink()
            raise
        # Every worker acknowledged the new epoch: retire the old one.
        self._plan = plan
        self._slabs = slabs
        self._epoch = epoch
        if len(self._shard_requests) != plan.shards:
            # Boot only: republish keeps the shard count, so the
            # cumulative per-shard counters survive epoch swaps.
            with self._stats_lock:
                self._shard_requests = [0] * plan.shards
                self._shard_pages = [0] * plan.shards
        for slab in old_slabs:
            slab.unlink()
        if self.cache.capacity > 0:
            self.cache.invalidate_epoch(epoch)

    def republish(
        self,
        tree: Any = None,
        items: Optional[Sequence[Tuple[Any, Any]]] = None,
    ) -> int:
        """Swap the served snapshot for fresh data; returns the new epoch.

        The next epoch is planned, loaded, packed and exported under
        ``_swap_lock`` only: queries are answered from the current epoch
        for as long as that build takes.  Readers are excluded for the
        swap alone — one name-publish per shard, workers re-attach (dead
        ones are respawned), the previous epoch's segments unlinked only
        after every worker acknowledged.  Queries after it see the new
        epoch; the result cache is keyed by epoch, so no stale answer
        survives.  A failed build or swap unlinks its own segments
        (docs/SHARDING.md names the one hole in "leaves the rest alone").
        """
        if (tree is None) == (items is None):
            raise InvalidParameterError("pass exactly one of tree= or items=")
        source = tree.items() if tree is not None else items
        with self._swap_lock:
            self._ensure_open()
            built = self._build_shards(
                source, len(self._handles), self._epoch + 1
            )
            with self._rwlock.write():
                self._publish(built, boot=False)
            return self._epoch

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        point: Sequence[float],
        k: Optional[int] = None,
        config: Optional[QueryConfig] = None,
        span_ctx: Optional[SpanContext] = None,
    ) -> NNResult:
        """Answer one k-NN query (cache-first, then scatter-gather).

        *span_ctx* is the request-scoped trace context: when sampled,
        the serve records an ``engine.query`` span with scatter / per-
        shard RPC / merge children (worker spans included — see
        :mod:`repro.obs.spans`).  ``None`` (the default) costs one
        ``is None`` test (the path ``perf/``'s ``shard_proc`` times).
        """
        self._ensure_open()
        cfg = self._effective_config(k, config)
        return self._serve(point, cfg, span_ctx)

    def submit(
        self,
        point: Sequence[float],
        k: Optional[int] = None,
        config: Optional[QueryConfig] = None,
        span_ctx: Optional[SpanContext] = None,
    ) -> "Future[NNResult]":
        """Asynchronous :meth:`query`; the future never hangs."""
        self._ensure_open()
        cfg = self._effective_config(k, config)
        pool = self._client_pool
        if pool is None:
            fut: Future = Future()
            try:
                fut.set_result(self._serve(point, cfg, span_ctx))
            except BaseException as exc:  # noqa: BLE001 - future carries it
                fut.set_exception(exc)
            return fut
        return pool.submit(self._serve, point, cfg, span_ctx)

    def query_batch(
        self,
        points: Sequence[Sequence[float]],
        k: Optional[int] = None,
        config: Optional[QueryConfig] = None,
        span_ctxs: Optional[Sequence[Optional[SpanContext]]] = None,
    ) -> List[NNResult]:
        """Answer a batch, one result per point, in order.

        This is the amortized path the front door's micro-batch
        coalescer dispatches through: cache misses travel as **one**
        pickled message per live shard instead of one round trip per
        query per shard, and the workers run the window in parallel off
        the parent's GIL.  It is the same wire op, reply shape and merge
        as :meth:`query`; only the scatter *policy* differs.  The
        answers — payloads, distances, truncation verdicts and frontier
        bounds — are bit-identical to per-query :meth:`query` calls at
        ``epsilon == 0`` (same kernels, same tie-aware merge; under
        ``epsilon > 0`` both are valid (1+eps)-answers but may differ,
        because the per-query prune uses the shrunk bound).  The effort
        counters differ by design: the batch path skips the shard-level
        P3 prune (every live shard sees every point; pruning needs a
        per-point bound from a synchronous first round, which is
        exactly the round trip this path amortizes away), so its
        ``nodes_accessed`` reflects the full fan-out.  Few-large-shards
        topologies therefore coalesce best; see ``docs/SERVING.md``.
        """
        if not points:
            raise InvalidParameterError("points must be non-empty")
        if span_ctxs is not None and len(span_ctxs) != len(points):
            raise InvalidParameterError(
                f"span_ctxs must align with points: "
                f"{len(span_ctxs)} contexts for {len(points)} points"
            )
        self._ensure_open()
        cfg = self._effective_config(k, config)
        start = time.perf_counter()
        start_s = time.time() if span_ctxs is not None else 0.0
        try:
            points = [as_point(p) for p in points]
            with self._rwlock.read():
                epoch = self._epoch
                use_cache = self.cache.capacity > 0
                results: List[Optional[NNResult]] = [None] * len(points)
                hits = 0
                keys: List[Any] = []
                misses: List[int] = []
                for idx, point in enumerate(points):
                    key = (
                        (point, cfg.cache_key(), epoch)
                        if use_cache
                        else None
                    )
                    keys.append(key)
                    if use_cache:
                        cached = self.cache.get(key, _CACHE_MISS)
                        if cached is not _CACHE_MISS:
                            results[idx] = cached
                            hits += 1
                            continue
                    misses.append(idx)
                if misses:
                    merged = self._scatter_batch(
                        [points[i] for i in misses],
                        cfg,
                        (
                            [span_ctxs[i] for i in misses]
                            if span_ctxs is not None
                            else None
                        ),
                    )
                    for idx, result in zip(misses, merged):
                        results[idx] = result
                        if use_cache and not result.stats.truncated:
                            self.cache.put(keys[idx], result)
                if span_ctxs is not None:
                    missed = set(misses)
                    batch_ms = (time.perf_counter() - start) * 1000.0
                    for idx, ctx in enumerate(span_ctxs):
                        if ctx is not None and ctx.sampled:
                            ctx.add(
                                "engine.batch", start_s, batch_ms,
                                attrs={
                                    "window": len(points),
                                    "cache": (
                                        "miss" if idx in missed else "hit"
                                    ),
                                    "epoch": epoch,
                                },
                            )
                with self._stats_lock:
                    self._queries += len(points)
                    self._cache_hits += hits
                    self._executed += len(misses)
                    self._pages_total += sum(
                        results[i].stats.nodes_accessed for i in misses
                    )
                return results  # type: ignore[return-value]
        except BaseException:
            with self._stats_lock:
                self._failures += 1
            raise
        finally:
            # One sample per point, as the thread engine records them:
            # a window must weigh its size in the /stats percentiles.
            per_query = (time.perf_counter() - start) / len(points)
            for _ in points:
                self._latency.record(per_query)

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> ShardedStats:
        """An immutable :class:`ShardedStats` snapshot."""
        p50, p95, p99, mean, max_ms = self._latency.snapshot_ms()
        alive = sum(1 for h in self._handles if not h.dead)
        seg_bytes = sum(s.manifest.total_bytes for s in self._slabs)
        sizes = tuple(h.size for h in self._handles)
        with self._stats_lock:
            executed = self._executed
            return ShardedStats(
                queries=self._queries,
                cache_hits=self._cache_hits,
                executed=executed,
                failures=self._failures,
                shards=len(self._handles),
                workers_alive=alive,
                epoch=self._epoch,
                shards_queried=self._shards_queried,
                shards_pruned=self._shards_pruned,
                degraded=self._degraded,
                latency_p50_ms=p50,
                latency_p95_ms=p95,
                latency_p99_ms=p99,
                latency_mean_ms=mean,
                latency_max_ms=max_ms,
                pages_per_query=(
                    self._pages_total / executed if executed else 0.0
                ),
                segment_bytes=seg_bytes,
                shard_sizes=sizes,
            )

    def shard_metrics(self) -> Dict[str, Any]:
        """Per-shard gauges, flat (``shard0.pages``-style keys).

        The load-balance surface behind the front door's ``/stats`` and
        the advisor's rebalance signal: cumulative requests and logical
        pages served per shard, current item count, pipe queue depth
        (in-flight requests awaiting a reply) and liveness.
        """
        with self._stats_lock:
            requests = list(self._shard_requests)
            pages = list(self._shard_pages)
        out: Dict[str, Any] = {}
        for i, handle in enumerate(self._handles):
            depth = 0
            pending = getattr(handle, "_pending", None)
            if pending is not None:
                depth = len(pending)
            out[f"shard{i}.size"] = handle.size
            out[f"shard{i}.alive"] = int(not handle.dead)
            out[f"shard{i}.depth"] = depth
            out[f"shard{i}.requests"] = requests[i] if i < len(requests) else 0
            out[f"shard{i}.pages"] = pages[i] if i < len(pages) else 0
        return out

    def register_metrics(
        self, registry: Any, prefix: str = "engine"
    ) -> None:
        """Wire the engine's signals into a metrics registry.

        Registers the aggregate snapshot under *prefix* and the
        per-shard gauges under ``"shards"`` — both as callables, so the
        registry re-reads live values on every collection (the
        :class:`~repro.obs.MetricsRegistry` contract).
        """
        registry.register(prefix, lambda: self.stats().as_dict())
        registry.register("shards", self.shard_metrics)

    def liveness(self) -> Dict[str, Any]:
        """Per-shard liveness surface for front doors (``/readyz``).

        ``alive`` holds one boolean per shard, in shard order: a dead
        worker degrades answers to certified-sound truncated prefixes
        (see docs/SHARDING.md), so a front door may choose to keep
        serving degraded (``ready`` stays ``True`` while *any* worker
        lives) but report the per-shard detail to its probe.
        """
        alive = [not h.dead for h in self._handles]
        return {
            "ready": not self._closed and any(alive),
            "backend": "sharded",
            "epoch": self._epoch,
            "shards": len(alive),
            "alive": alive,
            "workers_alive": sum(alive),
        }

    def snapshot(self) -> EngineSnapshot:
        """What this engine serves: epoch, size, shard layout."""
        detail: Dict[str, Any] = {
            "shards": len(self._handles),
            "mode": "process" if self.processes else "inline",
            "partitioner": self._plan.method if self._plan else "?",
            "workers_alive": sum(1 for h in self._handles if not h.dead),
        }
        if self.processes:
            detail["segments"] = [s.name for s in self._slabs]
        return EngineSnapshot(
            backend="sharded",
            epoch=self._epoch,
            size=sum(h.size for h in self._handles),
            detail=detail,
        )

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop serving, stop workers, unlink every segment.  Idempotent.

        After ``close()`` returns there are no worker processes, no
        reader threads, and — the leak contract the CI job asserts — no
        shared-memory segments left under this engine's name prefix.
        """
        with self._swap_lock:
            if self._closed:
                return
            self._closed = True
        pool = self._client_pool
        if pool is not None:
            pool.shutdown(wait=True)
            self._client_pool = None
        self._teardown(timeout if timeout is not None else _WORKER_TIMEOUT)

    def _teardown(self, timeout: float = _WORKER_TIMEOUT) -> None:
        for handle in self._handles:
            handle.request_close()
        for handle in self._handles:
            handle.finalize(timeout)
        for slab in self._slabs:
            slab.unlink()
        self._slabs = []

    def __enter__(self) -> "ShardedQueryEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        mode = "process" if self.processes else "inline"
        return (
            f"ShardedQueryEngine(shards={len(self._handles)}, mode={mode}, "
            f"epoch={self._epoch}, size={sum(h.size for h in self._handles)})"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _effective_config(
        self, k: Optional[int], config: Optional[QueryConfig]
    ) -> QueryConfig:
        cfg = resolve_config(config if config is not None else self.config, k)
        if cfg.object_distance_sq is not None:
            raise InvalidParameterError(
                "ShardedQueryEngine serves packed kernels only; "
                "object_distance_sq needs the object-graph kernels "
                "(use QueryEngine)"
            )
        return cfg

    def _ensure_open(self) -> None:
        if self._closed:
            raise InvalidParameterError("ShardedQueryEngine is closed")

    def _serve(
        self,
        point: Sequence[float],
        cfg: QueryConfig,
        span_ctx: Optional[SpanContext] = None,
    ) -> NNResult:
        start = time.perf_counter()
        if span_ctx is not None and not span_ctx.sampled:
            span_ctx = None  # honor an upstream "no" without re-checking
        serve_span = (
            span_ctx.start("engine.query", backend="sharded")
            if span_ctx is not None
            else None
        )
        try:
            point = as_point(point)  # before the shard MBRs see it
            with self._rwlock.read():
                epoch = self._epoch
                use_cache = self.cache.capacity > 0
                if use_cache:
                    key = (point, cfg.cache_key(), epoch)
                    cached = self.cache.get(key, _CACHE_MISS)
                    if cached is not _CACHE_MISS:
                        with self._stats_lock:
                            self._queries += 1
                            self._cache_hits += 1
                        if serve_span is not None:
                            serve_span.annotate(cache="hit", epoch=epoch)
                        return cached
                result = self._scatter(
                    point, cfg, span_ctx,
                    serve_span.id if serve_span is not None else None,
                )
                if use_cache and not result.stats.truncated:
                    self.cache.put(key, result)
                with self._stats_lock:
                    self._queries += 1
                    self._executed += 1
                    self._pages_total += result.stats.nodes_accessed
                if serve_span is not None:
                    serve_span.annotate(
                        cache="miss",
                        epoch=epoch,
                        pages=result.stats.nodes_accessed,
                        truncated=int(result.stats.truncated),
                    )
                return result
        except BaseException as exc:
            with self._stats_lock:
                self._failures += 1
            if serve_span is not None:
                serve_span.annotate(error=type(exc).__name__)
            raise
        finally:
            if serve_span is not None:
                serve_span.end()
            self._latency.record(time.perf_counter() - start)

    def _scatter(
        self,
        point: Tuple[float, ...],
        cfg: QueryConfig,
        span_ctx: Optional[SpanContext] = None,
        parent_span: Optional[int] = None,
    ) -> NNResult:
        handles = self._handles
        minds = [
            mindist_squared(point, h.mbr) if h.mbr is not None else _INF
            for h in handles
        ]
        order = sorted(range(len(handles)), key=lambda i: (minds[i], i))
        epsilon = cfg.epsilon
        shrink_sq = (
            1.0 / ((1.0 + epsilon) * (1.0 + epsilon)) if epsilon else 1.0
        )
        # Shard pruning is the paper's P3 lifted to shard MBRs; respect
        # a pruning config that turned P3 off (audit parity).
        use_prune = cfg.pruning is None or cfg.pruning.use_p3
        sampled = span_ctx is not None
        ctxs = (span_ctx,) if sampled else ()
        scatter_span = (
            span_ctx.start("scatter", parent=parent_span) if sampled else None
        )
        scatter_id = scatter_span.id if scatter_span is not None else None

        window = [point]
        lost: List[int] = []
        pruned_minds: List[float] = []

        def _ask(i: int) -> Tuple[int, Future, Optional[float]]:
            sent_at = time.time() if sampled else None
            return i, handles[i].submit(window, cfg, sent_at), sent_at

        # Round 1: nearest live shard, synchronously — its k-th distance
        # is the bound that prunes the rest.
        bound = _INF
        rest: List[int] = []
        per_shard: Dict[int, List[FlatResult]] = {}
        for pos, i in enumerate(order):
            if handles[i].mbr is None:
                continue  # empty shard: nothing to ask
            if handles[i].dead:
                lost.append(i)
                continue
            per_shard = self._gather([_ask(i)], lost, ctxs, scatter_id, {})
            if not per_shard:
                continue  # shard was lost mid-request: try the next one
            first = per_shard[i][0]
            if use_prune and len(first[2]) >= cfg.k and not first[5][6]:
                bound = first[2][-1]
            rest = order[pos + 1:]
            break

        # Round 2: prune, then scatter the survivors in parallel.  The
        # test is strict, as the paper's P3 is: a shard sitting exactly
        # on the bound cannot improve a distance but can hold an equal-
        # distance object that wins the merge's (d², shard, rank) order.
        in_flight: List[Tuple[int, Future, Optional[float]]] = []
        for i in rest:
            if handles[i].mbr is None:
                continue
            if bound < _INF and minds[i] > bound * shrink_sq:
                pruned_minds.append(minds[i])
                continue
            if handles[i].dead:
                lost.append(i)
                continue
            in_flight.append(_ask(i))
        per_shard.update(
            self._gather(in_flight, lost, ctxs, scatter_id, {})
        )

        if scatter_span is not None:
            scatter_span.end(
                queried=len(per_shard),
                pruned=len(pruned_minds),
                lost=len(lost),
            )
        self._account(per_shard, 1, len(pruned_minds), lost)
        collected = [(i, flats[0]) for i, flats in per_shard.items()]
        lost_minds = [minds[i] for i in lost]
        if sampled:
            merge_start = time.time()
            t0 = time.perf_counter()
            merged = self._merge(cfg, collected, lost_minds, pruned_minds)
            span_ctx.add(
                "merge",
                merge_start,
                (time.perf_counter() - t0) * 1000.0,
                parent=parent_span,
                attrs={"candidates": sum(
                    len(flat[2]) for _, flat in collected
                )},
            )
            return merged
        return self._merge(cfg, collected, lost_minds, pruned_minds)

    def _scatter_batch(
        self,
        points: List[Tuple[float, ...]],
        cfg: QueryConfig,
        span_ctxs: Optional[List[Optional[SpanContext]]] = None,
    ) -> List[NNResult]:
        """Batched scatter-gather: one wire round trip per live shard.

        Every live, non-empty shard receives the whole window and the
        per-point answers are merged exactly as :meth:`_scatter` merges
        one.  A shard that fails mid-batch degrades every point in the
        window like a lost shard on the per-query path: its MBR MINDIST
        bounds the merged frontier, so the truncated answers stay
        oracle-certifiable.

        Span accounting is window-shaped, like the execution: one worker
        traversal serves every point, so each sampled context in
        *span_ctxs* receives the same per-shard RPC spans (kernel
        attributes summarize the whole window, ``points=N``).
        """
        handles = self._handles
        # The distinct sampled contexts of this window (identity-deduped:
        # the front door's /batch passes one context for every point).
        sampled: List[SpanContext] = []
        if span_ctxs is not None:
            seen: set = set()
            for ctx in span_ctxs:
                if ctx is not None and ctx.sampled and id(ctx) not in seen:
                    seen.add(id(ctx))
                    sampled.append(ctx)
        live: List[int] = []
        lost: List[int] = []
        for i, handle in enumerate(handles):
            if handle.mbr is None:
                continue  # empty shard: nothing to ask
            if handle.dead:
                lost.append(i)
            else:
                live.append(i)
        sent_at = time.time() if sampled else None
        per_shard = self._gather(
            [(i, handles[i].submit(points, cfg, sent_at), sent_at)
             for i in live],
            lost, sampled, None, {"points": len(points)},
        )
        self._account(per_shard, len(points), 0, lost)
        return [
            self._merge(
                cfg,
                [(i, flats[j]) for i, flats in per_shard.items()],
                [mindist_squared(point, handles[i].mbr) for i in lost],
                [],
            )
            for j, point in enumerate(points)
        ]

    def _gather(
        self,
        in_flight: List[Tuple[int, Future, Optional[float]]],
        lost: List[int],
        ctxs: Sequence[SpanContext],
        parent_span: Optional[int],
        rpc_attrs: Dict[str, Any],
    ) -> Dict[int, List[FlatResult]]:
        """Wait for one round of ``(shard, future, sent_at)`` requests.

        Returns ``{shard: [FlatResult, ...]}`` for the shards that
        answered and appends the ones that died to *lost*.  A sampled
        request (``sent_at`` set) resolved to ``(replies, wire_spans)``:
        every context in *ctxs* gets a ``shard<i>.rpc`` span under
        *parent_span* with the worker's spans grafted below it.
        """
        per_shard: Dict[int, List[FlatResult]] = {}
        for i, fut, sent_at in in_flight:
            try:
                reply = fut.result()
            except ShardLostError:
                lost.append(i)
                continue
            if sent_at is not None:
                reply, wire_spans = reply
                rpc_ms = (time.time() - sent_at) * 1000.0
                for ctx in ctxs:
                    rpc_id = ctx.add(
                        f"shard{i}.rpc", sent_at, rpc_ms,
                        parent=parent_span,
                        attrs={"shard": i, **rpc_attrs},
                    )
                    ctx.graft(wire_spans, parent=rpc_id)
            per_shard[i] = reply
        return per_shard

    def _account(
        self,
        per_shard: Dict[int, List[FlatResult]],
        points: int,
        pruned: int,
        lost: List[int],
    ) -> None:
        """Count one scatter of *points* queries; raise if nothing is left."""
        with self._stats_lock:
            self._shards_queried += len(per_shard) * points
            self._shards_pruned += pruned
            if lost:
                self._degraded += points
            for i, flats in per_shard.items():
                self._shard_requests[i] += points
                self._shard_pages[i] += sum(flat[5][0] for flat in flats)
        # Every reachable shard died under us: the merged "answer" would
        # be vacuous.  Still degrade soundly rather than raise — unless
        # literally no shard is left to recover on.
        if not per_shard and lost and all(h.dead for h in self._handles):
            raise ShardLostError(
                "all shard workers are dead; republish() to respawn"
            )

    def _merge(
        self,
        cfg: QueryConfig,
        collected: List[Tuple[int, FlatResult]],
        lost_minds: List[float],
        pruned_minds: List[float],
    ) -> NNResult:
        """Tie-aware k-way merge plus degraded-mode accounting.

        Distances are read straight out of the columnar replies and
        ``Neighbor`` objects are constructed only for the k winners,
        which is what keeps the gather cheap on the parent GIL.  A lone
        reply (nearly every query) is in merge order already.
        """
        if len(collected) == 1:
            flat = collected[0][1]
            stats = inflate_stats(flat[5])
            ranks = range(min(cfg.k, len(flat[2])))
            neighbors = [inflate_neighbor(flat, rank) for rank in ranks]
        else:
            stats = SearchStats()
            entries: List[Tuple[float, int, int, FlatResult]] = []
            for shard_index, flat in sorted(collected, key=lambda t: t[0]):
                stats.merge(inflate_stats(flat[5]))
                for rank, dist_sq in enumerate(flat[2]):
                    entries.append((dist_sq, shard_index, rank, flat))
            # The kernels break exact distance ties by accept order within
            # one tree; across shards the deterministic extension is
            # (distance², shard, within-shard rank).
            entries.sort(key=lambda e: (e[0], e[1], e[2]))
            neighbors = [
                inflate_neighbor(entry[3], entry[2])
                for entry in entries[:cfg.k]
            ]

        shard_frontiers = [
            flat[5][8] for _, flat in collected if flat[5][6]
        ]
        if shard_frontiers or lost_minds:
            # Sound frontier for the merged prefix: anything unexamined
            # lives past a truncated shard's frontier, past a lost
            # shard's MBR MINDIST, or past a pruned shard's MINDIST.
            stats.truncated = True
            if lost_minds:
                stats.truncation_reason = "shard-lost"
            stats.frontier_sq = min(
                shard_frontiers + lost_minds + pruned_minds
            )
        return NNResult(neighbors=neighbors, stats=stats)
